"""Layer tracing for the benchmark, installed from outside the program.

The tracer replaces the public functions of each qkcomin module with
wrappers that time the call and count it.  Every name a module copied with
``from ... import`` is patched where it is looked up, so the wrappers see
the calls the program really makes.  Nothing in ``src/`` knows about it.

Spans of the non-leaf layers (gkm, cache, quantum, cli) are kept in memory
as (id, name, start, end, parent, run id) and written out at the end.  The
leaf layers (laurent, weyl) run hundreds of thousands of calls, so they
are only summed; a call into a leaf layer made from inside the same leaf
layer (``a - b`` calling ``a + (-b)``) is part of the outer call.

A layer's self time is its span's duration minus the time its child spans
cover.  Times are inclusive unless the metric name ends in ``self_s``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import Counter, defaultdict

LEAF_LAYERS = ("laurent", "weyl")

# (attribute, metric stem) of LaurentElement; __rmul__/__radd__ are aliases
# of __mul__/__add__ and get their own patch.
LAURENT_OPS = (
    ("__mul__", "mul"),
    ("__rmul__", "mul"),
    ("__add__", "addsub"),
    ("__radd__", "addsub"),
    ("__sub__", "addsub"),
    ("__rsub__", "addsub"),
    ("divide_exact_one_minus", "div"),
    ("substitute_letters", "subst"),
    ("swap_letters", "swap"),
    ("parse", "parse"),
    ("__str__", "str"),
)

GKM_METHODS = (
    ("_build", "build"),
    ("expand_values", "expand"),
    ("basis_change", "basis_change"),
    ("multiply_values", "multiply_values"),
    ("recombine", "recombine"),
)

QUANTUM_NAMES = {
    "quantum_product": "product",
    "gw_series": "series",
    "quantum_product_opposite_v": "opposite_v",
    "structure_table": "table",
    "verify_coefficient_sum": "verify.sum",
    "verify_euler_homomorphism": "verify.hom",
    "verify_min_degree": "verify.mindeg",
    "dist": "dist",
}

# Y_d labels reported for expansions; shapes beyond these count as "other".
Y_LABELS = ("Y1", "Y2", "Y3", "Y4")


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.reset()

    def reset(self) -> None:
        self.stack = []  # frames: [span id, layer, start, child seconds]
        self.spans = []
        self.next_id = 0
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.products = []  # (u, v) of every product series computed
        self.root_s = 0.0  # time covered by spans with no parent

    def wrap(self, layer: str, name: str, fn, on_call=None):
        """A wrapper of ``fn`` that records a span ``name`` in ``layer``."""
        tracer = self
        leaf = layer in LEAF_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if leaf and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            frame = tracer.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(frame, name)

        return traced

    def enter(self, layer: str) -> list:
        frame = [self.next_id, layer, time.perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, name: str) -> None:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        sid, layer, start, child_s = frame
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child_s
        if stack:
            stack[-1][3] += dur
            parent = stack[-1][0]
        else:
            self.root_s += dur
            parent = None
        if layer not in LEAF_LAYERS:
            self.spans.append((sid, name, start, end, parent, self.run_id))

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "products": [[list(u), list(v)] for u, v in self.products],
            "spans": self.spans,
        }


def merge(snapshots: list) -> dict:
    """Sum the snapshots of several processes into one."""
    out = {"calls": Counter(), "total_s": Counter(), "self_s": Counter(),
           "counters": Counter(), "products": [], "spans": []}
    for snap in snapshots:
        for key in ("calls", "total_s", "self_s", "counters"):
            out[key].update(snap[key])
        out["products"].extend(snap["products"])
        out["spans"].extend(snap["spans"])
    return out


def write_spans(spans: list, path) -> None:
    keys = ("id", "name", "start", "end", "parent", "run")
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _rebind(modules, old, new) -> None:
    """Point every module-level name bound to ``old`` at ``new``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def _public_functions(mod):
    for attr, value in list(vars(mod).items()):
        if attr.startswith("_") or inspect.isclass(value) or not callable(value):
            continue
        if getattr(value, "__module__", None) == mod.__name__:
            yield attr, value


def install(tracer: Tracer, space, worker_dir: str) -> None:
    """Wrap the public functions of laurent, weyl, gkm, cache, quantum, cli.

    ``space`` names which model shapes are X and Y_d, for the per-shape
    expansion counts.  Pool workers dump their counters into
    ``worker_dir`` when they exit.
    """
    from concurrent import futures
    from multiprocessing import util

    from qkcomin import cache, cli, gkm, laurent, quantum, weyl

    modules = (laurent, weyl, gkm, cache, quantum, cli)

    # laurent: the scalar operations, summed per kind.
    cls = laurent.LaurentElement

    def count_pairs(args):
        a, b = args
        nb = len(b.terms) if isinstance(b, cls) else (1 if b else 0)
        tracer.counters["laurent.mul_term_pairs"] += len(a.terms) * nb

    for attr, stem in LAURENT_OPS:
        raw = inspect.getattr_static(cls, attr)
        hook = count_pairs if stem == "mul" else None
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap("laurent", f"laurent.{stem}", raw.__func__, hook))
        else:
            wrapped = tracer.wrap("laurent", f"laurent.{stem}", raw, hook)
        setattr(cls, attr, wrapped)

    # weyl: every public function, as one layer.
    for attr, fn in _public_functions(weyl):
        _rebind(modules, fn, tracer.wrap("weyl", "weyl", fn))

    # gkm: table building and the linear algebra of the localization model.
    labels = {space.shape: "X"}
    for d, label in enumerate(Y_LABELS, start=1):
        labels.setdefault(quantum.kernel_span_shapes(space, d)[0], label)

    def count_shape(args):
        tracer.counters["gkm.expand_calls." + labels.get(args[0].shape, "other")] += 1

    for attr, stem in GKM_METHODS:
        hook = count_shape if stem == "expand" else None
        setattr(gkm.KModel, attr, tracer.wrap("gkm", f"gkm.{stem}", getattr(gkm.KModel, attr), hook))

    # cache: loads and stores, with hits, misses, corruption and bytes.
    load_rows, store_rows = cache.load_rows, cache.store_rows

    def traced_load(key):
        path = cache._path_for(key)
        rows = load_rows(key)
        if rows is not None:
            tracer.counters["cache.hits"] += 1
            tracer.counters["cache.bytes_read"] += path.stat().st_size
        elif path.exists():
            tracer.counters["cache.corrupt"] += 1
        else:
            tracer.counters["cache.misses"] += 1
        return rows

    def traced_store(key, rows):
        path = cache._path_for(key)
        before = path.stat().st_ino if path.exists() else None
        store_rows(key, rows)
        if path.exists() and path.stat().st_ino != before:
            tracer.counters["cache.bytes_written"] += path.stat().st_size
        else:
            tracer.counters["cache.store_failures"] += 1

    cache.load_rows = tracer.wrap("cache", "cache.load", traced_load)
    cache.store_rows = tracer.wrap("cache", "cache.store", traced_store)

    # quantum: every public function is a span; the named ones are reported.
    def count_product(args):
        _space, u, v = args[:3]
        tracer.products.append((u, v))

    for attr, fn in _public_functions(quantum):
        stem = QUANTUM_NAMES.get(attr, attr)
        hook = count_product if attr == "gw_series" else None
        new = tracer.wrap("quantum", f"quantum.{stem}", fn, hook)
        _rebind(modules, fn, new)
        for check, check_fn in list(quantum.CHECKS.items()):
            if check_fn is fn:
                quantum.CHECKS[check] = new

    # cli: output, and the process pool seen from the parent and the workers.
    write_text = cli._write_text

    def traced_write(text, out_path):
        tracer.counters["cli.output_bytes"] += len(text.encode("utf-8"))
        return write_text(text, out_path)

    cli._write_text = tracer.wrap("cli", "cli.emit", traced_write)

    worker_init = cli._worker_init

    def traced_worker_init(*args):
        tracer.reset()
        tracer.run_id = f"{tracer.run_id}/worker-{os.getpid()}"
        tracer.counters["cli.pool_workers"] += 1
        path = os.path.join(worker_dir, f"worker-{os.getpid()}.json")
        util.Finalize(None, _dump_snapshot, args=(tracer, path), exitpriority=100)
        return worker_init(*args)

    cli._worker_init = traced_worker_init

    class TracedPool(futures.ProcessPoolExecutor):
        """The parent's wait for its workers, from pool start to shutdown."""

        def __enter__(self):
            self._traced_frame = tracer.enter("cli")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.leave(self._traced_frame, "cli.pool_wait")

    futures.ProcessPoolExecutor = TracedPool


def _dump_snapshot(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)


def layer_metrics(snap: dict, command_s: float, root_s: float, import_s: float) -> dict:
    """The per-layer metrics of one traced iteration, by name."""
    calls, total, self_s, cnt = snap["calls"], snap["total_s"], snap["self_s"], snap["counters"]
    m = {}
    for stem in ("mul", "addsub", "div", "subst", "swap", "parse", "str"):
        m[f"laurent.{stem}_calls"] = calls.get(f"laurent.{stem}", 0)
    m["laurent.mul_term_pairs"] = cnt.get("laurent.mul_term_pairs", 0)
    for stem in ("mul", "addsub", "div", "parse", "str"):
        m[f"laurent.{stem}_s"] = total.get(f"laurent.{stem}", 0.0)
    m["weyl.calls"] = calls.get("weyl", 0)
    m["weyl.self_s"] = self_s.get("weyl", 0.0)
    m["gkm.build_calls"] = calls.get("gkm.build", 0)
    m["gkm.build_s"] = total.get("gkm.build", 0.0)
    m["gkm.expand_calls"] = calls.get("gkm.expand", 0)
    m["gkm.expand_s"] = total.get("gkm.expand", 0.0)
    for label in ("X",) + Y_LABELS:
        m[f"gkm.expand_calls.{label}"] = cnt.get(f"gkm.expand_calls.{label}", 0)
    for stem in ("basis_change", "multiply_values", "recombine"):
        m[f"gkm.{stem}_s"] = total.get(f"gkm.{stem}", 0.0)
    for key in ("hits", "misses", "corrupt", "store_failures", "bytes_read", "bytes_written"):
        m[f"cache.{key}"] = cnt.get(f"cache.{key}", 0)
    m["cache.load_s"] = total.get("cache.load", 0.0)
    m["cache.store_s"] = total.get("cache.store", 0.0)
    product_calls = calls.get("quantum.product", 0)
    series_calls = calls.get("quantum.series", 0)
    m["quantum.product_calls"] = product_calls
    m["quantum.series_calls"] = series_calls
    m["quantum.star_memo_hit_ratio"] = 1 - series_calls / product_calls if product_calls else 0.0
    m["quantum.series_s"] = total.get("quantum.series", 0.0)
    m["quantum.product_self_s"] = self_s.get("quantum.product", 0.0)
    m["quantum.opposite_v_calls"] = calls.get("quantum.opposite_v", 0)
    m["quantum.opposite_v_self_s"] = self_s.get("quantum.opposite_v", 0.0)
    m["quantum.table_self_s"] = self_s.get("quantum.table", 0.0)
    for check in ("sum", "hom", "mindeg"):
        m[f"quantum.verify.{check}_s"] = total.get(f"quantum.verify.{check}", 0.0)
    m["quantum.dist_calls"] = calls.get("quantum.dist", 0)
    m["cli.import_s"] = import_s
    m["cli.emit_s"] = total.get("cli.emit", 0.0)
    m["cli.output_bytes"] = cnt.get("cli.output_bytes", 0)
    m["cli.pool_workers"] = cnt.get("cli.pool_workers", 0)
    m["cli.pool_wait_s"] = total.get("cli.pool_wait", 0.0)
    computed = snap["products"]
    distinct = {tuple(map(tuple, p)) for p in computed}
    m["cli.pool_useful_ratio"] = len(distinct) / len(computed) if computed else 1.0
    m["other.self_s"] = max(command_s - root_s, 0.0)
    return m
