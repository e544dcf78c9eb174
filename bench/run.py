"""Benchmark of the qk calculator: end-to-end and per-layer metrics.

Usage, from the root of the repository:

    python3 bench/run.py --workload verify-z-cold --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each iteration is one fresh process (bench/workload.py) with a private
QK_CACHE_DIR: a timed set-up that builds or loads every restriction table,
then one ``qk`` command.  Iterations repeat until ``--seconds`` have passed
(at least MIN_ITERATIONS) and the medians are reported.  Every iteration's
output is checked line by line against bench/reference.json; a mismatch,
a non-zero exit or a cold run that found a cache counts as failed pairs.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
untraced and traced iterations alternate, the seed deciding which goes
first, and the metrics are the per-layer ones from the traced iterations
plus the tracing overhead.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

MIN_ITERATIONS = 3
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s

# Each workload is exhaustive over all pairs of its space, so the seed
# changes no input.  "{out}" is replaced by a file in the run's directory.
# A cold workload gives every iteration a new, empty cache directory.
WORKLOADS = {
    "verify-z-cold": {
        "space": [2, 5],
        "equivariant": False,
        "cold": True,
        "pairs": 100,
        "argv": ["verify", "--space", "gr:2,5"],
    },
    "table-eq": {
        "space": [2, 5],
        "equivariant": True,
        "cold": False,
        "pairs": 100,
        "argv": ["table", "--space", "gr:2,5", "--equivariant",
                 "--v-basis", "opposite", "--jobs", "2", "--out", "{out}"],
    },
}

UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "pairs_per_s": "1/s",
         "peak_rss_mb": "MB"}


def load_reference() -> dict:
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def count_failed(spec: dict, expected: list, result: dict) -> int:
    """Failed pairs of one iteration, judged against the reference digests."""
    pairs = spec["pairs"]
    if result.get("exit_code") != 0:
        return pairs
    got = result["lines"]
    if spec["cold"] and (result["cache_before"]
                         or len(result["cache_after"]) != result["tables_built"]):
        return pairs
    if len(expected) == pairs:  # one output line per pair
        return sum(1 for i, digest in enumerate(expected) if i >= len(got) or got[i] != digest) \
            + max(len(got) - pairs, 0)
    if got == expected:  # a one-line verdict, with a line per violation before it
        return 0
    return min(pairs, max(1, len(got) - 1))


class Runner:
    """Runs iterations of one workload in its own directory under WORK."""

    def __init__(self, name: str, spec: dict, deadline: float):
        self.name = name
        self.spec = spec
        self.deadline = deadline
        self.dir = WORK / f"{name}-{os.getpid()}"
        self.cache = self.dir / "cache"
        self.count = 0

    def __enter__(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.cache.mkdir(parents=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)

    def run(self, mode: str, trace: bool) -> dict:
        """One process; returns its result with wall, CPU and peak RSS added."""
        self.count += 1
        step = self.dir / f"it{self.count}"
        step.mkdir()
        cache = self.cache
        if self.spec["cold"]:
            cache = step / "cache"
            cache.mkdir()
        out = step / "out.txt"
        job = {
            "space": self.spec["space"],
            "equivariant": self.spec["equivariant"],
            "argv": [str(out) if a == "{out}" else a for a in self.spec["argv"]],
            "out_path": str(out),
            "mode": mode,
            "trace": trace,
            "run_id": f"{self.name}/{self.count}",
            "worker_dir": str(step),
            "spans_path": str(WORK / f"spans-{self.name}.jsonl"),
            "result_path": str(step / "result.json"),
        }
        job_path = step / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), QK_CACHE_DIR=str(cache))
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "workload.py"), str(job_path)],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True,
        )
        timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0),
                                os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {"exit_code": "crashed", "lines": []}
        if proc.returncode == 0:
            with open(job["result_path"], encoding="utf-8") as fh:
                result = json.load(fh)
        result.update(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )
        shutil.rmtree(step / "cache", ignore_errors=True)
        return result


def run_workload(name: str, spec: dict, expected: list, seconds: float,
                 trace: bool, seed: int, deadline: float) -> dict:
    """Iterate one workload for ``seconds``; returns the contract's result."""
    attempted = failed = 0
    plain, traced = [], []
    rng = random.Random(seed)
    with Runner(name, spec, deadline) as it:
        if not spec["cold"]:
            it.run("prime", False)  # untimed: fills the private cache
        start = time.monotonic()
        while True:
            if trace:
                order = [False, True]
                rng.shuffle(order)
            else:
                order = [False]
            for traced_run in order:
                result = it.run("run", traced_run)
                attempted += spec["pairs"]
                failed += count_failed(spec, expected, result)
                (traced if traced_run else plain).append(result)
            done = len(plain) >= (1 if trace else MIN_ITERATIONS)
            if done and time.monotonic() - start >= seconds:
                break
            if time.monotonic() > deadline:
                break
    ok = [s for s in plain if s.get("exit_code") == 0]
    metrics = {}
    if trace:
        layers = [s["layers"] for s in traced if s.get("exit_code") == 0]
        if layers:
            metrics = {k: {"value": statistics.median(g[k] for g in layers), "unit": layer_unit(k)}
                       for k in sorted(layers[0])}
        if layers and ok:
            ratio = statistics.median(s["wall_s"] for s in traced) / statistics.median(
                s["wall_s"] for s in ok)
            metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    elif ok:
        for s in ok:
            s["pairs_per_s"] = spec["pairs"] / s["command_s"]
        metrics = {k: {"value": statistics.median(s[k] for s in ok), "unit": unit}
                   for k, unit in UNITS.items()}
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "iterations": len(plain) + len(traced),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


def summary_line(name: str, seed: int, res: dict) -> str:
    frac = res["failed"] / res["attempted"]
    parts = [f"{name} seed={seed} iterations={res['iterations']} attempted={res['attempted']} "
             f"failed={res['failed']} fail_frac={frac:g}"]
    parts += [f"{k}={m['value']:.6g} {m['unit']}" for k, m in sorted(res["metrics"].items())]
    return " | ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qkcomin" / "cli.py").is_file():
        print(f"error: no qkcomin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = load_reference()
    names = [args.workload] if args.workload != "all" else sorted(WORKLOADS)
    random.Random(args.seed).shuffle(names)  # order of workloads in a round
    deadline = time.monotonic() + RUN_LIMIT_S
    if len(names) > 1:
        deadline += RUN_LIMIT_S * (len(names) - 1)
    results = {}
    for name in names:
        res = run_workload(name, WORKLOADS[name], reference[name], args.seconds,
                           bool(args.trace), args.seed, deadline)
        results[name] = res
        print(summary_line(name, args.seed, res), flush=True)
    if len(names) == 1:
        final = {k: results[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
