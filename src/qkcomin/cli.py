"""Command-line front end.

Commands: product, dist, neighborhood, table, verify, cache.  All JSON
output is canonical (fixed key order, compact separators) so identical
invocations produce byte-identical output.  Exit codes: 0 success, 1
verification violations, 2 usage or parse errors, 3 I/O errors, 4 internal
errors (a broken invariant of the calculator, not bad input, or a ``table``
worker process that died).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import repeat

from qkcomin import cache as diskcache
from qkcomin.gkm import OPPOSITE, PLAIN, NotInSpanError, ShapeMismatchError
from qkcomin.laurent import ExponentRangeError, NotDivisibleError
from qkcomin.quantum import (
    CHECKS,
    Space,
    curve_neighborhood_index,
    dist,
    get_space,
    structure_table,
    verify_space,
)
from qkcomin.weyl import format_partition, parse_partition

DEFAULT_CEILING_NONEQUIVARIANT = 8
DEFAULT_CEILING_EQUIVARIANT = 5

_SPACE_RE = re.compile(r"^gr:(\d+),(\d+)$")


class UsageError(ValueError):
    pass


# Raised only when a convention or invariant of the calculator is broken, or
# an exponent outgrows the packed monomial keys; NotInSpanError and
# ShapeMismatchError are ValueErrors, so these are caught before the
# usage-error branch.
INTERNAL_ERRORS = (
    NotInSpanError, ShapeMismatchError, NotDivisibleError, ExponentRangeError, AssertionError,
)


def _parse_space(text: str, equivariant: bool, use_cache: bool) -> Space:
    m = _SPACE_RE.match(text.strip())
    if not m:
        raise UsageError(f"bad space {text!r}; expected gr:m,n")
    mm, nn = int(m.group(1)), int(m.group(2))
    if not 0 < mm < nn:
        raise UsageError(f"bad space {text!r}; need 0 < m < n")
    if equivariant:
        ceiling = int(os.environ.get("QK_CEILING_EQUIVARIANT", DEFAULT_CEILING_EQUIVARIANT))
    else:
        ceiling = int(os.environ.get("QK_CEILING_NONEQUIVARIANT", DEFAULT_CEILING_NONEQUIVARIANT))
    if nn > ceiling:
        raise UsageError(
            f"space {text} exceeds the configured ceiling n <= {ceiling} "
            f"({'equivariant' if equivariant else 'non-equivariant'})"
        )
    return get_space(mm, nn, equivariant, use_cache)


def _parse_box_partition(space: Space, text: str, name: str) -> tuple:
    lam = parse_partition(text)
    if len(lam) > space.m or (lam and lam[0] > space.n - space.m):
        raise UsageError(
            f"--{name} {text!r} does not fit in the {space.m}x{space.n - space.m} box"
        )
    return lam


def _emit(doc, out_path):
    text = json.dumps(doc, separators=(",", ":")) + "\n"
    _write_text(text, out_path)


def _write_text(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(3)
    else:
        sys.stdout.write(text)


def _pair_doc(space: Space, u: tuple, v: tuple, v_basis: str) -> dict:
    return structure_table(space, u, v, v_basis).to_json_dict()


def _pair_line(space: Space, u: tuple, v: tuple, v_basis: str) -> str:
    return json.dumps(_pair_doc(space, u, v, v_basis), separators=(",", ":"))


_WORKER_ARGS = None


def _worker_init(m, n, equivariant, use_cache):
    global _WORKER_ARGS
    _WORKER_ARGS = (m, n, equivariant, use_cache)


def _worker_row(u, vs, v_basis):
    """The JSON lines of row ``u``.  One row is one pool task, so every
    product and memo the row shares lives in one worker."""
    space = get_space(*_WORKER_ARGS)
    return [_pair_line(space, u, v, v_basis) for v in vs]


def _internal_error(exc) -> int:
    detail = " ".join(str(exc).split())
    print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
    return 4


def cmd_product(args) -> int:
    space = _parse_space(args.space, args.equivariant, not args.no_cache)
    u = _parse_box_partition(space, args.u, "u")
    v = _parse_box_partition(space, args.v, "v")
    _emit(_pair_doc(space, u, v, args.v_basis), args.out)
    return 0


def cmd_dist(args) -> int:
    space = _parse_space(args.space, args.equivariant, not args.no_cache)
    u = _parse_box_partition(space, args.u, "u")
    v = _parse_box_partition(space, args.v, "v")
    _emit({"dist": dist(space, u, v)}, args.out)
    return 0


def cmd_neighborhood(args) -> int:
    space = _parse_space(args.space, args.equivariant, not args.no_cache)
    w = _parse_box_partition(space, args.w, "w")
    if args.d < 0:
        raise UsageError("--d must be non-negative")
    lam = curve_neighborhood_index(space, w, args.d)
    _emit({"w_minus_d": format_partition(lam)}, args.out)
    return 0


def cmd_table(args) -> int:
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        raise UsageError("--jobs must be at least 1")
    space = _parse_space(args.space, args.equivariant, not args.no_cache)
    parts = sorted(space.partitions, key=lambda lam: (sum(lam), lam))
    if jobs > 1 and len(parts) ** 2 > 8:
        # load every table the rows read in the parent, so the forked
        # workers share them: those of X = Y_0 and of each Y_d that is not
        # a point, the degrees on which gw_series expands
        for d in range(max(space.m, space.n - space.m)):
            y = space.diagram(d).y
            y.table(PLAIN)
            y.table(OPPOSITE)
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(parts)),
                initializer=_worker_init,
                initargs=(space.m, space.n, space.equivariant, space.use_cache),
            ) as pool:
                rows = list(pool.map(_worker_row, parts, repeat(parts), repeat(args.v_basis)))
        except BrokenProcessPool as exc:  # a worker died before returning its row
            return _internal_error(exc)
        lines = [line for row in rows for line in row]
    else:
        lines = [_pair_line(space, u, v, args.v_basis) for u in parts for v in parts]
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    space = _parse_space(args.space, args.equivariant, not args.no_cache)
    checks = tuple(args.checks.split(",")) if args.checks else tuple(CHECKS)
    unknown = set(checks) - set(CHECKS)
    if unknown:
        raise UsageError(f"unknown checks: {','.join(sorted(unknown))}")
    report = verify_space(space, checks=checks, oracle=args.oracle)
    for line in report.violations:
        sys.stdout.write(line + "\n")
    if report.passed:
        sys.stdout.write(f"PASS pairs={report.pairs}\n")
        return 0
    sys.stdout.write(f"FAIL pairs={report.pairs} violations={len(report.violations)}\n")
    return 1


def cmd_cache(args) -> int:
    if args.action == "path":
        sys.stdout.write(str(diskcache.cache_dir()) + "\n")
    elif args.action == "stats":
        _emit(diskcache.stats(), None)
    elif args.action == "clear":
        _emit({"removed": diskcache.clear()}, None)
    return 0


def _add_common(p, partitions=()):
    p.add_argument("--space", required=True, help="gr:m,n")
    p.add_argument("--equivariant", action="store_true")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--out", default=None)
    for name in partitions:
        p.add_argument(f"--{name}", required=True, help="partition, e.g. '2,1' ('' for empty)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qk",
        description="Exact (equivariant) quantum K-theory of Grassmannians.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="structure table of one product")
    _add_common(p, ("u", "v"))
    p.add_argument("--v-basis", choices=("plain", "opposite"), default="plain")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("dist", help="minimal connecting curve degree")
    _add_common(p, ("u", "v"))
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("neighborhood", help="curve neighborhood index w(-d)")
    _add_common(p, ("w",))
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_neighborhood)

    p = sub.add_parser("table", help="tables for all pairs")
    _add_common(p)
    p.add_argument("--v-basis", choices=("plain", "opposite"), default="plain")
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the identity checks")
    _add_common(p)
    p.add_argument("--checks", default=None, help="comma list of " + ",".join(CHECKS))
    p.add_argument("--oracle", action="store_true", help="enable moment-graph cross-checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cache", help="cache maintenance")
    p.add_argument("action", choices=("path", "clear", "stats"))
    p.set_defaults(func=cmd_cache)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except INTERNAL_ERRORS as exc:
        return _internal_error(exc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
