"""Command-line front end.

Commands: product, dist, neighborhood, table, verify, cache.  All JSON
output is canonical (fixed key order, compact separators) so identical
invocations produce byte-identical output.  Exit codes: 0 success, 1
verification violations, 2 usage or parse errors, 3 I/O errors, 4 any
other error (a broken invariant of the calculator, not bad input, or a
``table`` worker process that died).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from qkcomin import cache as diskcache
from qkcomin.gkm import OPPOSITE
from qkcomin.quantum import (
    CHECKS,
    DEFAULT_CHECKS,
    Space,
    _gw_coeffs,
    curve_neighborhood_index,
    dist,
    get_space,
    projected_tasks,
    structure_table,
    verify_space,
)
from qkcomin.weyl import format_partition, parse_partition

DEFAULT_CEILING_NONEQUIVARIANT = 8
DEFAULT_CEILING_EQUIVARIANT = 6

_SPACE_RE = re.compile(r"^gr:(\d+),(\d+)$")


class UsageError(ValueError):
    pass


def _parse_space(text: str, equivariant: bool, use_cache: bool) -> Space:
    m = _SPACE_RE.match(text.strip())
    if not m:
        raise UsageError(f"bad space {text!r}; expected gr:m,n")
    mm, nn = int(m.group(1)), int(m.group(2))
    if not 0 < mm < nn:
        raise UsageError(f"bad space {text!r}; need 0 < m < n")
    if equivariant:
        var, default = "QK_CEILING_EQUIVARIANT", DEFAULT_CEILING_EQUIVARIANT
    else:
        var, default = "QK_CEILING_NONEQUIVARIANT", DEFAULT_CEILING_NONEQUIVARIANT
    try:
        ceiling = int(os.environ.get(var, default))
    except ValueError as exc:
        raise UsageError(exc) from exc
    if nn > ceiling:
        raise UsageError(
            f"space {text} exceeds the configured ceiling n <= {ceiling} "
            f"({'equivariant' if equivariant else 'non-equivariant'})"
        )
    return get_space(mm, nn, equivariant, use_cache)


def _parse_box_partition(space: Space, text: str, name: str) -> tuple:
    try:
        lam = parse_partition(text)
    except ValueError as exc:
        raise UsageError(exc) from exc
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
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pair_line(space: Space, u: tuple, v: tuple, v_basis: str) -> str:
    """The JSON object of the pair (u, v), as ``qk product`` prints it and
    ``qk table`` prints each line: the terms of its structure table and
    their sum, ``sum_check``, which the identity makes 1."""
    terms = structure_table(space, u, v, v_basis)
    total = sum((c for _w, _d, c in terms), space.public_scalar(space.model.zero()))
    doc = {
        "space": str(space),
        "equivariant": space.equivariant,
        "u": format_partition(u),
        "v": format_partition(v),
        "v_basis": v_basis,
        "terms": [{"w": format_partition(w), "d": d, "N": str(c)} for w, d, c in terms],
        "sum_check": str(total),
    }
    return json.dumps(doc, separators=(",", ":"))


_WORKER_ARGS = None


def _worker_init(m, n, equivariant, use_cache):
    global _WORKER_ARGS
    _WORKER_ARGS = (m, n, equivariant, use_cache)


def _worker_expand(tasks):
    """The projected classes of ``tasks`` (see :func:`projected_tasks`),
    expanded in a pool worker."""
    space = get_space(*_WORKER_ARGS)
    return [_gw_coeffs(space, d, ui, vi) for _key, d, ui, vi in tasks]


def _internal_error(exc) -> int:
    detail = " ".join(str(exc).split())
    print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
    return 4


def cmd_product(args) -> int:
    space = _parse_space(args.space, args.equivariant, not args.no_cache)
    u = _parse_box_partition(space, args.u, "u")
    v = _parse_box_partition(space, args.v, "v")
    _write_text(_pair_line(space, u, v, args.v_basis) + "\n", args.out)
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
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    space = _parse_space(args.space, args.equivariant, not args.no_cache)
    parts = space.partitions  # by (|u|, u), as partitions_in_box lists them
    # rows share most projected classes, so the pool expands each in one
    # worker; sorted by degree, every share gets its part of each Y_d
    tasks = sorted(projected_tasks(space), key=lambda task: task[1]) if args.jobs > 1 else []
    k = min(args.jobs, len(parts), len(tasks))
    if k > 1:
        # load the opposite table of X = Y_0 and of each Y_d that is not a
        # point in the parent, so the forked workers share them
        for d in range(max(space.m, space.n - space.m)):
            space.diagram(d).y.table(OPPOSITE)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=k,
            initializer=_worker_init,
            initargs=(space.m, space.n, space.equivariant, space.use_cache),
        ) as pool:
            shares = [tasks[i::k] for i in range(k)]
            for share, classes in zip(shares, pool.map(_worker_expand, shares)):
                for (key, *_), exp in zip(share, classes):
                    space.projected[key] = exp
    lines = (_pair_line(space, u, v, args.v_basis) + "\n" for u in parts for v in parts)
    _write_text("".join(lines), args.out)
    return 0


def cmd_verify(args) -> int:
    space = _parse_space(args.space, args.equivariant, not args.no_cache)
    checks = tuple(dict.fromkeys(args.checks.split(",")))
    unknown = [name for name in checks if name not in CHECKS]
    if unknown:
        raise UsageError(f"unknown checks: {','.join(map(repr, unknown))}")
    violations = verify_space(space, checks=checks)
    pairs = len(space.partitions) ** 2
    if violations:
        verdict = f"FAIL pairs={pairs} violations={len(violations)}"
    else:
        verdict = f"PASS pairs={pairs}"
    _write_text("".join(line + "\n" for line in (*violations, verdict)), args.out)
    return 1 if violations else 0


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
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the identity checks")
    _add_common(p)
    p.add_argument(
        "--checks",
        default=",".join(DEFAULT_CHECKS),
        help=f"comma list of {','.join(CHECKS)} (default %(default)s)",
    )
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse: usage errors and --help
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a broken invariant, never bad input
        return _internal_error(exc)


if __name__ == "__main__":
    sys.exit(main())
