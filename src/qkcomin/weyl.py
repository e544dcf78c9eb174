"""Symmetric-group and parabolic-coset combinatorics for type-A flag varieties.

Permutations are tuples in one-line notation with values 1..n.  A parabolic
subgroup is described either by the set of simple-reflection indices it
contains, or equivalently by the flag shape whose dimension steps are the
complementary indices; both induce the same partition of positions 1..n
into consecutive blocks.

>>> length((1, 3, 2, 4))
1
>>> partition_to_minrep((1,), 2, 4)
(1, 3, 2, 4)
>>> minrep_to_partition((3, 4, 1, 2), 2, 4)
(2, 2)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache


# -- plain permutation calculus ----------------------------------------------


def length(w: tuple) -> int:
    """Number of inversions."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def left_mul_simple(w: tuple, i: int) -> tuple:
    """s_i w: exchange the values i and i+1 wherever they sit."""
    return tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)


def right_mul_simple(w: tuple, i: int) -> tuple:
    """w s_i: exchange positions i and i+1 (1-based)."""
    lw = list(w)
    lw[i - 1], lw[i] = lw[i], lw[i - 1]
    return tuple(lw)


def w0_conjugate_value(w: tuple) -> tuple:
    """One-line notation of w0 w, i.e. values x -> n+1-x."""
    n = len(w)
    return tuple(n + 1 - x for x in w)


def bruhat_leq(u: tuple, v: tuple) -> bool:
    """Dominance-of-sorted-prefixes criterion, O(n^2)."""
    if len(u) != len(v):
        raise ValueError("ambient sizes differ")
    n = len(u)
    su: list = []
    sv: list = []
    for k in range(n - 1):
        _insort(su, u[k])
        _insort(sv, v[k])
        for a, b in zip(su, sv):
            if a > b:
                return False
    return True


def _insort(xs: list, x: int) -> None:
    lo, hi = 0, len(xs)
    while lo < hi:
        mid = (lo + hi) // 2
        if xs[mid] < x:
            lo = mid + 1
        else:
            hi = mid
    xs.insert(lo, x)


def reduced_word(w: tuple) -> tuple:
    """Canonical reduced word: repeatedly remove the smallest right descent."""
    word = []
    lw = list(w)
    n = len(lw)
    moved = True
    while moved:
        moved = False
        for i in range(n - 1):
            if lw[i] > lw[i + 1]:
                lw[i], lw[i + 1] = lw[i + 1], lw[i]
                word.append(i + 1)
                moved = True
                break
    word.reverse()
    return tuple(word)


# -- parabolic subgroups and flag shapes --------------------------------------


def parabolic_blocks(indices: frozenset, n: int) -> tuple:
    """Position blocks 1..n cut by the simple indices NOT in the parabolic.

    The subgroup generated by {s_i : i in indices} permutes positions within
    maximal runs of consecutive members of ``indices``.
    """
    blocks = []
    start = 1
    for i in range(1, n):
        if i not in indices:
            blocks.append(tuple(range(start, i + 1)))
            start = i + 1
    blocks.append(tuple(range(start, n + 1)))
    return tuple(blocks)


@dataclass(frozen=True)
class FlagShape:
    """A partial flag variety Fl(a_1 < ... < a_k; n); k = 0 is a point."""

    dims: tuple
    n: int

    def __post_init__(self):
        if list(self.dims) != sorted(set(self.dims)):
            raise ValueError("dims must be strictly increasing")
        if self.dims and not (0 < self.dims[0] and self.dims[-1] <= self.n):
            raise ValueError("dims out of range")
        if self.dims and self.dims[-1] == self.n:
            raise ValueError("trailing dim n is degenerate; drop it")

    @staticmethod
    def make(dims, n) -> "FlagShape":
        """Normalize: drop 0 and n, deduplicate, sort."""
        kept = sorted({d for d in dims if 0 < d < n})
        return FlagShape(tuple(kept), n)

    @cached_property
    def parabolic(self) -> frozenset:
        return frozenset(range(1, self.n)) - set(self.dims)

    @cached_property
    def blocks(self) -> tuple:
        return parabolic_blocks(self.parabolic, self.n)

    def projects_to(self, other: "FlagShape") -> bool:
        """True when forgetting flag steps maps this shape onto ``other``."""
        return self.n == other.n and set(other.dims) <= set(self.dims)

    def __str__(self):
        return f"Fl({','.join(map(str, self.dims))};{self.n})"


def min_coset_rep(w: tuple, blocks: tuple) -> tuple:
    """Unique shortest element of w W_P: sort values within position blocks."""
    out = []
    for b in blocks:
        out.extend(sorted(w[p - 1] for p in b))
    return tuple(out)


def is_minrep(w: tuple, blocks: tuple) -> bool:
    return all(
        w[b[i] - 1] < w[b[i + 1] - 1] for b in blocks for i in range(len(b) - 1)
    )


@lru_cache(maxsize=None)
def coset_minreps(shape: FlagShape) -> tuple:
    """All minimal coset representatives, sorted by (length, one-line)."""
    sizes = [len(b) for b in shape.blocks]
    universe = frozenset(range(1, shape.n + 1))
    partial = [((), universe)]
    for s in sizes:
        nxt = []
        for acc, remaining in partial:
            for combo in itertools.combinations(sorted(remaining), s):
                nxt.append((acc + combo, remaining - set(combo)))
        partial = nxt
    reps = [acc for acc, _ in partial]
    reps.sort(key=lambda w: (length(w), w))
    return tuple(reps)


def left_action_on_minrep(w: tuple, i: int, blocks: tuple) -> tuple:
    """Left multiplication by s_i on the coset of a minimal representative.

    Returns (minrep', case) with case +1 (raises length), -1 (lowers), or
    0 (coset fixed).
    """
    sw = left_mul_simple(w, i)
    m = min_coset_rep(sw, blocks)
    if m == w:
        return w, 0
    return m, 1 if length(m) > length(w) else -1


# -- partition dictionary for Grassmannians -----------------------------------


def partitions_in_box(rows: int, cols: int) -> tuple:
    """All partitions with at most ``rows`` parts each at most ``cols``,
    sorted by (size, lex)."""
    out = [()]
    stack = [((), cols)]
    while stack:
        base, limit = stack.pop()
        if len(base) == rows:
            continue
        for part in range(1, limit + 1):
            lam = base + (part,)
            out.append(lam)
            stack.append((lam, part))
    out.sort(key=lambda lam: (sum(lam), lam))
    return tuple(out)


def partition_to_minrep(lam: tuple, m: int, n: int) -> tuple:
    """Grassmannian permutation for a partition in the m x (n-m) box."""
    lam = tuple(lam)
    if len(lam) > m or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"{lam} is not a partition with at most {m} parts")
    if lam and lam[0] > n - m:
        raise ValueError(f"{lam} does not fit in the {m}x{n - m} box")
    if any(x < 0 for x in lam):
        raise ValueError("negative parts")
    padded = lam + (0,) * (m - len(lam))
    first = sorted(padded[m - 1 - i] + i + 1 for i in range(m))
    rest = sorted(set(range(1, n + 1)) - set(first))
    return tuple(first + rest)


def minrep_to_partition(w: tuple, m: int, n: int) -> tuple:
    first = sorted(w[:m])
    lam = tuple(first[m - 1 - i] - (m - i) for i in range(m))
    return tuple(x for x in lam if x)


def partition_to_subset(lam: tuple, m: int) -> tuple:
    padded = tuple(lam) + (0,) * (m - len(lam))
    return tuple(sorted(padded[m - 1 - i] + i + 1 for i in range(m)))


def partition_contains(inner: tuple, outer: tuple) -> bool:
    if len(inner) > len(outer):
        return False
    return all(a <= b for a, b in zip(inner, outer))


def format_partition(lam: tuple) -> str:
    return ",".join(map(str, lam))


def parse_partition(text: str) -> tuple:
    s = text.strip()
    if not s:
        return ()
    try:
        parts = tuple(int(p) for p in s.split(","))
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}") from exc
    if any(p <= 0 for p in parts) or any(
        parts[i] < parts[i + 1] for i in range(len(parts) - 1)
    ):
        raise ValueError(f"bad partition {text!r}")
    return parts


# -- Schubert index transport along projections --------------------------------


def dual_index(w: tuple, shape: FlagShape) -> tuple:
    """Index of the opposite translate: minimal representative of w0 w."""
    return min_coset_rep(w0_conjugate_value(w), shape.blocks)


def image_index(w: tuple, src: FlagShape, dst: FlagShape) -> tuple:
    """Index on the target of the image of a Schubert variety.

    The same rule serves both orientations: the image of a Borel orbit
    closure through w is the orbit closure through the minimal
    representative of w modulo the larger parabolic.
    """
    if not src.projects_to(dst):
        raise ValueError(f"{src} does not project to {dst}")
    return min_coset_rep(w, dst.blocks)
