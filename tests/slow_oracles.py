"""Slow oracles from the literature that tests check the engine against.

Everything here is deliberately naive: exhaustive enumeration, a 2x2
polynomial solve and subword summation, no memoized algebra.  The
verification strategy of the test suite rests on these routes being
independent of the localization engine, so none of this code may call into
the engine's tables: it imports only :mod:`qkcomin.laurent` and
:mod:`qkcomin.weyl` from the package, and nothing from :mod:`reference`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from qkcomin.laurent import LaurentElement
from qkcomin.weyl import FlagShape, length, min_coset_rep, reduced_word, right_mul_simple


# -- set-valued tableau rule for the classical K-ring ---------------------------


def lr_constants_setvalued(lam: tuple, mu: tuple, m: int, n: int) -> dict:
    """Structure constants of the product of two opposite classes in K(Gr(m,n)).

    Counts semistandard set-valued fillings of the two-corner skew shape
    built from lam (upper right) and mu (lower left) whose reading word is a
    lattice word; the content of the word is the target partition, and the
    sign alternates with the number of excess entries.  Constants whose
    target leaves the m x (n-m) box are discarded.
    """
    lam, mu = tuple(lam), tuple(mu)
    cols = n - m
    capacity = m * cols
    boxes = _star_shape_boxes(lam, mu)
    if not boxes:
        return {(): 1}
    if len(boxes) > capacity:
        return {}
    base_size = sum(lam) + sum(mu)
    counts: dict = {}
    nrows = max(r for r, _ in boxes) + 1
    ncols = max(c for _, c in boxes) + 1
    grid = [[None] * ncols for _ in range(nrows)]
    content = [0] * (m + 1)

    def feasible_sets(r, c):
        right = grid[r][c + 1] if c + 1 < ncols else None
        above = grid[r - 1][c] if r > 0 else None
        for subset in _subsets_cache(m):
            if right is not None and max(subset) > min(right):
                continue
            if above is not None and min(subset) <= max(above):
                continue
            yield subset

    def rec(k, filled_entries):
        if k == len(boxes):
            nu = list(content[1 : m + 1])
            while nu and nu[-1] == 0:
                nu.pop()
            if not nu or nu[0] <= cols:
                sign = -1 if (filled_entries - base_size) % 2 else 1
                key = tuple(nu)
                counts[key] = counts.get(key, 0) + sign
            return
        r, c = boxes[k]
        remaining = len(boxes) - k
        for subset in feasible_sets(r, c):
            if filled_entries + len(subset) + (remaining - 1) > capacity:
                continue
            added = []
            ok = True
            for x in sorted(subset, reverse=True):
                if x > 1 and content[x] + 1 > content[x - 1]:
                    ok = False
                    break
                content[x] += 1
                added.append(x)
            if ok:
                grid[r][c] = subset
                rec(k + 1, filled_entries + len(subset))
                grid[r][c] = None
            for x in added:
                content[x] -= 1

    rec(0, 0)
    return {nu: c for nu, c in counts.items() if c}


def stable_lr_constants(lam: tuple, mu: tuple) -> dict:
    """Box-free structure constants; rows are bounded by l(lam) + l(mu).

    Used for the oracle's internal total-sum and duality validation; the
    box form is the filter of this mapping to partitions inside the box.
    """
    rows = len(lam) + len(mu)
    cols = (lam[0] if lam else 0) + (mu[0] if mu else 0) + len(_star_shape_boxes(lam, mu))
    return lr_constants_setvalued(lam, mu, rows, rows + cols) if rows else {(): 1}


def _star_shape_boxes(lam: tuple, mu: tuple) -> list:
    """Boxes of the two-corner shape in reading order.

    Rows top to bottom; within a row, right to left, so the reading word is
    produced box by box with set elements taken in decreasing order.
    """
    shift = mu[0] if mu else 0
    boxes = []
    for r, parts in enumerate(lam):
        for c in range(shift + parts - 1, shift - 1, -1):
            boxes.append((r, c))
    for r, parts in enumerate(mu):
        for c in range(parts - 1, -1, -1):
            boxes.append((len(lam) + r, c))
    return boxes


@lru_cache(maxsize=None)
def _subsets_cache(m: int) -> tuple:
    out = []
    for r in range(1, m + 1):
        out.extend(itertools.combinations(range(1, m + 1), r))
    return tuple(out)


# -- quantum K Chevalley rule ----------------------------------------------------


def chevalley_degree_one(lam: tuple, m: int, n: int) -> dict:
    """O^(1) * O^lam in QK(Gr(m,n)), both classes opposite, as
    ``{(nu, d): coefficient}``: the i = 1 case of the Pieri rule of
    Buch-Mihalcea, *Quantum K-theory of Grassmannians*, Duke Math. J. 156
    (2011), arXiv:0810.0981, as recalled here, not copied from the paper.

    With k = n - m,
    O^(1) * O^lam = sum_mu (-1)^(|mu/lam| - 1) O^mu
                    + q * sum_nu (-1)^|nu/hat| O^nu.
    mu runs over the partitions in the m x k box with mu != lam and mu/lam
    a rook strip (no two boxes in one row or column).  The q-term is there
    only if lam contains the full hook, lam_1 = k and l(lam) = m; then
    hat = (lam_2 - 1, ..., lam_m - 1) is lam without its first row and
    column, and nu runs over the partitions in the (m-1) x (k-1) box with
    nu/hat a rook strip, nu = hat included.
    """
    k = n - m
    lam = tuple(lam) + (0,) * (m - len(lam))
    out = {}
    for mu, size in _rook_strips(lam, k):
        if size:
            out[mu, 0] = (-1) ** (size - 1)
    if lam[0] == k and lam[-1] > 0:
        for nu, size in _rook_strips(tuple(x - 1 for x in lam[1:]), k - 1):
            out[nu, 1] = (-1) ** size
    return out


def _rook_strips(lam: tuple, cols: int):
    """Each partition mu in the len(lam) x cols box with mu/lam a rook
    strip, with |mu/lam|, for lam padded with zeros to its box.  The boxes
    of a rook strip are addable corners of lam, each in its own row and
    column, so the strips are the sets of those corners."""
    corners = [
        i for i, part in enumerate(lam) if part < cols and (i == 0 or lam[i - 1] > part)
    ]
    for size in range(len(corners) + 1):
        for rows in itertools.combinations(corners, size):
            mu = list(lam)
            for i in rows:
                mu[i] += 1
            yield tuple(part for part in mu if part), size


# -- ground truth for the projective line ---------------------------------------


def givental_p1_product() -> dict:
    """The product of the two point classes on Gr(1,2), from first principles.

    Builds the pairing matrix chi(O_a * O_b) on the basis {1, [point]}, the
    quantized pairing and the three-point correlators (the degree-d two- and
    three-point invariants are all 1 for d >= 1 because the corresponding
    curve families are rational with Euler characteristic one), and solves
    the 2x2 linear system for the structure constants.  The series involved
    are geometric, so clearing one factor of (1 - q) makes every entry a
    polynomial and the solve exact.

    Returns {degree: {partition: coefficient}}.
    """
    # classical pairing chi(b_i * b_j) for basis b0 = 1, b1 = [point]
    g = [[1, 1], [1, 0]]
    # (1-q) * (g_ij + sum_{d>=1} q^d) = (1-q)*g_ij + q, as polynomials in q
    def scaled_pairing(i, j):
        c = g[i][j]
        return _poly_trim([c, 1 - c])  # c*(1-q) + q

    ghat = [[scaled_pairing(i, j) for j in range(2)] for i in range(2)]
    # (1-q) * <<P, P, b_c>>: classical term chi(P*P*b_c) = 0, plus q for d>=1
    rhs = [_poly_trim([0, 1]), _poly_trim([0, 1])]
    # solve (x, y) with x*ghat[0][c] + y*ghat[1][c] = rhs[c]
    det = _poly_sub(_poly_mul(ghat[0][0], ghat[1][1]), _poly_mul(ghat[1][0], ghat[0][1]))
    x_num = _poly_sub(_poly_mul(rhs[0], ghat[1][1]), _poly_mul(ghat[1][0], rhs[1]))
    y_num = _poly_sub(_poly_mul(ghat[0][0], rhs[1]), _poly_mul(rhs[0], ghat[0][1]))
    x = _poly_divexact(x_num, det)
    y = _poly_divexact(y_num, det)
    out: dict = {}
    for d, c in enumerate(x):
        if c:
            out.setdefault(d, {})[()] = c
    for d, c in enumerate(y):
        if c:
            out.setdefault(d, {})[(1,)] = c
    return out


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_sub(a: list, b: list) -> list:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _poly_trim(out)


def _poly_divexact(a: list, b: list) -> list:
    if not b:
        raise ZeroDivisionError
    if not a:
        return []
    out = [0] * (len(a) - len(b) + 1)
    rem = list(a)
    for k in range(len(out) - 1, -1, -1):
        if rem[k + len(b) - 1] % b[-1]:
            raise ArithmeticError("inexact division")
        c = rem[k + len(b) - 1] // b[-1]
        out[k] = c
        for i, y in enumerate(b):
            rem[k + i] -= c * y
    if any(rem):
        raise ArithmeticError("inexact division")
    return _poly_trim(out)


# -- subword restriction formula -------------------------------------------------


def subword_restriction(shape: FlagShape, w: tuple, v: tuple, chars) -> LaurentElement:
    """Restriction of an opposite Schubert class by Hecke subword summation.

    Sums over all subwords of a fixed reduced word of v whose 0-Hecke
    product is w; each position contributes the character of the negated
    prefix root.  Small ranks only.  The package builds its tables by the
    same formula, so the builder independent of both is the sweep recursion
    of :func:`reference.sweep_tables`, which the tests hold them to.
    """
    if shape.n > 4:
        raise ValueError("subword oracle is limited to small rank")
    if not (min_coset_rep(w, shape.blocks) == w and min_coset_rep(v, shape.blocks) == v):
        raise ValueError("indices must be minimal coset representatives")
    word = reduced_word(v)
    n = shape.n
    # prefix roots: beta_j = (s_{i_1}..s_{i_{j-1}})(alpha_{i_j})
    roots = []
    prefix = tuple(range(1, n + 1))
    for i in word:
        roots.append((prefix[i - 1], prefix[i]))
        prefix = right_mul_simple(prefix, i)
    one = LaurentElement.one(chars.nvars)
    states = {tuple(range(1, n + 1)): one}
    for (a, b), i in zip(roots, word):
        factor = LaurentElement.monomial(chars.nvars, chars.root_exp(b, a)) - one
        nxt = dict(states)
        for u, val in states.items():
            us = right_mul_simple(u, i)
            tgt = us if length(us) > length(u) else u
            add = val * factor
            nxt[tgt] = nxt.get(tgt, LaurentElement.zero(chars.nvars)) + add
        states = {u: val for u, val in nxt.items() if not val.is_zero()}
    val = states.get(w, LaurentElement.zero(chars.nvars))
    if length(w) % 2:
        val = -val
    return val
