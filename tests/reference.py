"""Literal references that tests compare the engine against.

The engine moves opposite Schubert classes through index maps and expands
only in the opposite basis; these helpers work on fixed-point values
instead, and expand in the plain basis by its own elimination.  The
engine builds its restriction tables by the Hecke subword formula;
:func:`sweep_tables` builds the full-torus ones by the sweep recursion
instead.  Unlike the literature oracles of :mod:`slow_oracles` they may
call :meth:`KModel.expand_values`.
"""

from bisect import insort
from functools import lru_cache

from qkcomin.gkm import OPPOSITE, PLAIN, KModel, NotInSpanError
from qkcomin.laurent import LaurentElement, NotDivisibleError, sum_elements, unpack_key
from qkcomin.quantum import Space, _gw_coeffs, euler_char_q
from qkcomin.weyl import FlagShape, image_index, length, min_coset_rep


# -- scalars and permutations --------------------------------------------------


def unit_vector(n: int, i: int) -> tuple:
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def variable(nvars: int, i: int) -> LaurentElement:
    """The variable t_i, 1-based."""
    return LaurentElement.monomial(nvars, unit_vector(nvars, i))


def permute_letters(f: LaurentElement, sigma: tuple) -> LaurentElement:
    """Apply t_i -> t_{sigma(i)} for a permutation in one-line notation."""
    assert sorted(sigma) == list(range(1, f.nvars + 1)), sigma
    return f.substitute_letters(tuple(unit_vector(f.nvars, s) for s in sigma), f.nvars)


def exponent_sums(f: LaurentElement) -> set:
    """Set of total degrees of the monomials (for lattice-invariance asserts)."""
    return {sum(unpack_key(e, f.nvars)) for e in f.terms}


def identity(n: int) -> tuple:
    return tuple(range(1, n + 1))


def inverse(w: tuple) -> tuple:
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[x - 1] = i + 1
    return tuple(out)


def compose(u: tuple, v: tuple) -> tuple:
    """(u v)(i) = u(v(i))."""
    return tuple(u[x - 1] for x in v)


def bruhat_leq(u: tuple, v: tuple) -> bool:
    """Dominance-of-sorted-prefixes criterion, O(n^2)."""
    if len(u) != len(v):
        raise ValueError("ambient sizes differ")
    n = len(u)
    su: list = []
    sv: list = []
    for k in range(n - 1):
        insort(su, u[k])
        insort(sv, v[k])
        for a, b in zip(su, sv):
            if a > b:
                return False
    return True


def longest_element(n: int) -> tuple:
    return tuple(range(n, 0, -1))


def dimension(shape: FlagShape) -> int:
    """Complex dimension: number of cross-block position pairs."""
    sizes = [len(b) for b in shape.blocks]
    return shape.n * (shape.n - 1) // 2 - sum(s * (s - 1) // 2 for s in sizes)


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


def max_coset_rep(w: tuple, blocks: tuple) -> tuple:
    """Unique longest element of w W_P: reverse-sort within position blocks."""
    out = []
    for b in blocks:
        out.extend(sorted((w[p - 1] for p in b), reverse=True))
    return tuple(out)


def preimage_index_plain(w: tuple, dst: FlagShape, src: FlagShape) -> tuple:
    """Index on the source of the full preimage of X_w (B-stable side)."""
    if not src.projects_to(dst):
        raise ValueError(f"{src} does not project to {dst}")
    return min_coset_rep(max_coset_rep(w, dst.blocks), src.blocks)


def left_mul_simple(w: tuple, i: int) -> tuple:
    """s_i w: exchange the values i and i+1 wherever they sit."""
    return tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)


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


# -- the sweep recursion ---------------------------------------------------------
#
# On the full torus the B-stable (plain) Schubert classes are generated by
# one sweep recursion, upward from the point class of the identity coset:
# sweeping a Borel orbit closure by the minimal parabolic P_i corresponds on
# fixed-point functions to the operator
#
#     (A_i f)(v) = (f(v) - e * s_i(f(v'))) / (1 - e),
#
# where v' is the coset of s_i v, s_i acts on the scalars by exchanging the
# characters t_i and t_{i+1}, and e is the character of the simple root.
# The division is always exact; a failed division signals a convention bug
# and aborts loudly.


def identity_point_row(model: KModel) -> tuple:
    """Localization of the structure sheaf of the identity coset, index 0."""
    chars = model.chars
    val = LaurentElement.one(chars.nvars)
    blocks = model.shape.blocks
    for bi in range(len(blocks)):
        for bj in range(bi + 1, len(blocks)):
            for i in blocks[bi]:
                for j in blocks[bj]:
                    binom = LaurentElement.one(chars.nvars) - LaurentElement.monomial(
                        chars.nvars, chars.root_exp(i, j)
                    )
                    val = val * binom
    return (val,) + (LaurentElement.zero(chars.nvars),) * (model.npoints - 1)


def plain_rows(model: KModel) -> list:
    """Full-torus rows of the plain table, in index order.

    The sweep starts from the point class of the identity coset, index
    0, and goes up: points are sorted by length, so the parent of each
    row, one simple reflection lower, is built before it.
    ``left[i - 1][p]`` is the index of s_i times the point p and whether
    that raises (+1), lowers (-1) or keeps (0) its length.
    """
    blocks = model.shape.blocks
    left = []
    for i in range(1, model.shape.n):
        acts = (left_action_on_minrep(w, i, blocks) for w in model.points)
        left.append([(model.idx[m], case) for m, case in acts])
    rows = [identity_point_row(model)]
    for p in range(1, model.npoints):
        i = next(i for i in range(1, model.shape.n) if left[i - 1][p][1] == -1)
        rows.append(sweep_row(model, rows[left[i - 1][p][0]], i, left[i - 1]))
    return rows


def sweep_row(model: KModel, row: tuple, i: int, left_i: list) -> tuple:
    mexp = model.chars.root_exp(i, i + 1)
    mono = LaurentElement.monomial(model.chars.nvars, mexp)
    out = [None] * model.npoints
    for p in range(model.npoints):
        p2, _ = left_i[p]
        g = row[p] - mono * row[p2].swap_letters(i)
        out[p] = g.divide_exact_one_minus(mexp)
    return tuple(out)


def sweep_tables(model: KModel) -> dict:
    """Both tables of a full-torus model by orientation: the plain rows of
    the sweep and their translate by the longest element."""
    plain = plain_rows(model)
    return {PLAIN: plain, OPPOSITE: model._w0_translate(plain)}


# -- classes as fixed-point values ---------------------------------------------


def is_unit(values) -> bool:
    return all(x == 1 for x in values)


def euler_char(model: KModel, values):
    """Pushforward to the point: sum of the opposite-basis coefficients."""
    total = model.zero()
    for c in model.expand_values(values).values():
        total = total + c
    return total


def diag_factor_exps(model: KModel, widx: int, orientation: str) -> tuple:
    """Binomial factors 1 - t^e of the diagonal restriction at the index.

    Plain classes: cross-block non-inversions; opposite classes:
    cross-block inversions (the normal directions of the respective cell).
    """
    if orientation == OPPOSITE:
        return model.diag_factor_exps(widx)
    w = model.points[widx]
    return tuple(
        model.chars.root_exp(w[i - 1], w[j - 1])
        for bi, block in enumerate(model.shape.blocks)
        for later in model.shape.blocks[bi + 1:]
        for i in block
        for j in later
        if w[i - 1] < w[j - 1]
    )


def expand_plain(model: KModel, values) -> dict:
    """Coefficients of a localized class in the plain Schubert basis.

    The literal elimination, independent of :meth:`KModel.expand_values`:
    indices in descending length, each residual divided by the
    non-inversion factors of the plain diagonal.
    """
    table = model.table(PLAIN)
    residual = list(values)
    coeffs = {}
    for widx in sorted(range(model.npoints), key=lambda p: model.lengths[p], reverse=True):
        c = residual[widx]
        if c.is_zero():
            continue
        try:
            for mexp in diag_factor_exps(model, widx, PLAIN):
                c = c.divide_exact_one_minus(mexp)
        except NotDivisibleError as exc:
            raise NotInSpanError("not in the scalar span of Schubert classes") from exc
        coeffs[widx] = c
        residual = [acc - c * rv for acc, rv in zip(residual, table[widx])]
    if any(not v.is_zero() for v in residual):
        raise NotInSpanError("not in the scalar span of Schubert classes")
    return coeffs


def expand(model: KModel, values, orientation: str) -> dict:
    """Coefficients in the basis of the orientation: by the engine in the
    opposite basis, by :func:`expand_plain` in the plain one."""
    return expand_plain(model, values) if orientation == PLAIN else model.expand_values(values)


@lru_cache(maxsize=None)
def gkm_edges(model: KModel) -> tuple:
    """Pairs of fixed points on a common one-dimensional orbit, with root."""
    n = model.shape.n
    edges = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for p, w in enumerate(model.points):
                moved = tuple(b if x == a else a if x == b else x for x in w)
                q = model.idx[min_coset_rep(moved, model.shape.blocks)]
                if q > p:
                    edges.append((p, q, model.chars.root_exp(a, b)))
    return tuple(edges)


def gkm_check(model: KModel, values) -> bool:
    """The edge condition: 1 - t^root divides the difference along each edge."""
    try:
        for p, q, mexp in gkm_edges(model):
            (values[p] - values[q]).divide_exact_one_minus(mexp)
    except NotDivisibleError:
        return False
    return True


def pullback(values: tuple, dst: KModel, src: KModel) -> tuple:
    """Precompose a class on ``dst`` with the coset projection from ``src``."""
    assert src.shape.projects_to(dst.shape)
    return tuple(values[dst.idx[min_coset_rep(v, dst.shape.blocks)]] for v in src.points)


def pushforward(values: tuple, src: KModel, dst: KModel, orientation: str = PLAIN) -> tuple:
    """Transport basis-wise: expand, map each index to its image, recombine."""
    out: dict = {}
    for widx, c in expand(src, values, orientation).items():
        tid = dst.idx[image_index(src.points[widx], src.shape, dst.shape)]
        out[tid] = out.get(tid, dst.zero()) + c
    return dst.recombine(out, orientation)


def projected_class(space: Space, u: tuple, v: tuple, d: int) -> tuple:
    """Values on X of the class of degree-d curves meeting the opposite
    variety of u and the B-stable variety of v.

    By bilinearity it is the combination, with the coefficients of the
    opposite-basis expansion of O_v, of the classes the engine builds for
    two opposite classes.
    """
    xm, dg = space.model, space.diagram(d)
    ui = space.index_of(u)
    out = xm.zero_values()
    for x, beta in xm.basis_change()[space.index_of(v)].items():
        key = (dg.y.shape, *sorted((dg.to_y[ui], dg.to_y[x])))
        values = xm.recombine(_gw_coeffs(space, d, key), OPPOSITE)
        out = tuple(acc + beta * c for acc, c in zip(out, values))
    return out


def basis_element(space: Space, lam: tuple, degree: int = 0) -> dict:
    """q^degree times the opposite class of lam, in the form of a product."""
    return {degree: {space.index_of(lam): space.model.one()}}


def euler_char_total(space: Space, product: dict) -> LaurentElement:
    """Euler characteristic with q set to 1."""
    return sum_elements(space.chars.nvars, euler_char_q(space, product).values())


def all_pairs(space: Space) -> list:
    """Every pair (u, v) of partitions in the box, row by row."""
    parts = space.partitions
    return [(u, v) for u in parts for v in parts]
