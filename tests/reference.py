"""Literal references that tests compare the engine against.

The engine moves Schubert classes through index maps and expands only in
the opposite basis; these helpers work on fixed-point values instead, and
expand in the plain basis by its own elimination.  Unlike
:mod:`qkcomin.oracles` they may call :meth:`KModel.expand_values`.
"""

from functools import lru_cache

from qkcomin.gkm import OPPOSITE, PLAIN, KModel, NotInSpanError
from qkcomin.laurent import LaurentElement, NotDivisibleError, _unpack
from qkcomin.quantum import QKElement, Space, _gw_coeffs
from qkcomin.weyl import FlagShape, image_index, min_coset_rep


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
    return {sum(_unpack(e, f.nvars)) for e in f.terms}


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


def longest_element(n: int) -> tuple:
    return tuple(range(n, 0, -1))


def dimension(shape: FlagShape) -> int:
    """Complex dimension: number of cross-block position pairs."""
    sizes = [len(b) for b in shape.blocks]
    return shape.n * (shape.n - 1) // 2 - sum(s * (s - 1) // 2 for s in sizes)


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
        for bi, block in enumerate(model.blocks)
        for later in model.blocks[bi + 1:]
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
                q = model.idx[min_coset_rep(moved, model.blocks)]
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
    return tuple(values[dst.idx[min_coset_rep(v, dst.blocks)]] for v in src.points)


def pushforward(values: tuple, src: KModel, dst: KModel, orientation: str = PLAIN) -> tuple:
    """Transport basis-wise: expand, map each index to its image, recombine."""
    out: dict = {}
    for widx, c in expand(src, values, orientation).items():
        tid = dst.idx[image_index(src.points[widx], src.shape, dst.shape)]
        out[tid] = out.get(tid, dst.zero()) + c
    return dst.recombine(out, orientation)


def projected_class(space: Space, u: tuple, v: tuple, d: int) -> tuple:
    """Values on X of the class of degree-d curves meeting both varieties."""
    coeffs = _gw_coeffs(space, d, space.index_of(u), space.index_of(v))
    return space.model.recombine(coeffs, OPPOSITE)


def basis_element(space: Space, lam: tuple, degree: int = 0) -> QKElement:
    return QKElement(space, {degree: {space.index_of(lam): space.model.one()}})
