"""The quantum product on a type-A Grassmannian, built from curve neighborhoods.

For X = Gr(m,n) and a degree d, curves of degree d through X are encoded by
an incidence diagram of auxiliary flag varieties: Y_d records the kernel
and span dimensions a = max(m-d, 0), b = min(m+d, n), and T_d = Fl(a,m,b;n)
sits over both X and Y_d.  Pulling back to T_d and pushing forward takes an
opposite Schubert class to an opposite Schubert class, so each space keeps
the diagram of one degree as maps of opposite Schubert indices
(:class:`Diagram`): X to Y_d, Y_d to X, and the curve neighborhood index
lambda(-d) of every class, which is its round trip X -> Y_d -> X.

The degree-d class of two classes a and b of X is the product on Y_d of
the two classes moved there, moved back to X: (T_d -> X)_* (T_d -> Y_d)^*
(a_d * b_d).  It is bilinear over the scalars (Buch-Mihalcea, "quantum =
classical"), so it is built for two opposite classes only: their product
on Y_d is expanded there in the opposite basis, the only heavy step
(:meth:`KModel.expand_product`, packed in z mode), and each basis class is
moved back to X through the index map.  The class of two opposite classes
does not depend on their order, so it is kept once per unordered pair,
and mirrored on disk in one file per space and scalar mode
(:func:`load_projected`, :func:`store_projected`).

The generating series of these classes over all degrees is eventually the
unit class; applying (1 - q * shift), where the shift substitutes each
opposite Schubert index by its degree-one neighborhood index, telescopes
the series into the finite quantum product of two opposite classes, the
one product a space keeps (``Space.products``).  A product with a plain
(B-stable) class is, by bilinearity, that product applied to the
opposite-basis expansion of the plain class on X
(:meth:`KModel.basis_change`), the one place the plain basis appears.
Such sums of scaled products are built by :func:`_combine`: on the full
torus as LaurentElements, and in z mode by :func:`_combine_packed` on
Kronecker-packed coefficients, each with its own low exponent and L1
bound, widened until the bounds prove the sums exact (the packing of
:mod:`qkcomin.gkm`); the change of basis is packed once per width.

A product is handed out as its structure constants, ``{d: {w: c}}``: w an
opposite index on X and c a scalar, with no zero scalar and no empty
degree.  A structure table reads that dict as its sorted terms ``(w, d, c)``
with public scalars, and the sheaf Euler characteristic chi_q reads it
as it is; a verify is the list of the violation lines its checks
find, row by row.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache

from qkcomin import cache as diskcache
from qkcomin import gkm
from qkcomin.gkm import (
    OPPOSITE,
    PLAIN,
    CharacterMap,
    KModel,
    equivariant_chars,
    zspec_chars,
)
from qkcomin.laurent import (
    LaurentElement,
    kronecker_pack,
    kronecker_unpack,
    sum_elements,
)
from qkcomin.weyl import (
    FlagShape,
    image_index,
    minrep_to_partition,
    partition_contains,
    partition_to_minrep,
    partitions_in_box,
    format_partition,
)


class Space:
    """A Grassmannian Gr(m,n) together with the scalar mode of computation.

    A space owns every piece of engine state: the localization models of X
    and of the auxiliary flag varieties, the index diagram of each degree
    and the memo tables of its products.  They live as long as the space
    does (see :func:`get_space`).  Spaces compare by identity.
    """

    def __init__(self, m: int, n: int, equivariant: bool = False, use_cache: bool = True):
        if not 0 < m < n:
            raise ValueError("need 0 < m < n")
        self.m = m
        self.n = n
        self.equivariant = equivariant
        self.use_cache = use_cache
        # FlagShape -> KModel of X or of an auxiliary flag variety
        self.models: dict = {}
        # degree d -> Diagram of Y_d <- T_d -> X
        self.diagrams: dict = {}
        # (Y_d shape, a, b) with a <= b, the two opposite indices on Y_d ->
        # opposite-basis coefficients on X of the projected class, shared
        # across every (u, v, d) that lands there
        self.projected: dict = {}
        # (a, b, bits) with a <= b, two opposite indices on X -> the product
        # of the two classes by degree: LaurentElement coefficients at bits
        # 0, each packed (lo, value, l1) at bits-bit digits otherwise (z mode)
        self.products: dict = {}

    @cached_property
    def shape(self) -> FlagShape:
        return FlagShape((self.m,), self.n)

    @property
    def chars(self) -> CharacterMap:
        return equivariant_chars(self.n) if self.equivariant else zspec_chars(self.n)

    @cached_property
    def model(self) -> KModel:
        return self.submodel(self.shape)

    @cached_property
    def partitions(self) -> tuple:
        return partitions_in_box(self.m, self.n - self.m)

    @cached_property
    def _partition_by_index(self) -> tuple:
        return tuple(minrep_to_partition(w, self.m, self.n) for w in self.model.points)

    @cached_property
    def _index_by_partition(self) -> dict:
        return {lam: k for k, lam in enumerate(self._partition_by_index)}

    def index_of(self, lam: tuple) -> int:
        hit = self._index_by_partition.get(tuple(lam))
        if hit is None:  # outside the box, which raises, or not in normal form
            hit = self.model.idx[partition_to_minrep(lam, self.m, self.n)]
        return hit

    def partition_of(self, idx: int) -> tuple:
        return self._partition_by_index[idx]

    def submodel(self, shape: FlagShape) -> KModel:
        model = self.models.get(shape)
        if model is None:
            model = self.models[shape] = KModel(shape, self.chars, self.use_cache)
        return model

    def diagram(self, d: int) -> Diagram:
        """The index maps of the degree-d diagram, built once."""
        hit = self.diagrams.get(d)
        if hit is None:
            hit = self.diagrams[d] = _build_diagram(self, d)
        return hit

    def public_scalar(self, c: LaurentElement) -> LaurentElement:
        """Output form of a scalar: specialized to integers non-equivariantly."""
        if self.equivariant:
            return c
        return LaurentElement.integer(0, c.specialize_ones())

    def __repr__(self):
        return (
            f"Space(m={self.m!r}, n={self.n!r}, equivariant={self.equivariant!r}, "
            f"use_cache={self.use_cache!r})"
        )

    def __str__(self):
        return f"gr:{self.m},{self.n}"


@lru_cache(maxsize=None)
def get_space(m: int, n: int, equivariant: bool = False, use_cache: bool = True) -> Space:
    """Shared Space instances, so models and memos persist across callers."""
    return Space(m, n, equivariant, use_cache)


def diameter(space: Space) -> int:
    """Smallest d with every point-to-point curve neighborhood equal to X."""
    return min(space.m, space.n - space.m)


def point_degree(space: Space) -> int:
    """Smallest d with Y_d a point: its kernel is 0 and its span is C^n."""
    return max(space.m, space.n - space.m)


def kernel_span_shapes(space: Space, d: int) -> tuple:
    """The auxiliary shapes (Y_d, T_d) parametrizing degree-d curves."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    a = max(space.m - d, 0)
    b = min(space.m + d, space.n)
    y = FlagShape.make((a, b), space.n)
    t = FlagShape.make((a, space.m, b), space.n)
    return y, t


# -- the diagram Y_d <- T_d -> X as index maps -----------------------------------


class Diagram(namedtuple("Diagram", "y to_y from_y neighborhood")):
    """The diagram Y_d <- T_d -> X of one degree, on opposite Schubert indices.

    ``to_y[i]`` indexes on Y_d the opposite class of X index i moved along
    the diagram; ``from_y[j]`` indexes on X the opposite class of Y_d index
    j moved the other way; ``neighborhood[i]`` indexes on X the degree-d
    curve neighborhood of the class i, its round trip.

    Pulling back keeps the index, since pullback preserves codimension, and
    pushing forward takes the image index.  Plain classes are never moved:
    by bilinearity a product with one is a combination of products of
    opposite classes.
    """


def _build_diagram(space: Space, d: int) -> Diagram:
    y, t = kernel_span_shapes(space, d)
    xm, my = space.model, space.submodel(y)

    def move(src, dst):
        return tuple(dst.idx[image_index(w, t, dst.shape)] for w in src.points)

    to_y = move(xm, my)
    from_y = move(my, xm)
    return Diagram(y=my, to_y=to_y, from_y=from_y, neighborhood=tuple(from_y[j] for j in to_y))


def _move(exp: dict, index_map: tuple) -> dict:
    """Scalar-linear substitution of basis indices through an index map."""
    out: dict = {}
    for widx, c in exp.items():
        tgt = index_map[widx]
        acc = out.get(tgt)
        out[tgt] = c if acc is None else acc + c
    return {k: c for k, c in out.items() if not c.is_zero()}


def curve_neighborhood_index(space: Space, lam: tuple, d: int) -> tuple:
    """The index lam(-d) of the degree-d neighborhood of an opposite variety."""
    return space.partition_of(space.diagram(d).neighborhood[space.index_of(lam)])


def dist(space: Space, u: tuple, v: tuple) -> int:
    """Smallest degree whose curve neighborhood of one variety meets the other."""
    space.index_of(v)  # raises for a v outside the box, as for u
    d = 0
    while not partition_contains(curve_neighborhood_index(space, u, d), v):
        d += 1
        if d > diameter(space):
            raise AssertionError("distance exceeded the diameter")
    return d


# -- projected classes and the degree series -------------------------------------


def _gw_coeffs(space: Space, d: int, key: tuple) -> dict:
    """Opposite-basis coefficients on X of the degree-d projected class of
    ``key``, (Y_d shape, a, b) as :func:`_series_degrees` gives it.

    The opposite classes of Y_d indices a and b are multiplied there and
    the product is expanded on Y_d in the opposite basis; each basis class
    of the expansion is moved back to X.
    """
    out = space.projected.get(key)
    if out is None:
        dg = space.diagram(d)
        _shape, a, b = key
        out = space.projected[key] = _move(dg.y.expand_product(a, b), dg.from_y)
    return out


def _series_degrees(space: Space, ui: int, vi: int):
    """The degrees of the series of the opposite classes of X indices ui
    and vi, each as (d, key) with key the ``space.projected`` key of its
    class, (Y_d shape, a, b).

    The walk stops at the first degree where both classes move to the unit
    class of Y_d, from which on the projected class is the unit; the index
    maps show it before any expansion.
    """
    d = 0
    while True:
        dg = space.diagram(d)
        a, b = sorted((dg.to_y[ui], dg.to_y[vi]))
        if dg.y.lengths[a] == 0 and dg.y.lengths[b] == 0:
            return
        yield d, (dg.y.shape, a, b)
        d += 1
        if d > point_degree(space) + 1:
            raise AssertionError("series did not stabilize")


def gw_series(space: Space, u: tuple, v: tuple) -> tuple:
    """Degree series of the projected classes of two opposite classes, as
    its heads.

    The degree-d class has opposite-basis coefficients heads[d] below
    D = len(heads), and is the unit class from D on; D is minimal.
    """
    ui, vi = space.index_of(u), space.index_of(v)
    unit = {0: space.model.one()}
    heads = [_gw_coeffs(space, d, key) for d, key in _series_degrees(space, ui, vi)]
    while heads and heads[-1] == unit:
        heads.pop()
    return tuple(heads)


def projected_tasks(space: Space) -> list:
    """Every projected class the products of the space read and
    ``space.projected`` lacks, once per key, as (key, d): the class of
    degree d of :func:`_gw_coeffs`, over all unordered pairs of X indices."""
    tasks: dict = {}
    npoints = len(space.partitions)
    for ui in range(npoints):
        for vi in range(ui, npoints):
            for d, key in _series_degrees(space, ui, vi):
                if key not in space.projected:
                    tasks.setdefault(key, d)
    return list(tasks.items())


# -- projected classes on disk ------------------------------------------------------


def _projected_key(space: Space) -> str:
    return f"space={space.m};{space.n}|chars={space.chars.key}"


def load_projected(space: Space) -> int:
    """Add the projected classes of the space's disk file to
    ``space.projected``; the number of classes the file holds, 0 when it is
    missing, corrupt or a misfit (or the space keeps no disk cache)."""
    if not space.use_cache:
        return 0
    ys = {}  # the dims of each Y_d -> (its shape, its number of points)
    for d in range(point_degree(space) + 2):
        y = kernel_span_shapes(space, d)[0]
        ys[y.dims] = (y, space.submodel(y).npoints)
    classes = diskcache.load_classes(
        _projected_key(space), ys, space.model.npoints, space.chars.nvars
    )
    if classes is None:
        return 0
    for key, exp in classes.items():
        space.projected.setdefault(key, exp)
    return len(classes)


def store_projected(space: Space, known: int) -> None:
    """Write ``space.projected`` to the space's disk file if it holds more
    classes than ``known``, the count :func:`load_projected` returned."""
    if space.use_cache and len(space.projected) > known:
        diskcache.store_classes(_projected_key(space), space.projected)


# -- the shift endomorphism and the product ----------------------------------------


def shift_expansion(space: Space, exp: dict) -> dict:
    """Scalar-linear substitution O^w -> O^{w(-1)} on an opposite expansion."""
    return _move(exp, space.diagram(1).neighborhood)


def _opposite_product(space: Space, a: int, b: int, bits: int = 0) -> dict:
    """The product of the opposite classes of X indices a and b, by degree;
    memoized in ``space.products`` per unordered pair and width.

    With ``bits`` 0 the coefficients are LaurentElements: (1 - q * shift)
    applied to the degree series, so the degree-d coefficient is the class
    of degree d minus the shifted class of degree d - 1.  The shift fixes
    the unit class, so every degree beyond the D heads of the series
    cancels and the product is a polynomial in q of degree at most D.
    Otherwise (z mode) it is that product with each coefficient packed
    (lo, value, l1) at ``bits``-bit digits.
    """
    if b < a:
        a, b = b, a
    hit = space.products.get((a, b, bits))
    if hit is None:
        hit = space.products.get((a, b, 0))
        if hit is None:
            series = gw_series(space, space.partition_of(a), space.partition_of(b))
            series += ({0: space.model.one()},)
            hit = {}
            for d, cur in enumerate(series):
                cur = dict(cur)
                if d:
                    for w, c in shift_expansion(space, series[d - 1]).items():
                        acc = cur.get(w)
                        cur[w] = -c if acc is None else acc - c
                cur = {w: c for w, c in cur.items() if not c.is_zero()}
                if cur:
                    hit[d] = cur
            space.products[a, b, 0] = hit
        if bits:
            hit = space.products[a, b, bits] = {
                d: {w: kronecker_pack(c, bits) for w, c in exp.items()}
                for d, exp in hit.items()
            }
    return hit


def quantum_product_opposite_v(space: Space, u: tuple, v: tuple) -> dict:
    """The product of two opposite classes: its shared entry of
    ``space.products``, to be read, never changed."""
    return _opposite_product(space, space.index_of(u), space.index_of(v))


def _combine(space: Space, terms: list, packed_scales) -> dict:
    """The sum of scale * q^shift * (O^a star O^b) over the terms
    (scale, a, b, shift), with a and b opposite indices on X, with no zero
    coefficient and no empty degree.

    The scalar mode is read once: the degree buckets of opposite
    coefficients sum LaurentElements on the full torus, and are summed
    packed in z mode (:func:`_combine_packed`), the scales at W-bit
    digits as ``packed_scales(W)`` gives them, in the order of the terms.
    """
    if space.equivariant:
        total: dict = {}
        for scale, a, b, shift in terms:
            for d, exp in _opposite_product(space, a, b).items():
                bucket = total.setdefault(d + shift, {})
                for w, c in exp.items():
                    acc = bucket.get(w)
                    prod = scale * c
                    bucket[w] = prod if acc is None else acc + prod
    else:
        total = _combine_packed(space, terms, packed_scales)
    coeffs: dict = {}
    for d, bucket in total.items():
        exp = {w: c for w, c in bucket.items() if not c.is_zero()}
        if exp:
            coeffs[d] = exp
    return coeffs


def _combine_packed(space: Space, terms: list, packed_scales) -> dict:
    """The degree buckets of :func:`_combine` in z mode, summed on
    Kronecker-packed coefficients, each nonzero one unpacked once.

    Every scale, coefficient and bucket is packed (lo, value, l1) at W
    bits per digit: a product adds the lows and multiplies the values and
    the bounds, and a sum shifts the value of the higher low up to the
    lower one and adds the bounds, so each bucket keeps its own low.  The
    sum runs at W = ``gkm.PACK_BITS`` and reruns at 2W while a bucket's L1
    bound reaches 2^(W-1).  Every bound is then below half the base, so a
    zero value is the zero polynomial and the balanced digits of a nonzero
    one are its coefficients (the :mod:`qkcomin.gkm` docstring).  The
    change of basis is packed once per width and kept
    (:meth:`KModel.packed_basis_change`).
    """
    bits = gkm.PACK_BITS
    while True:
        total: dict = {}
        for (slo, sval, sl1), (_scale, a, b, shift) in zip(packed_scales(bits), terms):
            for d, exp in _opposite_product(space, a, b, bits).items():
                bucket = total.setdefault(d + shift, {})
                for w, (clo, cval, cl1) in exp.items():
                    lo, val, l1 = slo + clo, sval * cval, sl1 * cl1
                    acc = bucket.get(w)
                    if acc is not None:
                        alo, aval, al1 = acc
                        if lo >= alo:
                            val = aval + (val << (bits * (lo - alo)))
                            lo = alo
                        else:
                            val = (aval << (bits * (alo - lo))) + val
                        l1 += al1
                    bucket[w] = (lo, val, l1)
        if all(l1 < 1 << (bits - 1) for bucket in total.values() for _, _, l1 in bucket.values()):
            return {
                d: {w: kronecker_unpack(lo, v, bits)[0] for w, (lo, v, _) in bucket.items() if v}
                for d, bucket in total.items()
            }
        bits *= 2


def quantum_product(space: Space, u: tuple, v: tuple) -> dict:
    """The product of the opposite class of u and the B-stable class of v:
    the products of O^u with the opposite classes of the expansion of O_v."""
    ui, vi = space.index_of(u), space.index_of(v)
    xm = space.model
    terms = [(beta, ui, x, 0) for x, beta in xm.basis_change()[vi].items()]
    return _combine(space, terms, lambda bits: xm.packed_basis_change(bits)[vi])


def star_elements(space: Space, a: dict, b: dict) -> dict:
    """Bilinear extension of the product to finite q-polynomials."""
    terms = [
        (c1 * c2, x1, x2, d1 + d2)
        for d1, e1 in a.items()
        for x1, c1 in e1.items()
        for d2, e2 in b.items()
        for x2, c2 in e2.items()
    ]
    return _combine(space, terms, lambda bits: [kronecker_pack(c, bits) for c, *_ in terms])


# -- Euler characteristic maps -----------------------------------------------------


def euler_char_q(space: Space, product: dict) -> dict:
    """Coefficient-wise sheaf Euler characteristic; a polynomial in q."""
    nv = space.chars.nvars
    out = {}
    for d, exp in product.items():
        total = sum_elements(nv, exp.values())
        if not total.is_zero():
            out[d] = total
    return out


# -- structure tables ----------------------------------------------------------------


def structure_table(space: Space, u: tuple, v: tuple, v_basis: str = PLAIN) -> tuple:
    """The structure constants of one product as terms ``(w, d, c)``: w a
    partition, d a power of q and c the nonzero public scalar, always in
    the opposite basis, sorted by (d, w)."""
    if v_basis == PLAIN:
        product = quantum_product(space, u, v)
    elif v_basis == OPPOSITE:
        product = quantum_product_opposite_v(space, u, v)
    else:
        raise ValueError(f"unknown basis {v_basis!r}")
    terms = []
    for d, exp in product.items():
        for widx, c in exp.items():
            pub = space.public_scalar(c)
            if not pub.is_zero():
                terms.append((space.partition_of(widx), d, pub))
    terms.sort(key=lambda t: (t[1], t[0]))
    return tuple(terms)


def sum_check(space: Space, terms: tuple) -> LaurentElement:
    """The sum of the public scalars of ``terms``: the ``sum_check`` that
    ``qk product`` and ``qk table`` print and the ``sum`` check tests is 1."""
    nvars = space.chars.nvars if space.equivariant else 0  # as space.public_scalar
    return sum_elements(nvars, (c for _w, _d, c in terms))


# -- verification ---------------------------------------------------------------------


def verify_coefficient_sum(space: Space, u: tuple, products: dict) -> list:
    """The terms of every structure table of row u, v opposite, sum to
    exactly 1: the number ``qk table`` prints as ``sum_check``."""
    violations = []
    one = space.public_scalar(space.model.one())
    for v in space.partitions:
        total = sum_check(space, structure_table(space, u, v, OPPOSITE))
        if total != one:
            violations.append(f"sum u={format_partition(u)} v={format_partition(v)} got={total}")
    return violations


def verify_euler_homomorphism(space: Space, u: tuple, products: dict) -> list:
    """chi-hat is multiplicative on the basis pairs of row u: chi_q at q = 1 is 1."""
    violations = []
    one = space.model.one()
    for v in space.partitions:
        total = sum_elements(space.chars.nvars, products[v][1].values())
        if total != one:
            violations.append(f"hom u={format_partition(u)} v={format_partition(v)} got={total}")
    return violations


def verify_min_degree(space: Space, u: tuple, products: dict) -> list:
    """chi_q of every product of row u is exactly q to the curve distance."""
    violations = []
    one = space.model.one()
    for v in space.partitions:
        d0 = dist(space, u, v)
        product, chi = products[v]
        if chi != {d0: one}:
            violations.append(
                f"mindeg u={format_partition(u)} v={format_partition(v)} "
                f"expected=q^{d0}"
            )
            continue
        if min(product, default=None) != d0:
            violations.append(f"lowest-power u={format_partition(u)} v={format_partition(v)}")
    return violations


def verify_signs(space: Space, u: tuple, products: dict) -> list:
    """The structure constants of row u, v opposite, alternate in sign at
    t = 1: (-1)^(|u|+|v|+|w|+d*n) N_{u,v}^{w,d} >= 0 (Buch-Mihalcea,
    arXiv:0810.0981).  A product with v plain is no structure constant."""
    violations = []
    for v in space.partitions:
        for w, d, c in structure_table(space, u, v, OPPOSITE):
            value = c.specialize_ones()
            if value and (value < 0) != bool((sum(u) + sum(v) + sum(w) + d * space.n) % 2):
                violations.append(
                    f"sign u={format_partition(u)} v={format_partition(v)} "
                    f"w={format_partition(w)} d={d} N={value}"
                )
    return violations


def verify_neighborhoods_against_graph(space: Space, u: tuple, products: dict) -> list:
    """Cross-check the distances of row u against the moment graph, and in
    the first row (u empty) every curve neighborhood index too, so that all
    neighborhood lines come before any distance line."""
    from qkcomin.oracles import MomentGraph

    violations = []
    graph = MomentGraph(space.m, space.n)
    if not u:
        for lam in space.partitions:
            for d in range(0, diameter(space) + 2):
                if curve_neighborhood_index(space, lam, d) != graph.neighborhood_partition(lam, d):
                    violations.append(f"neighborhood lam={format_partition(lam)} d={d}")
    for v in space.partitions:
        if dist(space, u, v) != graph.dist(u, v):
            violations.append(f"dist-oracle u={format_partition(u)} v={format_partition(v)}")
    return violations


# every check qk verify can run: (space, u, products of row u) -> violation lines
CHECKS = {
    "sum": verify_coefficient_sum,
    "hom": verify_euler_homomorphism,
    "mindeg": verify_min_degree,
    "sign": verify_signs,
    "graph": verify_neighborhoods_against_graph,
}

# the checks run when none are named; sign and graph are left out for their cost
DEFAULT_CHECKS = ("sum", "hom", "mindeg")


class _Row(dict):
    """The products with v plain of one row u, by v, each built on first read
    and held with its chi_q as ``(product, chi_q)``."""

    def __init__(self, space: Space, u: tuple):
        self.space, self.u = space, u

    def __missing__(self, v):
        product = quantum_product(self.space, self.u, v)
        entry = self[v] = (product, euler_char_q(self.space, product))
        return entry


def verify_space(space: Space, checks=DEFAULT_CHECKS) -> list:
    """The violation lines of the named checks, each prefixed with its check name.

    The one loop over pairs, by row: the checks of row u share its products
    with v plain, dropped with the row, and each keeps its own lines."""
    lines = {name: [] for name in checks}
    for u in space.partitions:
        products = _Row(space, u)
        for name, out in lines.items():
            out.extend(CHECKS[name](space, u, products))
    return [f"{name}: {line}" for name, out in lines.items() for line in out]

