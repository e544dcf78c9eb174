"""The quantum product on a type-A Grassmannian, built from curve neighborhoods.

For X = Gr(m,n) and a degree d, curves of degree d through X are encoded by
an incidence diagram of auxiliary flag varieties: Y_d records the kernel
and span dimensions a = max(m-d, 0), b = min(m+d, n), and T_d = Fl(a,m,b;n)
sits over both X and Y_d.  Pulling back to T_d and pushing forward takes a
Schubert class to a Schubert class, so each space keeps the diagram of one
degree as maps of Schubert indices (:class:`Diagram`): X to Y_d for the
opposite and the plain classes, Y_d to X for the opposite classes, and the
curve neighborhood index lambda(-d) of every opposite class, which is its
round trip X -> Y_d -> X.  The class of the variety swept out by degree-d
curves meeting an opposite Schubert variety and a B-stable one is the
Richardson class on Y_d of the two moved indices, expanded there in the
opposite basis and moved back to X through these maps; that expansion is
the only heavy step.  The whole series thus lives in the opposite basis,
the basis the structure constants are read in.

The generating series of these classes over all degrees is eventually the
unit class; applying (1 - q * shift), where the shift substitutes each
opposite Schubert index by its degree-one neighborhood index, telescopes
the series into the finite quantum product.  Structure tables, the sheaf
Euler characteristic specializations, and the verification reports are all
assembled from that product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from qkcomin.gkm import (
    OPPOSITE,
    PLAIN,
    CharacterMap,
    KModel,
    LocalizedClass,
    equivariant_chars,
    zspec_chars,
)
from qkcomin.laurent import LaurentElement
from qkcomin.weyl import (
    FlagShape,
    image_index,
    minrep_to_partition,
    partition_contains,
    partition_to_minrep,
    partitions_in_box,
    preimage_index_plain,
    format_partition,
)


@dataclass(frozen=True, eq=False)
class Space:
    """A Grassmannian Gr(m,n) together with the scalar mode of computation.

    A space owns every piece of engine state: the localization models of X
    and of the auxiliary flag varieties, the index diagram of each degree
    and the memo tables of its products.  They live as long as the space
    does (see :func:`get_space`).
    """

    m: int
    n: int
    equivariant: bool = False
    use_cache: bool = True
    # FlagShape -> KModel of X or of an auxiliary flag variety
    models: dict = field(default_factory=dict, init=False, repr=False)
    # degree d -> Diagram of Y_d <- T_d -> X
    diagrams: dict = field(default_factory=dict, init=False, repr=False)
    # (Y_d shape, u index, v index on Y_d) -> opposite-basis coefficients on X
    # of the projected class, shared across every (u, v, d) that lands there
    richardson: dict = field(default_factory=dict, init=False, repr=False)
    # (u, v) -> the product with v in the plain basis
    products: dict = field(default_factory=dict, init=False, repr=False)
    # (u, v) -> the product with v in the opposite basis
    products_opposite: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.m < self.n:
            raise ValueError("need 0 < m < n")

    @cached_property
    def shape(self) -> FlagShape:
        return FlagShape((self.m,), self.n)

    @property
    def chars(self) -> CharacterMap:
        return equivariant_chars(self.n) if self.equivariant else zspec_chars(self.n)

    @cached_property
    def model(self) -> KModel:
        return self.submodel(self.shape)

    @property
    def partitions(self) -> tuple:
        return partitions_in_box(self.m, self.n - self.m)

    def index_of(self, lam: tuple) -> int:
        return self.model.idx[partition_to_minrep(lam, self.m, self.n)]

    def partition_of(self, idx: int) -> tuple:
        return minrep_to_partition(self.model.points[idx], self.m, self.n)

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
        return c.substitute_letters(((),), 0)

    def __str__(self):
        return f"gr:{self.m},{self.n}"


@lru_cache(maxsize=None)
def get_space(m: int, n: int, equivariant: bool = False, use_cache: bool = True) -> Space:
    """Shared Space instances, so models and memos persist across callers."""
    return Space(m, n, equivariant, use_cache)


def diameter(space: Space) -> int:
    """Smallest d with every point-to-point curve neighborhood equal to X."""
    return min(space.m, space.n - space.m)


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


def _transport(w: tuple, orientation: str, src: FlagShape, t: FlagShape, dst: FlagShape) -> tuple:
    """Index of the push-pull src <- t -> dst of a Schubert class on src.

    Pulling back takes the full preimage: an opposite class keeps its
    index, since pullback preserves codimension, and a plain class moves
    to its preimage index.  Pushing forward takes the image index.
    """
    if orientation == PLAIN:
        w = preimage_index_plain(w, src, t)
    return image_index(w, t, dst)


@dataclass(frozen=True, eq=False)
class Diagram:
    """The diagram Y_d <- T_d -> X of one degree, on model indices.

    ``to_y_opposite[i]`` and ``to_y_plain[i]`` index on Y_d the opposite and
    the plain class of X index i moved along the diagram; ``from_y[j]``
    indexes on X the opposite class of Y_d index j moved the other way;
    ``neighborhood[i]`` indexes on X the degree-d curve neighborhood of the
    opposite class i, its round trip; ``top`` indexes on Y_d the plain
    unit class.
    """

    y: KModel
    to_y_opposite: tuple
    to_y_plain: tuple
    from_y: tuple
    neighborhood: tuple
    top: int


def _build_diagram(space: Space, d: int) -> Diagram:
    y, t = kernel_span_shapes(space, d)
    x, xm, my = space.shape, space.model, space.submodel(y)

    def move(ws, orientation, src, dst, target):
        return tuple(target.idx[_transport(w, orientation, src, t, dst)] for w in ws)

    to_y_opposite = move(xm.points, OPPOSITE, x, y, my)
    from_y = move(my.points, OPPOSITE, y, x, xm)
    return Diagram(
        y=my,
        to_y_opposite=to_y_opposite,
        to_y_plain=move(xm.points, PLAIN, x, y, my),
        from_y=from_y,
        neighborhood=tuple(from_y[j] for j in to_y_opposite),
        top=max(range(my.npoints), key=my.lengths.__getitem__),
    )


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
    if not partition_contains(lam, ((space.n - space.m),) * space.m):
        raise ValueError("partition leaves the box")
    return space.partition_of(space.diagram(d).neighborhood[space.index_of(lam)])


def dist(space: Space, u: tuple, v: tuple) -> int:
    """Smallest degree whose curve neighborhood of one variety meets the other."""
    d = 0
    while not partition_contains(curve_neighborhood_index(space, u, d), v):
        d += 1
        if d > diameter(space):
            raise AssertionError("distance exceeded the diameter")
    return d


# -- projected classes and the degree series -------------------------------------


def _gw_coeffs(space: Space, d: int, ui: int, vi: int) -> dict:
    """Opposite-basis coefficients on X of the degree-d projected class.

    The Richardson class of the opposite class of X index ui and the plain
    class of X index vi, both moved to Y_d, is expanded on Y_d in the
    opposite basis; each basis class of the expansion is moved back to X.
    """
    dg = space.diagram(d)
    my = dg.y
    u_d, v_d = dg.to_y_opposite[ui], dg.to_y_plain[vi]
    if not my.leq(u_d, v_d):
        return {}
    key = (my.shape, u_d, v_d)
    out = space.richardson.get(key)
    if out is None:
        rich = my.multiply_values(my.table(OPPOSITE)[u_d], my.table(PLAIN)[v_d])
        out = space.richardson[key] = _move(my.expand_values(rich, OPPOSITE), dg.from_y)
    return out


def projected_gw_class(space: Space, u: tuple, v: tuple, d: int) -> LocalizedClass:
    """The K-class of the union of degree-d curves meeting both varieties."""
    coeffs = _gw_coeffs(space, d, space.index_of(u), space.index_of(v))
    return LocalizedClass(space.model, space.model.recombine(coeffs, OPPOSITE))


def gw_series(space: Space, u: tuple, v: tuple) -> tuple:
    """Degree series of projected classes, as its heads.

    The degree-d class has opposite-basis coefficients heads[d] below
    D = len(heads), and is the unit class from D on; D is minimal.  The
    class is the unit once u moves to the unit and v to the top index on
    Y_d, which the index maps show before any expansion.
    """
    ui, vi = space.index_of(u), space.index_of(v)
    unit = {0: space.model.one()}
    heads = []
    d = 0
    while True:
        dg = space.diagram(d)
        if dg.y.lengths[dg.to_y_opposite[ui]] == 0 and dg.to_y_plain[vi] == dg.top:
            break
        heads.append(_gw_coeffs(space, d, ui, vi))
        d += 1
        if d > max(space.m, space.n - space.m) + 1:
            raise AssertionError("series did not stabilize")
    while heads and heads[-1] == unit:
        heads.pop()
    return tuple(heads)


# -- the shift endomorphism and the product ----------------------------------------


def shift_expansion(space: Space, exp: dict) -> dict:
    """Scalar-linear substitution O^w -> O^{w(-1)} on an opposite expansion."""
    return _move(exp, space.diagram(1).neighborhood)


@dataclass(frozen=True, eq=False)
class QKElement:
    """A finite q-polynomial with opposite-basis coefficients."""

    space: Space
    coeffs: dict  # degree -> {opposite index -> scalar}

    def normalized(self) -> "QKElement":
        out = {}
        for d, exp in self.coeffs.items():
            exp = {w: c for w, c in exp.items() if not c.is_zero()}
            if exp:
                out[d] = exp
        return QKElement(self.space, out)

    def __eq__(self, other):
        if not isinstance(other, QKElement):
            return NotImplemented
        return (
            self.space is other.space
            and self.normalized().coeffs == other.normalized().coeffs
        )

    def min_degree(self):
        keys = [d for d, exp in self.normalized().coeffs.items()]
        return min(keys) if keys else None


def quantum_product(space: Space, u: tuple, v: tuple) -> QKElement:
    """The product of the opposite class of u and the B-stable class of v.

    Applies (1 - q * shift) to the degree series: the degree-d coefficient
    is the class of degree d minus the shifted class of degree d - 1.  The
    shift fixes the unit class, so every degree beyond the D heads of the
    series cancels and the product is a polynomial in q of degree at most D.
    """
    key = (u, v)
    hit = space.products.get(key)
    if hit is not None:
        return hit
    series = gw_series(space, u, v) + ({0: space.model.one()},)
    coeffs: dict = {}
    for d in range(len(series)):
        cur = dict(series[d])
        if d:
            for w, c in shift_expansion(space, series[d - 1]).items():
                acc = cur.get(w)
                cur[w] = -c if acc is None else acc - c
        cur = {w: c for w, c in cur.items() if not c.is_zero()}
        if cur:
            coeffs[d] = cur
    result = QKElement(space, coeffs)
    space.products[key] = result
    return result


def quantum_product_opposite_v(space: Space, u: tuple, v: tuple) -> QKElement:
    """The product of two opposite classes, via the exact change of basis."""
    memo = space.products_opposite
    hit = memo.get((u, v))
    if hit is not None:
        return hit
    total: dict = {}
    for xidx, gamma in space.model.basis_change(OPPOSITE)[space.index_of(v)].items():
        part = quantum_product(space, u, space.partition_of(xidx))
        for d, exp in part.coeffs.items():
            bucket = total.setdefault(d, {})
            for w, c in exp.items():
                acc = bucket.get(w)
                prod = gamma * c
                bucket[w] = prod if acc is None else acc + prod
    result = QKElement(space, total).normalized()
    memo[(u, v)] = result
    return result


def star_elements(space: Space, a: QKElement, b: QKElement) -> QKElement:
    """Bilinear extension of the product to finite q-polynomials."""
    total: dict = {}
    for d1, e1 in a.coeffs.items():
        for x1, c1 in e1.items():
            for d2, e2 in b.coeffs.items():
                for x2, c2 in e2.items():
                    base = quantum_product_opposite_v(
                        space, space.partition_of(x1), space.partition_of(x2)
                    )
                    scale = c1 * c2
                    for d, exp in base.coeffs.items():
                        bucket = total.setdefault(d + d1 + d2, {})
                        for w, c in exp.items():
                            acc = bucket.get(w)
                            prod = scale * c
                            bucket[w] = prod if acc is None else acc + prod
    return QKElement(space, total).normalized()


def basis_element(space: Space, lam: tuple, degree: int = 0) -> QKElement:
    return QKElement(space, {degree: {space.index_of(lam): space.model.one()}})


# -- Euler characteristic maps -----------------------------------------------------


def euler_char_q(space: Space, elt: QKElement) -> dict:
    """Coefficient-wise sheaf Euler characteristic; a polynomial in q."""
    out = {}
    for d, exp in elt.coeffs.items():
        total = space.model.zero()
        for c in exp.values():
            total = total + c
        if not total.is_zero():
            out[d] = total
    return out


def euler_char_total(space: Space, elt: QKElement) -> LaurentElement:
    """Euler characteristic with q set to 1."""
    total = space.model.zero()
    for part in euler_char_q(space, elt).values():
        total = total + part
    return total


# -- structure tables ----------------------------------------------------------------


@dataclass(frozen=True)
class StructureTable:
    """All nonzero coefficients of one product of Schubert classes."""

    space_str: str
    equivariant: bool
    u: tuple
    v: tuple
    v_basis: str
    terms: tuple  # ((partition, degree, LaurentElement public scalar), ...)

    def sum_check(self) -> LaurentElement:
        nvars = self.terms[0][2].nvars if self.terms else 0
        total = LaurentElement.zero(nvars)
        for _w, _d, c in self.terms:
            total = total + c
        return total

    def to_json_dict(self) -> dict:
        return {
            "space": self.space_str,
            "equivariant": self.equivariant,
            "u": format_partition(self.u),
            "v": format_partition(self.v),
            "v_basis": self.v_basis,
            "terms": [
                {"w": format_partition(w), "d": d, "N": str(c)}
                for w, d, c in self.terms
            ],
            "sum_check": str(self.sum_check()),
        }


def structure_table(space: Space, u: tuple, v: tuple, v_basis: str = PLAIN) -> StructureTable:
    """Structure constants of a product, always reported in the opposite basis."""
    if v_basis == PLAIN:
        elt = quantum_product(space, u, v)
    elif v_basis == OPPOSITE:
        elt = quantum_product_opposite_v(space, u, v)
    else:
        raise ValueError(f"unknown basis {v_basis!r}")
    terms = []
    for d, exp in elt.coeffs.items():
        for widx, c in exp.items():
            pub = space.public_scalar(c)
            if not pub.is_zero():
                terms.append((space.partition_of(widx), d, pub))
    terms.sort(key=lambda t: (t[1], t[0]))
    return StructureTable(str(space), space.equivariant, u, v, v_basis, tuple(terms))


def load_table_json(doc: dict) -> StructureTable:
    """Rebuild a table from its JSON form, recomputing the checksum field."""
    from qkcomin.weyl import parse_partition

    nvars = 0
    if doc["equivariant"]:
        nvars = int(doc["space"].split(",")[1])
    terms = tuple(
        (parse_partition(t["w"]), int(t["d"]), LaurentElement.parse(t["N"], nvars))
        for t in doc["terms"]
    )
    table = StructureTable(
        doc["space"], bool(doc["equivariant"]), parse_partition(doc["u"]),
        parse_partition(doc["v"]), doc["v_basis"], terms,
    )
    if str(table.sum_check()) != doc["sum_check"]:
        raise ValueError("sum_check mismatch on ingestion")
    return table


# -- verification reports ---------------------------------------------------------------


@dataclass
class Report:
    space_str: str
    equivariant: bool
    pairs: int = 0
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def all_pairs(space: Space) -> list:
    parts = space.partitions
    return [(u, v) for u in parts for v in parts]


def verify_coefficient_sum(space: Space, v_basis: str = OPPOSITE) -> Report:
    """Every structure table sums to exactly 1."""
    report = Report(str(space), space.equivariant)
    one = space.public_scalar(space.model.one())
    for u, v in all_pairs(space):
        report.pairs += 1
        total = structure_table(space, u, v, v_basis).sum_check()
        if total != one:
            report.violations.append(
                f"sum u={format_partition(u)} v={format_partition(v)} got={total}"
            )
    return report


def verify_euler_homomorphism(space: Space) -> Report:
    """chi-hat is multiplicative on all basis pairs (and sends q to 1)."""
    report = Report(str(space), space.equivariant)
    one = space.model.one()
    for u, v in all_pairs(space):
        report.pairs += 1
        total = euler_char_total(space, quantum_product(space, u, v))
        if total != one:
            report.violations.append(
                f"hom u={format_partition(u)} v={format_partition(v)} got={total}"
            )
    return report


def verify_min_degree(space: Space) -> Report:
    """chi_q of every product is exactly q to the curve distance."""
    report = Report(str(space), space.equivariant)
    one = space.model.one()
    for u, v in all_pairs(space):
        report.pairs += 1
        d0 = dist(space, u, v)
        elt = quantum_product(space, u, v)
        chi = euler_char_q(space, elt)
        if chi != {d0: one}:
            report.violations.append(
                f"mindeg u={format_partition(u)} v={format_partition(v)} "
                f"expected=q^{d0}"
            )
            continue
        if elt.min_degree() != d0:
            report.violations.append(
                f"lowest-power u={format_partition(u)} v={format_partition(v)}"
            )
    return report


CHECKS = {
    "sum": verify_coefficient_sum,
    "hom": verify_euler_homomorphism,
    "mindeg": verify_min_degree,
}


def verify_space(space: Space, checks=tuple(CHECKS), oracle: bool = False) -> Report:
    """Run the named checks; ``oracle`` adds the moment-graph cross-checks."""
    merged = Report(str(space), space.equivariant)
    for name in checks:
        rep = CHECKS[name](space)
        merged.pairs = max(merged.pairs, rep.pairs)
        merged.violations.extend(f"{name}: {v}" for v in rep.violations)
    if oracle:
        graph_report = verify_neighborhoods_against_graph(space)
        merged.violations.extend(graph_report.violations)
    return merged


def verify_neighborhoods_against_graph(space: Space) -> Report:
    """Cross-check every curve neighborhood index and distance against the moment graph."""
    from qkcomin.oracles import MomentGraph

    report = Report(str(space), space.equivariant)
    graph = MomentGraph(space.m, space.n)
    for lam in space.partitions:
        for d in range(0, diameter(space) + 2):
            report.pairs += 1
            if curve_neighborhood_index(space, lam, d) != graph.neighborhood_partition(lam, d):
                report.violations.append(
                    f"neighborhood lam={format_partition(lam)} d={d}"
                )
    for u, v in all_pairs(space):
        report.pairs += 1
        if dist(space, u, v) != graph.dist(u, v):
            report.violations.append(
                f"dist-oracle u={format_partition(u)} v={format_partition(v)}"
            )
    return report


def positivity_sign_report(space: Space, table: StructureTable) -> dict:
    """Diagnostic sign-alternation report for a non-equivariant table.

    Convention (stated here and in the header field): the entry at (w, d)
    is expected to carry sign (-1)^(l(u)+l(v)-l(w)-d*n), with lengths taken
    in the codimension grading of the opposite basis and the degree scaled
    by the anticanonical degree n of a line.  Purely diagnostic.
    """
    convention = "(-1)^(l(u)+l(v)-l(w)-d*n)"
    lu, lv = sum(table.u), sum(table.v)
    flagged = []
    for w, d, c in table.terms:
        val = c.specialize_ones()
        if val == 0:
            continue
        expected = -1 if (lu + lv - sum(w) - d * space.n) % 2 else 1
        if (val > 0) != (expected > 0):
            flagged.append({"w": format_partition(w), "d": d, "N": str(val)})
    return {
        "convention": convention,
        "checked": len(table.terms),
        "flagged": flagged,
    }
