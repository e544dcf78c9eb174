"""Equivariant K-theory of type-A partial flag varieties by localization.

A class is represented by its restrictions to the torus-fixed points, one
exact Laurent polynomial per point, constrained by divisibility along the
one-dimensional torus orbits (the moment-graph edges).  Schubert classes
are generated by a one-simple-reflection sweep recursion starting from the
point class: sweeping a Borel orbit closure by the minimal parabolic P_i
corresponds on fixed-point functions to the operator

    (A_i f)(v) = (f(v) - e * s_i(f(v'))) / (1 - e),

where v' is the coset of s_i v, s_i acts on the scalars by exchanging the
characters t_i and t_{i+1}, and e is the character of the simple root,
taken positively for the B-stable family and negatively for the opposite
family.  The division is always exact; a failed division signals a
convention bug and aborts loudly.

Restriction tables are memoized per (shape, scalar mode, orientation) and
mirrored on disk.  Two scalar modes exist: the full torus (n characters),
and a one-parameter specialization t_i -> z^(i-1) used for computations
whose reported output is non-equivariant.  The recursion itself always
runs with the full torus, since the sweep operator permutes characters;
one-parameter tables are produced by specializing each finished row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from qkcomin import cache as diskcache
from qkcomin.laurent import LaurentElement, NotDivisibleError, subtract_product_into
from qkcomin.weyl import (
    FlagShape,
    coset_minreps,
    left_action_on_minrep,
    length,
    min_coset_rep,
    image_index,
)

PLAIN = "plain"
OPPOSITE = "opposite"


class NotInSpanError(ValueError):
    """The class is not in the span of Schubert classes over the scalars."""


class ShapeMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class CharacterMap:
    """Assignment of a character monomial to each of the n torus letters."""

    n: int
    nvars: int
    images: tuple
    permutable: bool
    key: str

    def root_exp(self, a: int, b: int) -> tuple:
        """Exponent vector of the character of the root e_a - e_b."""
        ia, ib = self.images[a - 1], self.images[b - 1]
        return tuple(x - y for x, y in zip(ia, ib))


@lru_cache(maxsize=None)
def equivariant_chars(n: int) -> CharacterMap:
    images = tuple(
        tuple(1 if k == i else 0 for k in range(n)) for i in range(n)
    )
    return CharacterMap(n, n, images, True, f"t{n}")


@lru_cache(maxsize=None)
def zspec_chars(n: int) -> CharacterMap:
    """One-parameter specialization t_i -> z^(i-1); exact and nondegenerate."""
    images = tuple((i,) for i in range(n))
    return CharacterMap(n, 1, images, False, f"z{n}")


class KModel:
    """Localization model of the equivariant K-ring of one flag variety."""

    def __init__(self, shape: FlagShape, chars: CharacterMap, use_cache: bool = True):
        if chars.n != shape.n:
            raise ValueError("character map does not match ambient dimension")
        self.shape = shape
        self.chars = chars
        self.use_cache = use_cache
        self.points = coset_minreps(shape)
        self.idx = {w: k for k, w in enumerate(self.points)}
        self.lengths = tuple(length(w) for w in self.points)
        self.blocks = shape.blocks
        self.npoints = len(self.points)
        n = shape.n
        self._left = [
            [self._left_entry(p, i) for p in range(self.npoints)]
            for i in range(1, n)
        ]
        self._tables: dict = {}
        self._bruhat: dict = {}
        self._basis_change: dict = {}
        self._edges = None

    def _left_entry(self, p: int, i: int):
        m, case = left_action_on_minrep(self.points[p], i, self.blocks)
        return self.idx[m], case

    # -- scalars ------------------------------------------------------------

    def zero(self) -> LaurentElement:
        return LaurentElement.zero(self.chars.nvars)

    def one(self) -> LaurentElement:
        return LaurentElement.one(self.chars.nvars)

    # -- Bruhat order on indices ---------------------------------------------

    def leq(self, p: int, q: int) -> bool:
        key = (p, q)
        hit = self._bruhat.get(key)
        if hit is None:
            from qkcomin.weyl import bruhat_leq

            hit = bruhat_leq(self.points[p], self.points[q])
            self._bruhat[key] = hit
        return hit

    # -- restriction tables ---------------------------------------------------

    def table(self, orientation: str) -> list:
        rows = self._tables.get(orientation)
        if rows is None:
            rows = self._load_or_build(orientation)
            self._tables[orientation] = rows
        return rows

    def _cache_key(self, orientation: str) -> str:
        dims = ",".join(map(str, self.shape.dims))
        return f"shape={dims};{self.shape.n}|chars={self.chars.key}|orient={orientation}"

    def _load_or_build(self, orientation: str) -> list:
        if self.use_cache:
            raw = diskcache.load_rows(self._cache_key(orientation))
            if raw is not None and len(raw) == self.npoints:
                nv = self.chars.nvars
                return [
                    tuple(LaurentElement.parse(s, nv) for s in row) for row in raw
                ]
        rows = self._build(orientation)
        if self.use_cache:
            diskcache.store_rows(
                self._cache_key(orientation),
                [[str(v) for v in row] for row in rows],
            )
        return rows

    def _build(self, orientation: str) -> list:
        eq = equivariant_chars(self.shape.n)
        if self.chars.permutable:
            collect = [None] * self.npoints

            def emit(widx, row):
                collect[widx] = tuple(row)

        else:
            collect = [None] * self.npoints
            images, nv = self.chars.images, self.chars.nvars

            def emit(widx, row):
                collect[widx] = tuple(v.substitute_letters(images, nv) for v in row)

        self._recurse_rows(eq, orientation, emit)
        return collect

    def _point_class_row(self, eq: CharacterMap, at: int) -> list:
        """Localization of the structure sheaf of one fixed point."""
        w = self.points[at]
        val = LaurentElement.one(eq.nvars)
        for bi in range(len(self.blocks)):
            for bj in range(bi + 1, len(self.blocks)):
                for i in self.blocks[bi]:
                    for j in self.blocks[bj]:
                        binom = LaurentElement.one(eq.nvars) - LaurentElement.monomial(
                            eq.nvars, eq.root_exp(w[i - 1], w[j - 1])
                        )
                        val = val * binom
        row = [LaurentElement.zero(eq.nvars)] * self.npoints
        row[at] = val
        return row

    def _recurse_rows(self, eq: CharacterMap, orientation: str, emit) -> None:
        """Sweep recursion, processed by codimension layers.

        Only the previous layer of full-torus rows is retained, so the
        transient memory stays small even when the consumer only keeps a
        specialized form of each row.
        """
        by_len: dict = {}
        for p in range(self.npoints):
            by_len.setdefault(self.lengths[p], []).append(p)
        maxlen = max(by_len)
        if orientation == PLAIN:
            layers = range(0, maxlen + 1)
            start = self.idx[min_coset_rep(tuple(range(1, self.shape.n + 1)), self.blocks)]
            want_case, sign = -1, +1
        elif orientation == OPPOSITE:
            layers = range(maxlen, -1, -1)
            start = by_len[maxlen][0]
            assert len(by_len[maxlen]) == 1
            want_case, sign = +1, -1
        else:
            raise ValueError(f"unknown orientation {orientation!r}")
        prev: dict = {}
        first = True
        for ell in layers:
            cur: dict = {}
            for p in by_len.get(ell, []):
                if first:
                    assert p == start
                    row = self._point_class_row(eq, p)
                else:
                    row = None
                    for i in range(1, self.shape.n):
                        p2, case = self._left[i - 1][p]
                        if case == want_case and p2 in prev:
                            row = self._sweep_row(eq, prev[p2], i, sign)
                            break
                    if row is None:
                        raise AssertionError("no recursion parent found")
                cur[p] = row
                emit(p, row)
            prev = cur
            first = False

    def _sweep_row(self, eq: CharacterMap, row: list, i: int, sign: int) -> list:
        if sign > 0:
            mexp = eq.root_exp(i, i + 1)
        else:
            mexp = eq.root_exp(i + 1, i)
        mono = LaurentElement.monomial(eq.nvars, mexp)
        out = [None] * self.npoints
        for p in range(self.npoints):
            p2, _ = self._left[i - 1][p]
            g = row[p] - mono * row[p2].swap_letters(i)
            out[p] = g.divide_exact_one_minus(mexp)
        return out

    # -- class construction and ring operations --------------------------------

    def schubert_values(self, widx: int, orientation: str) -> tuple:
        return self.table(orientation)[widx]

    def unit_values(self) -> tuple:
        one = self.one()
        return tuple(one for _ in range(self.npoints))

    def zero_values(self) -> tuple:
        z = self.zero()
        return tuple(z for _ in range(self.npoints))

    def multiply_values(self, a: tuple, b: tuple) -> tuple:
        return tuple(x * y for x, y in zip(a, b))

    def add_values(self, a: tuple, b: tuple) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def is_zero_values(self, a) -> bool:
        return all(x.is_zero() for x in a)

    def is_unit_values(self, a) -> bool:
        return all(x.is_one() for x in a)

    # -- diagonal restrictions in factored form ---------------------------------

    def diag_factor_exps(self, widx: int, orientation: str) -> tuple:
        """Binomial factors 1 - t^e of the diagonal restriction at the index.

        Plain classes: cross-block non-inversions; opposite classes:
        cross-block inversions (the normal directions of the respective cell).
        """
        w = self.points[widx]
        want_inversion = orientation == OPPOSITE
        exps = []
        for bi in range(len(self.blocks)):
            for bj in range(bi + 1, len(self.blocks)):
                for i in self.blocks[bi]:
                    for j in self.blocks[bj]:
                        if (w[i - 1] > w[j - 1]) == want_inversion:
                            exps.append(self.chars.root_exp(w[i - 1], w[j - 1]))
        return tuple(exps)

    def _divide_diag(self, val: LaurentElement, widx: int, orientation: str):
        for mexp in self.diag_factor_exps(widx, orientation):
            val = val.divide_exact_one_minus(mexp)
        return val

    # -- triangular basis expansion ---------------------------------------------

    def expand_values(self, values, orientation: str) -> dict:
        """Coefficients of a localized class in a Schubert basis.

        Triangular elimination along a linear extension of the Bruhat order,
        dividing by (factored) diagonal restrictions; every division is exact
        for classes in the span.
        """
        residual = [v.copy() for v in values]  # updated in place
        reverse = orientation == PLAIN
        order = sorted(
            range(self.npoints), key=lambda p: self.lengths[p], reverse=reverse
        )
        table = self.table(orientation)
        coeffs: dict = {}
        for widx in order:
            val = residual[widx]
            if val.is_zero():
                continue
            try:
                c = self._divide_diag(val, widx, orientation)
            except NotDivisibleError as exc:
                raise NotInSpanError("not in the scalar span of Schubert classes") from exc
            if c is val:  # no diagonal factor; val is about to be updated
                c = val.copy()
            coeffs[widx] = c
            for acc, rv in zip(residual, table[widx]):
                subtract_product_into(acc, c, rv)
        if any(not v.is_zero() for v in residual):
            raise NotInSpanError("not in the scalar span of Schubert classes")
        return coeffs

    def recombine(self, coeffs: dict, orientation: str) -> tuple:
        out = list(self.zero_values())
        table = self.table(orientation)
        for widx, c in coeffs.items():
            row = table[widx]
            for p in range(self.npoints):
                if not row[p].is_zero():
                    out[p] = out[p] + c * row[p]
        return tuple(out)

    def euler_char_values(self, values) -> LaurentElement:
        """Pushforward to the point: sum of basis coefficients."""
        coeffs = self.expand_values(values, OPPOSITE)
        total = self.zero()
        for c in coeffs.values():
            total = total + c
        return total

    # -- basis change -------------------------------------------------------------

    def basis_change(self, source: str) -> list:
        """Expansion of every source-basis class in the other basis."""
        target = OPPOSITE if source == PLAIN else PLAIN
        hit = self._basis_change.get(source)
        if hit is None:
            table = self.table(source)
            hit = [self.expand_values(row, target) for row in table]
            self._basis_change[source] = hit
        return hit

    # -- moment graph ---------------------------------------------------------------

    def gkm_edges(self) -> list:
        """Pairs of fixed points on a common one-dimensional orbit, with root."""
        if self._edges is None:
            edges = []
            n = self.shape.n
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    for p, w in enumerate(self.points):
                        moved = tuple(
                            b if x == a else a if x == b else x for x in w
                        )
                        q = self.idx[min_coset_rep(moved, self.blocks)]
                        if q > p:
                            edges.append((p, q, self.chars.root_exp(a, b)))
            self._edges = edges
        return self._edges

    def gkm_check(self, values) -> bool:
        return all(
            (values[p] - values[q]).divisible_by_one_minus(mexp)
            for p, q, mexp in self.gkm_edges()
        )


@dataclass(frozen=True, eq=False)
class LocalizedClass:
    """A K-theory class given by its fixed-point restrictions."""

    model: KModel
    values: tuple

    def __mul__(self, other: "LocalizedClass") -> "LocalizedClass":
        if other.model is not self.model:
            raise ShapeMismatchError("classes live on different models")
        return LocalizedClass(self.model, self.model.multiply_values(self.values, other.values))

    def __add__(self, other: "LocalizedClass") -> "LocalizedClass":
        if other.model is not self.model:
            raise ShapeMismatchError("classes live on different models")
        return LocalizedClass(self.model, self.model.add_values(self.values, other.values))

    def is_zero(self) -> bool:
        return self.model.is_zero_values(self.values)

    def is_unit(self) -> bool:
        return self.model.is_unit_values(self.values)

    def __eq__(self, other):
        if not isinstance(other, LocalizedClass):
            return NotImplemented
        return self.model is other.model and self.values == other.values


def schubert_class(model: KModel, widx: int, orientation: str) -> LocalizedClass:
    return LocalizedClass(model, model.schubert_values(widx, orientation))


def unit_class(model: KModel) -> LocalizedClass:
    return LocalizedClass(model, model.unit_values())


def pullback(cls: LocalizedClass, src: KModel) -> LocalizedClass:
    """Precompose with the induced map on fixed points (coset projection)."""
    dst = cls.model
    if not src.shape.projects_to(dst.shape):
        raise ShapeMismatchError(f"{src.shape} does not project to {dst.shape}")
    values = tuple(
        cls.values[dst.idx[min_coset_rep(v, dst.blocks)]] for v in src.points
    )
    return LocalizedClass(src, values)


def pushforward(cls: LocalizedClass, dst: KModel, orientation: str = PLAIN) -> LocalizedClass:
    """Transport basis-wise: expand, map each index to its image, recombine."""
    src = cls.model
    if not src.shape.projects_to(dst.shape):
        raise ShapeMismatchError(f"{src.shape} does not project to {dst.shape}")
    coeffs = src.expand_values(cls.values, orientation)
    out: dict = {}
    for widx, c in coeffs.items():
        img = image_index(src.points[widx], src.shape, dst.shape)
        tid = dst.idx[img]
        out[tid] = out.get(tid, dst.zero()) + c
    return LocalizedClass(dst, dst.recombine(out, orientation))
