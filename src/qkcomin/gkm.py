"""Equivariant K-theory of type-A partial flag varieties by localization.

A class is represented by its restrictions to the torus-fixed points, one
exact Laurent polynomial per point, constrained by divisibility along the
one-dimensional torus orbits (the moment-graph edges).  The B-stable
Schubert classes are generated by one sweep recursion, upward from the
point class of the identity coset: sweeping a Borel orbit closure by the
minimal parabolic P_i corresponds on fixed-point functions to the operator

    (A_i f)(v) = (f(v) - e * s_i(f(v'))) / (1 - e),

where v' is the coset of s_i v, s_i acts on the scalars by exchanging the
characters t_i and t_{i+1}, and e is the character of the simple root.
The division is always exact; a failed division signals a convention bug
and aborts loudly.  The opposite family is the translate by the longest
element, X^w = w0 X_{w0 w}: its table is read off the plain one through
the index map w -> w0 w and the action of w0 on the scalars.

Restriction tables are memoized per (shape, scalar mode, orientation) and
mirrored on disk.  Two scalar modes exist: the full torus (n characters),
and a one-parameter specialization t_i -> z^(i-1) used for computations
whose reported output is non-equivariant.  The recursion itself always
runs with the full torus, since the sweep operator permutes characters;
one-parameter plain tables are produced by specializing each finished
row.  There w0 acts as z -> z^-1, which is exact because every
restriction lies in the degree-zero sublattice (see :func:`zspec_chars`).

Classes are expanded in the opposite Schubert basis by triangular
elimination (:meth:`KModel.expand_values`); a plain-basis expansion is the
w0 translate of an opposite-basis one (:meth:`KModel.basis_change`).  With
the full torus the residuals are Laurent polynomials.  With one parameter
they are dense polynomials with small coefficients, held Kronecker-packed:
z^lo * F(z), F a polynomial, is the pair (lo, F(B)) with B = 2**W,
W = PACK_BITS at first.  An update acc -= c * row[p] is one shift, one
integer product and one subtraction, and dividing by the diagonal entry
z^d * D(z) is one integer divmod by D(B).

* F -> F(B) is a ring map Z[z] -> Z and Python integers never wrap.  For
  a class in the span, every packed value is thus, at any W, the value at
  B of the polynomial the exact elimination holds, so a nonzero remainder
  or a nonzero final residual proves the class is not in the span.
* A polynomial with coefficients in (-B/2, B/2) is fixed by its value at
  B: balanced base-B digits are unique.  Each residual carries a bound on
  its L1 norm, the exact norm of the input plus ||c||_1 * ||row[p]||_1 per
  update, which bounds its coefficients and its value's digits.  When all
  bounds stay below B/2, a zero value is the zero polynomial, and a
  quotient H read in balanced digits with max|H| * ||D||_1 < B/2 is exact,
  since H * D and F then both have coefficients below B/2 and agree at B.
* Otherwise the elimination reruns at width 2W.  The opposite table is
  packed on its first expansion, once per model and width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from qkcomin import cache as diskcache
from qkcomin.laurent import (
    ExponentRangeError,
    LaurentElement,
    NotDivisibleError,
    kronecker_pack,
    kronecker_unpack,
    subtract_product_into,
)
from qkcomin.weyl import (
    FlagShape,
    coset_minreps,
    dual_index,
    left_action_on_minrep,
    length,
)

PLAIN = "plain"
OPPOSITE = "opposite"

# digit width of the first packing of a one-variable table; widened on demand
PACK_BITS = 64


class NotInSpanError(ValueError):
    """The class is not in the span of Schubert classes over the scalars."""


@dataclass(frozen=True)
class CharacterMap:
    """Assignment of a character monomial to each of the n torus letters."""

    n: int
    nvars: int
    images: tuple
    # images of the letters under the longest element w0 (see KModel._build)
    w0_images: tuple
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
    return CharacterMap(n, n, images, images[::-1], f"t{n}")


@lru_cache(maxsize=None)
def zspec_chars(n: int) -> CharacterMap:
    """One-parameter specialization t_i -> z^(i-1); exact and nondegenerate.

    The longest element acts as z -> z^-1.  This is exact on restrictions,
    which all lie in the degree-zero sublattice: w0 sends t^e to the
    monomial with exponent e_i at position n+1-i, which specializes to
    z^(sum_i e_i (n-i)) = z^((n-1) sum e - sum_i e_i (i-1)), and sum e = 0.
    """
    images = tuple((i,) for i in range(n))
    return CharacterMap(n, 1, images, ((-1,),), f"z{n}")


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
        # index of the w0 translate: X_w = w0 X^{dual[w]}
        self.dual = tuple(self.idx[dual_index(w, shape)] for w in self.points)
        self.npoints = len(self.points)
        self._tables: dict = {}
        self._basis_change: list | None = None
        self._packed: tuple | None = None

    # -- scalars ------------------------------------------------------------

    def zero(self) -> LaurentElement:
        return LaurentElement.zero(self.chars.nvars)

    def one(self) -> LaurentElement:
        return LaurentElement.one(self.chars.nvars)

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
            rows = None if raw is None else self._parse_rows(raw)
            if rows is not None:
                return rows
        rows = self._build(orientation)
        if self.use_cache:
            diskcache.store_rows(
                self._cache_key(orientation),
                [[str(v) for v in row] for row in rows],
            )
        return rows

    def _parse_rows(self, raw: list) -> list | None:
        """The table held by cached rows of strings, or None if they do not
        make a table of this model.

        Equal strings become one shared element.  That is safe because table
        entries are never mutated: :meth:`expand_values` copies what it
        updates in place.
        """
        n, nv = self.npoints, self.chars.nvars
        if len(raw) != n:
            return None
        parsed: dict = {}
        rows = []
        for row in raw:
            if len(row) != n:
                return None
            out = []
            for s in row:
                v = parsed.get(s)
                if v is None:
                    try:
                        v = parsed[s] = LaurentElement.parse(s, nv)
                    except (ValueError, ExponentRangeError):
                        return None
                out.append(v)
            rows.append(tuple(out))
        return rows

    def _build(self, orientation: str) -> list:
        if orientation == OPPOSITE:
            plain, dual = self.table(PLAIN), self.dual
            images, nv = self.chars.w0_images, self.chars.nvars
            return [
                tuple(plain[dual[w]][q].substitute_letters(images, nv) for q in dual)
                for w in range(self.npoints)
            ]
        if orientation != PLAIN:
            raise ValueError(f"unknown orientation {orientation!r}")
        eq = equivariant_chars(self.shape.n)
        if self.chars == eq:
            return list(self._plain_rows(eq))
        images, nv = self.chars.images, self.chars.nvars
        return [
            tuple(v.substitute_letters(images, nv) for v in row)
            for row in self._plain_rows(eq)
        ]

    def _identity_point_row(self, eq: CharacterMap) -> tuple:
        """Localization of the structure sheaf of the identity coset, index 0."""
        val = LaurentElement.one(eq.nvars)
        blocks = self.shape.blocks
        for bi in range(len(blocks)):
            for bj in range(bi + 1, len(blocks)):
                for i in blocks[bi]:
                    for j in blocks[bj]:
                        binom = LaurentElement.one(eq.nvars) - LaurentElement.monomial(
                            eq.nvars, eq.root_exp(i, j)
                        )
                        val = val * binom
        return (val,) + (LaurentElement.zero(eq.nvars),) * (self.npoints - 1)

    def _plain_rows(self, eq: CharacterMap):
        """Full-torus rows of the plain table, in index order.

        The sweep starts from the point class of the identity coset, index
        0, and goes up one length at a time: points are sorted by length,
        and the parent of each row, one simple reflection lower, lies in the
        previous layer.  Only that layer is retained, so the transient
        memory stays small even when the consumer only keeps a specialized
        form of each row.  ``left[i - 1][p]`` is the index of s_i times the
        point p and whether that raises (+1), lowers (-1) or keeps (0) its
        length.
        """
        blocks = self.shape.blocks
        left = []
        for i in range(1, self.shape.n):
            acts = (left_action_on_minrep(w, i, blocks) for w in self.points)
            left.append([(self.idx[m], case) for m, case in acts])
        prev: dict = {}
        cur: dict = {}
        for p in range(self.npoints):
            if p == 0:
                row = self._identity_point_row(eq)
            else:
                if self.lengths[p] != self.lengths[p - 1]:
                    prev, cur = cur, {}
                i = next(i for i in range(1, self.shape.n) if left[i - 1][p][1] == -1)
                row = self._sweep_row(eq, prev[left[i - 1][p][0]], i, left[i - 1])
            cur[p] = row
            yield row

    def _sweep_row(self, eq: CharacterMap, row: tuple, i: int, left_i: list) -> tuple:
        mexp = eq.root_exp(i, i + 1)
        mono = LaurentElement.monomial(eq.nvars, mexp)
        out = [None] * self.npoints
        for p in range(self.npoints):
            p2, _ = left_i[p]
            g = row[p] - mono * row[p2].swap_letters(i)
            out[p] = g.divide_exact_one_minus(mexp)
        return tuple(out)

    # -- class construction and ring operations --------------------------------

    def zero_values(self) -> tuple:
        z = self.zero()
        return tuple(z for _ in range(self.npoints))

    def multiply_values(self, a: tuple, b: tuple) -> tuple:
        return tuple(x * y for x, y in zip(a, b))

    # -- diagonal restrictions in factored form ---------------------------------

    def diag_factor_exps(self, widx: int) -> tuple:
        """Binomial factors 1 - t^e of the opposite class's diagonal restriction
        at the index: the cross-block inversions (the normal directions of
        the opposite cell).
        """
        w = self.points[widx]
        blocks = self.shape.blocks
        exps = []
        for bi in range(len(blocks)):
            for bj in range(bi + 1, len(blocks)):
                for i in blocks[bi]:
                    for j in blocks[bj]:
                        if w[i - 1] > w[j - 1]:
                            exps.append(self.chars.root_exp(w[i - 1], w[j - 1]))
        return tuple(exps)

    def _divide_diag(self, val: LaurentElement, widx: int):
        for mexp in self.diag_factor_exps(widx):
            val = val.divide_exact_one_minus(mexp)
        return val

    # -- triangular basis expansion ---------------------------------------------

    def expand_values(self, values) -> dict:
        """Coefficients of a localized class in the opposite Schubert basis.

        Triangular elimination in index order, which sorts points by length
        and so extends the Bruhat order: at each index the residual is
        divided by the diagonal restriction and the coefficient times the
        basis class is subtracted; every division is exact for classes in
        the span.  Full-torus residuals are Laurent polynomials, divided
        factor by factor.  One-variable residuals are Kronecker-packed
        integers (see the module docstring and :meth:`_eliminate_packed`);
        the elimination restarts at twice the digit width whenever a bound
        reaches half the digit base.
        """
        if self.chars.nvars == 1:
            bits = PACK_BITS if self._packed is None else self._packed[0]
            while True:
                coeffs = self._eliminate_packed(values, *self._packed_table(bits))
                if coeffs is not None:
                    return coeffs
                bits *= 2
        residual = [v.copy() for v in values]  # updated in place
        table = self.table(OPPOSITE)
        coeffs: dict = {}
        for widx in range(self.npoints):
            val = residual[widx]
            if val.is_zero():
                continue
            try:
                c = self._divide_diag(val, widx)
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

    def _packed_table(self, bits: int) -> tuple:
        """(bits, diagonal, rows) of the opposite table packed at ``bits``-bit
        digits.

        ``diagonal[w]`` is the packed (lo, P, l1) of the entry (w, w), and
        ``rows[w]`` lists (p, lo, P, l1) for the other nonzero entries of
        row w.  Converted on the first expansion at this width and kept.
        """
        hit = self._packed
        if hit is None or hit[0] != bits:
            table = self.table(OPPOSITE)
            diagonal = [kronecker_pack(row[w], bits) for w, row in enumerate(table)]
            rows = [
                [(p, *kronecker_pack(v, bits)) for p, v in enumerate(row) if v and p != w]
                for w, row in enumerate(table)
            ]
            hit = self._packed = (bits, diagonal, rows)
        return hit

    @staticmethod
    def _eliminate_packed(values, bits, diagonal, rows) -> dict | None:
        """The elimination of :meth:`expand_values` on packed residuals.

        Residual p is z^lo[p] * F_p(z), held as lo[p] and acc[p] = F_p(B)
        with B = 2**bits, and bound[p] >= ||F_p||_1.  A nonzero remainder
        or final residual raises at any width.  The coefficients read are
        exact when every bound stayed below B/2 (module docstring);
        otherwise this returns None, to be rerun wider.
        """
        half = 1 << (bits - 1)
        lo, acc, bound = (list(col) for col in zip(*(kronecker_pack(v, bits) for v in values)))
        coeffs: dict = {}
        peak = 0  # largest |coefficient| bound of a quotient times its divisor
        for widx in range(len(acc)):
            packed = acc[widx]
            if not packed:
                continue
            dlo, dpacked, dl1 = diagonal[widx]
            q, r = divmod(packed, dpacked)
            if r:
                raise NotInSpanError("not in the scalar span of Schubert classes")
            clo = lo[widx] - dlo
            c, cmax, cl1 = kronecker_unpack(clo, q, bits)
            peak = max(peak, cmax * dl1)
            coeffs[widx] = c
            acc[widx] = 0  # F - c * diagonal
            for p, rlo, rpacked, rl1 in rows[widx]:
                shift = clo + rlo - lo[p]
                if shift >= 0:
                    acc[p] -= (q * rpacked) << (bits * shift)
                else:
                    acc[p] = (acc[p] << (-bits * shift)) - q * rpacked
                    lo[p] = clo + rlo
                bound[p] += cl1 * rl1
        if any(acc):
            raise NotInSpanError("not in the scalar span of Schubert classes")
        if max(peak, *bound) >= half:
            return None
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

    # -- basis change -------------------------------------------------------------

    def basis_change(self) -> list:
        """Plain-basis expansion of every opposite class.

        O^v = w0 O_{dual[v]}, so the expansion of O^v is the w0 translate of
        the opposite-basis expansion of the plain class dual[v]: w0 takes
        O^x to O_{dual[x]} and acts on each coefficient as in :meth:`_build`.
        """
        if self._basis_change is None:
            plain, dual = self.table(PLAIN), self.dual
            images, nv = self.chars.w0_images, self.chars.nvars
            self._basis_change = [
                {
                    dual[x]: c.substitute_letters(images, nv)
                    for x, c in self.expand_values(plain[dual[v]]).items()
                }
                for v in range(self.npoints)
            ]
        return self._basis_change
