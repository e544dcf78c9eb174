"""Equivariant K-theory of type-A partial flag varieties by localization.

A class is represented by its restrictions to the torus-fixed points, one
exact Laurent polynomial per point, constrained by divisibility along the
one-dimensional torus orbits (the moment-graph edges).  Two scalar modes
exist: the full torus (n characters), and a one-parameter specialization
t_i -> z^(i-1) used for computations whose reported output is
non-equivariant.  In both modes the opposite table is summed over Hecke
subwords of a reduced word of each point (:meth:`KModel._subword_rows`),
with no division: as Laurent polynomials on the full torus, on
Kronecker-packed integers with one parameter.  The plain table is read off
it by the longest element, X_w = w0 X^{w0 w}, through the index map
w -> w0 w and the action of w0 on the scalars.  With one parameter w0 acts
as z -> z^-1, which is exact because every restriction lies in the
degree-zero sublattice (see :func:`zspec_chars`).

Restriction tables are memoized per (shape, scalar mode, orientation) and
mirrored on disk.

Classes are expanded in the opposite Schubert basis by triangular
elimination (:meth:`KModel.expand_values`); the change of basis holds the
expansions of the plain classes (:meth:`KModel.basis_change`).  With the
full torus the residuals are Laurent polynomials.  With one parameter
they are dense polynomials with small coefficients, held Kronecker-packed
at one exponent origin o per elimination: z^o * F(z), F a polynomial, is
F(B) with B = 2**W, W = PACK_BITS = 32 at first; o is 0 for a product of two
opposite classes and the lowest input exponent otherwise.  Every opposite
entry is a polynomial, and every diagonal entry a product of factors
1 - z^k, k > 0 (:meth:`KModel._subword_rows`), so the table packs at
origin 0, an update acc -= c * row[p] is one integer product and one
subtraction, and the quotient by a diagonal D, one integer divmod by
D(B), is the coefficient at origin o.

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
* Otherwise the elimination reruns at width 2W, in the same loop
  (:meth:`KModel._expand_packed`).  The opposite table is packed on its
  first expansion, once per model and width, and so are the scalars of
  the change of basis, on first read (:meth:`KModel.packed_basis_change`,
  which the sums of scaled products of :mod:`qkcomin.quantum` read).
* The product of two opposite classes (:meth:`KModel.expand_product`) is
  taken packed, point by point, at origin 0: the values multiply,
  F_a(B) * F_b(B) = (F_a * F_b)(B), and the L1 bounds multiply,
  ||F_a * F_b||_1 <= ||F_a||_1 * ||F_b||_1.  So the elimination starts from
  packed columns and the two points above hold.  A product with the unit
  class O^id, in either mode, is the other class, with no elimination.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from qkcomin import cache as diskcache
from qkcomin.laurent import (
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
    length,
    reduced_word,
    right_mul_simple,
)

PLAIN = "plain"
OPPOSITE = "opposite"

# digit width of the first packing of a one-variable table; widened on demand
PACK_BITS = 32


class NotInSpanError(ValueError):
    """The class is not in the span of Schubert classes over the scalars."""


class CharacterMap(namedtuple("CharacterMap", "n nvars images w0_images key")):
    """Assignment of a character monomial to each of the n torus letters.

    ``w0_images`` are the images of the letters under the longest element
    w0 (see KModel._w0_translate).  An immutable value, equal and hashed as
    the tuple of its fields."""

    __slots__ = ()

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

    The root e_a - e_b maps to z^(b - a), so every positive root is z^k
    with k > 0, which the subword formula of :meth:`KModel._subword_rows`
    relies on.  The longest element acts as z -> z^-1.  This is exact on
    restrictions, which all lie in the degree-zero sublattice: w0 sends t^e
    to the monomial with exponent e_i at position n+1-i, which specializes
    to z^(sum_i e_i (n-i)) = z^((n-1) sum e - sum_i e_i (i-1)), and
    sum e = 0.
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
        self._packed_basis_change: dict = {}
        self._packed: tuple | None = None
        self._diag_exps: list | None = None

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
        key = self._cache_key(orientation)
        rows = diskcache.load_table(key, self.npoints, self.chars.nvars) if self.use_cache else None
        if rows is None:
            rows = self._build(orientation)
            if self.use_cache:
                diskcache.store_table(key, rows)
        return rows

    def _build(self, orientation: str) -> list:
        """One table: the opposite one by the subword formula, the plain one
        as its translate by the longest element."""
        if orientation == OPPOSITE:
            return self._subword_rows()
        if orientation == PLAIN:
            return self._w0_translate(self.table(OPPOSITE))
        raise ValueError(f"unknown orientation {orientation!r}")

    def _w0_translate(self, table: list) -> list:
        """The table of the other orientation: X^w = w0 X_{dual[w]}, and w0
        is an involution, so the same map serves both ways.

        Entry (w, p) is w0 applied to entry (dual[w], dual[p]).  Each shared
        source element is translated once and its image shared in turn.
        """
        dual = self.dual
        images, nv = self.chars.w0_images, self.chars.nvars
        distinct = {id(v): v for row in table for v in row}
        moved = {k: v.substitute_letters(images, nv) for k, v in distinct.items()}
        return [tuple(moved[id(table[dual[w]][q])] for q in dual) for w in range(self.npoints)]

    def _subword_rows(self) -> list:
        """Opposite rows by the K-theoretic subword formula.

        The restriction of O^w to the point v is (-1)^l(w) times the sum,
        over the subwords of a reduced word of v whose 0-Hecke (Demazure)
        product is w, of the product of (e - 1) over the letters taken,
        where e = t_b / t_a is the character of e_b - e_a, the negated
        prefix root of the letter (Graham 2002; Willems 2004).  One dynamic
        programme per point
        v runs over its word, keyed by the Demazure product u of the letters
        taken so far: letter i adds (e - 1) times the state of u to the
        state of u s_i if that is longer, and to u itself otherwise.  It
        gives the column of v for every w at once, with no division.

        On the full torus every state is a Laurent polynomial.  Every
        prefix root e_a - e_b has a < b, so in z mode e = z^(b - a) with
        b - a > 0, and every state is a polynomial held Kronecker-packed: a
        step is one shift and one subtraction.  The states' L1 norms sum to
        at most 3^l(v) <= 2^(2 l(v)) <= 2^(W - 2) < 2^(W - 1) at W = 2 max l + 2
        bits per digit, whatever PACK_BITS is, so every coefficient unpacks
        exactly.  In both modes each distinct final value is decoded once and shared.
        """
        n, npoints, nv = self.shape.n, self.npoints, self.chars.nvars
        packed = nv == 1
        bits = 2 * max(self.lengths) + 2
        zero = LaurentElement.zero(nv)
        start = 1 if packed else LaurentElement.one(nv)
        # Demazure products by id; the model points come first, so ids below
        # npoints are the states the table reads
        perms = list(self.points)
        ids = dict(self.idx)
        steps = [[None] * n for _ in perms]  # steps[u][i]: id of the product u * s_i

        def demazure(u: int, i: int) -> int:
            p = perms[u]
            t = u
            if p[i - 1] < p[i]:
                ps = right_mul_simple(p, i)
                t = ids.get(ps)
                if t is None:
                    t = ids[ps] = len(perms)
                    perms.append(ps)
                    steps.append([None] * n)
            steps[u][i] = t
            return t

        shared: dict = {}  # final values, each decoded once
        rows = [[zero] * npoints for _ in range(npoints)]
        for col, v in enumerate(self.points):
            states = {0: start}
            prefix = list(range(1, n + 1))
            for i in reduced_word(v):
                a, b = prefix[i - 1], prefix[i]
                prefix[i - 1], prefix[i] = b, a
                exp = self.chars.root_exp(b, a)
                nxt = states.copy()
                if packed:
                    shift = bits * exp[0]
                    for u, val in states.items():
                        t = steps[u][i]
                        if t is None:
                            t = demazure(u, i)
                        nxt[t] = nxt.get(t, 0) + (val << shift) - val
                else:
                    mono = LaurentElement.monomial(nv, exp)
                    for u, val in states.items():
                        t = steps[u][i]
                        if t is None:
                            t = demazure(u, i)
                        nxt[t] = nxt.get(t, zero) + val * mono - val
                states = nxt
            for u, val in states.items():
                if u < npoints:
                    if self.lengths[u] % 2:
                        val = -val
                    elem = shared.get(val)
                    if elem is None:
                        elem = shared[val] = kronecker_unpack(0, val, bits)[0] if packed else val
                    rows[u][col] = elem
        return [tuple(row) for row in rows]

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
        the opposite cell).  Memoized per model.
        """
        if self._diag_exps is None:
            blocks = self.shape.blocks
            cross = [(i - 1, j - 1) for bi, block in enumerate(blocks)
                     for later in blocks[bi + 1:] for i in block for j in later]
            self._diag_exps = [
                tuple(self.chars.root_exp(w[i], w[j]) for i, j in cross if w[i] > w[j])
                for w in self.points
            ]
        return self._diag_exps[widx]

    # -- triangular basis expansion ---------------------------------------------

    def expand_values(self, values) -> dict:
        """Coefficients of a localized class in the opposite Schubert basis.

        Triangular elimination in index order, which sorts points by length
        and so extends the Bruhat order: at each index the residual is
        divided by the diagonal restriction and the coefficient times the
        basis class is subtracted; every division is exact for classes in
        the span.  Full-torus residuals are Laurent polynomials, each divided
        by its whole diagonal, the product of the binomials of
        :meth:`diag_factor_exps`, in one pass; the pivot's residual is then
        zero.  One-variable residuals are Kronecker-packed
        integers (see the module docstring and :meth:`_expand_packed`);
        the elimination restarts at twice the digit width whenever a bound
        reaches half the digit base.
        """
        if self.chars.nvars == 1:
            origin = min((e for v in values for e in v.terms), default=0)
            return self._expand_packed(origin, lambda bits, _entries: map(list, zip(
                *(kronecker_pack(v, bits, origin)[1:] for v in values)
            )))
        residual = [v.copy() for v in values]  # updated in place
        table = self.table(OPPOSITE)
        coeffs: dict = {}
        for widx in range(self.npoints):
            val = residual[widx]
            if val.is_zero():
                continue
            try:
                c = val.divide_exact_one_minus(*self.diag_factor_exps(widx))
            except NotDivisibleError as exc:
                raise NotInSpanError("not in the scalar span of Schubert classes") from exc
            coeffs[widx] = c
            residual[widx] = self.zero()  # val - c * diagonal
            for p, rv in enumerate(table[widx]):
                if rv.terms and p != widx:
                    subtract_product_into(residual[p], c, rv)
        if any(not v.is_zero() for v in residual):
            raise NotInSpanError("not in the scalar span of Schubert classes")
        return coeffs

    def expand_product(self, a: int, b: int) -> dict:
        """Opposite-basis expansion of the product of the opposite classes of
        indices a and b.

        Index 0, the identity, is O^id, the unit class: a product with it is
        the other class, and no elimination runs.  Otherwise, in one
        variable, the product is taken on the packed table: at each point
        where both rows are nonzero the values multiply and the L1 bounds
        multiply (module docstring), and the elimination starts from those
        columns at origin 0.
        """
        if not a or not b:
            return {a or b: self.one()}
        if self.chars.nvars != 1:
            opp = self.table(OPPOSITE)
            return self.expand_values(self.multiply_values(opp[a], opp[b]))

        def columns(_bits, entries):
            acc, bound = [0] * self.npoints, [0] * self.npoints
            ea, eb = entries[a], entries[b]
            if len(ea) > len(eb):
                ea, eb = eb, ea
            for p, (aval, al1) in ea.items():
                hit = eb.get(p)
                if hit is not None:
                    acc[p], bound[p] = aval * hit[0], al1 * hit[1]
            return acc, bound

        return self._expand_packed(0, columns)

    def _expand_packed(self, origin: int, columns) -> dict:
        """The elimination of :meth:`expand_values` on packed residuals, at
        exponent origin ``origin``, doubling the width until the bounds
        prove the coefficients exact.

        At each width ``columns(bits, entries)`` gives two lists, updated in
        place: residual p is z^origin * F_p(z), held as acc[p] = F_p(B) with
        B = 2**bits, and bound[p] >= ||F_p||_1.  ``entries[w]`` maps each
        point p of a nonzero entry (w, p) of the opposite table to its value
        and L1 norm (P, l1) at origin 0, packed on the first expansion at
        each width and kept.  A nonzero remainder or final residual raises
        at any width.  The coefficients read are exact when every bound
        stayed below B/2 (module docstring); otherwise the elimination
        reruns at twice the width.
        """
        bits = PACK_BITS if self._packed is None else self._packed[0]
        while True:
            if self._packed is None or self._packed[0] != bits:
                self._packed = (bits, [
                    {p: kronecker_pack(v, bits, 0)[1:] for p, v in enumerate(row) if v}
                    for row in self.table(OPPOSITE)
                ])
            entries = self._packed[1]
            acc, bound = columns(bits, entries)
            coeffs: dict = {}
            peak = 0  # largest |coefficient| bound of a quotient times its divisor
            for widx in range(len(acc)):
                packed = acc[widx]
                if not packed:
                    continue
                dpacked, dl1 = entries[widx][widx]
                q, r = divmod(packed, dpacked)
                if r:
                    raise NotInSpanError("not in the scalar span of Schubert classes")
                c, cmax, cl1 = kronecker_unpack(origin, q, bits)
                peak = max(peak, cmax * dl1)
                coeffs[widx] = c
                acc[widx] = 0  # F - c * diagonal
                for p, (rpacked, rl1) in entries[widx].items():
                    if p != widx:
                        acc[p] -= q * rpacked
                        bound[p] += cl1 * rl1
            if any(acc):
                raise NotInSpanError("not in the scalar span of Schubert classes")
            if max(peak, *bound) < 1 << (bits - 1):
                return coeffs
            bits *= 2

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
        """Opposite-basis expansion of every plain class: O_v = sum_x c_x O^x."""
        if self._basis_change is None:
            self._basis_change = [self.expand_values(row) for row in self.table(PLAIN)]
        return self._basis_change

    def packed_basis_change(self, bits: int) -> list:
        """The scalars of :meth:`basis_change` packed (lo, value, l1) at
        ``bits``-bit digits, one list per plain class in the order of its
        items; kept per width."""
        rows = self._packed_basis_change.get(bits)
        if rows is None:
            rows = self._packed_basis_change[bits] = [
                [kronecker_pack(c, bits) for c in row.values()] for row in self.basis_change()
            ]
        return rows
