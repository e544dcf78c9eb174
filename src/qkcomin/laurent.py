"""Exact arithmetic in the character ring of a torus.

Scalars throughout the package are integer-coefficient Laurent polynomials
in n variables t1..tn (the representation ring of an n-dimensional torus).
Elements are stored as a dict from packed monomials to nonzero
arbitrary-precision coefficients.  The canonical term order is ascending
lexicographic on exponent vectors; the printed grammar is stable under this
order, e.g. ``1 - t1*t2^-1``.

Packing.  An exponent vector (e_1, ..., e_n) is stored as the one int
``sum(e_k * B**(n - k))`` with digit base B = 2**16, so the monomial of a
product is the sum of two ints.  With one variable the int is the exponent
itself and is unbounded.  With two or more, every stored exponent has
|e_k| <= EXPONENT_LIMIT = B/8, and then:

* the packing is injective, and order-preserving from lexicographic order
  on vectors to the order of ints: a vector whose digits all lie in
  (-B, B) packs to 0 only if it is 0, and a step of one in digit k
  outweighs any difference of the lower digits, which is at most
  (B - 2) * (B**(n - k) - 1) / (B - 1) < B**(n - k);
* adding B/2 to every digit makes them all nonnegative, which unpacks a
  key with shifts and masks.

Every element carries a bound on its largest |exponent|: exact for
elements built from exponent vectors or parsed, the sum of the factors'
bounds for a product.  Construction, :meth:`LaurentElement.parse`,
:meth:`LaurentElement.substitute_letters` and every product check it
against the limit and raise :class:`ExponentRangeError` instead of letting
two monomials alias; swapping letters moves digits and keeps them in
range.

:func:`pack_monomials`, :func:`unpack_key` and :func:`packed_element`
expose the packed form to the disk cache, which stores exponent vectors.

>>> a = LaurentElement.parse("1 - t1*t2^-1", 2)
>>> b = LaurentElement.parse("1 + t1*t2^-1", 2)
>>> str(a * b)
'1 - t1^2*t2^-2'
"""

from __future__ import annotations

import re
import struct
from functools import lru_cache, reduce
from operator import mul


class NotDivisibleError(ArithmeticError):
    """No exact quotient exists.  Indicates a convention bug, not bad data."""


class ExponentRangeError(OverflowError):
    """An exponent would leave the range the packed monomials can hold."""


_BITS = 16  # one struct "h" field per digit
_MASK = (1 << _BITS) - 1
_BIAS = 1 << (_BITS - 1)
EXPONENT_LIMIT = 1 << (_BITS - 3)


@lru_cache(maxsize=None)
def _layout(nvars: int) -> tuple:
    """(weights, shifts, offset, digits) of the packing of ``nvars`` letters.

    Digit k has weight 2**shifts[k].  Adding ``offset`` biases every digit
    by B/2; xor with ``offset`` then flips the top bit of each biased digit,
    which leaves each exponent as a 16-bit two's complement field, and
    ``digits`` reads those fields from the big-endian bytes.
    """
    shifts = tuple(_BITS * (nvars - 1 - k) for k in range(nvars))
    weights = tuple(1 << s for s in shifts)
    return weights, shifts, _BIAS * sum(weights), struct.Struct(f">{nvars}h").unpack


def _check_range(nvars: int, bound: int) -> None:
    if nvars > 1 and bound > EXPONENT_LIMIT:
        raise ExponentRangeError(
            f"exponent up to {bound} exceeds the packing limit {EXPONENT_LIMIT}"
        )


def pack_monomials(exps: list, nvars: int) -> tuple:
    """(keys, bounds): the key and the largest |exponent| of each exponent
    vector of ``exps``, after checking their width and range."""
    if set(map(len, exps)) - {nvars}:
        raise ValueError("exponent width does not match variable count")
    bounds = [max(map(abs, e), default=0) for e in exps]
    _check_range(nvars, max(bounds, default=0))
    weights = _layout(nvars)[0]
    return [sum(map(mul, e, weights)) for e in exps], bounds


def _pack(exp, nvars: int) -> int:
    """The key of one exponent vector, after checking its width and range."""
    (key,), _ = pack_monomials([tuple(exp)], nvars)
    return key


def unpack_key(key: int, nvars: int) -> tuple:
    """The exponent vector of a key."""
    if nvars == 1:
        return (key,)
    _, _, offset, digits = _layout(nvars)
    return digits(((key + offset) ^ offset).to_bytes(2 * nvars, "big"))


@lru_cache(maxsize=None)
def _substitution(images: tuple, new_nvars: int) -> tuple:
    """The packed images of a letter substitution, and the factor by which
    it can grow the largest |exponent|."""
    keys = tuple(_pack(img, new_nvars) for img in images)
    norm = max((sum(abs(img[j]) for img in images) for j in range(new_nvars)), default=0)
    return keys, norm


@lru_cache(maxsize=None)
def _divisor(nvars: int, mexps: tuple) -> tuple:
    """(lead key, lead coefficient, the other terms with negated
    coefficients, least key) of the product of the binomials 1 - t^m."""
    one = LaurentElement.one(nvars)
    d = reduce(mul, (one - LaurentElement.monomial(nvars, m) for m in mexps), one)
    lead, low = max(d.terms), min(d.terms)
    return lead, d.terms[lead], tuple((k, -c) for k, c in d.terms.items() if k != lead), low


def packed_element(nvars: int, terms: dict, bound: int) -> "LaurentElement":
    """An element from packed terms with no zero coefficient, and ``bound``
    at least its largest |exponent|; neither is checked here."""
    r = object.__new__(LaurentElement)
    r.nvars = nvars
    r.terms = terms
    r._bound = bound
    return r


class LaurentElement:
    """An integer-coefficient Laurent polynomial in ``nvars`` variables."""

    __slots__ = ("nvars", "terms", "_bound")

    def __init__(self, nvars: int, terms: dict | None = None):
        """``terms`` maps exponent tuples to coefficients; zeros are dropped."""
        kept = {e: c for e, c in (terms or {}).items() if c}
        self.nvars = nvars
        self.terms = {_pack(e, nvars): c for e, c in kept.items()}
        self._bound = max((abs(x) for e in kept for x in e), default=0)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentElement":
        return packed_element(nvars, {}, 0)

    @classmethod
    def one(cls, nvars: int) -> "LaurentElement":
        return packed_element(nvars, {0: 1}, 0)

    @classmethod
    def integer(cls, nvars: int, c: int) -> "LaurentElement":
        return packed_element(nvars, {0: c} if c else {}, 0)

    @classmethod
    def monomial(cls, nvars: int, exp: tuple, coeff: int = 1) -> "LaurentElement":
        key = _pack(exp, nvars)
        return packed_element(nvars, {key: coeff} if coeff else {}, max(map(abs, exp), default=0))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "LaurentElement":
        if isinstance(other, LaurentElement):
            if other.nvars != self.nvars:
                raise ValueError("variable counts differ")
            return other
        if isinstance(other, int):
            return LaurentElement.integer(self.nvars, other)
        return NotImplemented

    def _merge(self, other, sign: int):
        """self + sign * other, as one dict: the larger side's terms, copied."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
            out = dict(big) if sign > 0 else {e: -c for e, c in big.items()}
            sign = 1
        else:
            out = dict(big)
        for e, c in small.items():
            s = out.get(e, 0) + sign * c
            if s:
                out[e] = s
            else:
                del out[e]
        return packed_element(self.nvars, out, max(self._bound, other._bound))

    def __add__(self, other):
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return packed_element(self.nvars, {e: -c for e, c in self.terms.items()}, self._bound)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return packed_element(self.nvars, {}, 0)
        bound = self._bound + other._bound
        if bound > EXPONENT_LIMIT:
            _check_range(self.nvars, bound)
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((ea, ca),) = a.items()
            return packed_element(self.nvars, {e + ea: ca * c for e, c in b.items()}, bound)
        # the monomial of a term pair is the sum of the two keys
        acc: dict = {}
        bb = list(b.items())
        for ea, ca in a.items():
            for eb, cb in bb:
                e = ea + eb
                acc[e] = acc.get(e, 0) + ca * cb
        return packed_element(self.nvars, {e: c for e, c in acc.items() if c}, bound)

    __rmul__ = __mul__

    def copy(self) -> "LaurentElement":
        """A copy with its own term dict, for :func:`subtract_product_into`."""
        return packed_element(self.nvars, dict(self.terms), self._bound)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, self.key()))

    def key(self) -> tuple:
        """Canonical sorted term tuple, usable as a dict key."""
        return tuple(sorted(self.terms.items()))

    # -- substitutions ------------------------------------------------------

    def specialize_ones(self) -> int:
        """Set every variable to 1 (sum of coefficients)."""
        return sum(self.terms.values())

    def substitute_letters(self, images: tuple, new_nvars: int) -> "LaurentElement":
        """Monomial substitution t_i -> monomial with exponent ``images[i-1]``.

        The substitution is linear on exponent vectors, so a term's new key
        is the sum of its exponents times the packed images.
        """
        n = self.nvars
        if len(images) != n:
            raise ValueError("one image per variable is needed")
        image_keys, norm = _substitution(tuple(map(tuple, images)), new_nvars)
        bound = self._bound * norm
        _check_range(new_nvars, bound)
        acc: dict = {}
        if n == 1:
            (w,) = image_keys
            for e, c in self.terms.items():
                t = e * w
                acc[t] = acc.get(t, 0) + c
        else:
            _, _, offset, digits = _layout(n)
            nbytes = 2 * n
            for e, c in self.terms.items():
                exps = digits(((e + offset) ^ offset).to_bytes(nbytes, "big"))
                t = sum(map(mul, exps, image_keys))
                acc[t] = acc.get(t, 0) + c
        return packed_element(new_nvars, {t: c for t, c in acc.items() if c}, bound)

    def swap_letters(self, i: int) -> "LaurentElement":
        """Exchange variables t_i and t_{i+1} (1-based)."""
        n = self.nvars
        if not 1 <= i < n:
            raise ValueError(f"no letters t{i}, t{i + 1} among {n}")
        weights, shifts, offset, _ = _layout(n)
        hi, lo = shifts[i - 1], shifts[i]
        step = weights[i - 1] - weights[i]
        out = {}
        for e, c in self.terms.items():
            u = e + offset
            out[e + (((u >> lo) & _MASK) - ((u >> hi) & _MASK)) * step] = c
        return packed_element(n, out, self._bound)

    # -- division by products of 1 - monomial ---------------------------------

    def divide_exact_one_minus(self, *mexps: tuple) -> "LaurentElement":
        """Exact quotient by D = (1 - t^m_1)...(1 - t^m_k) for nonzero exponent
        vectors m_i, in one pass; with no factor, an equal new element.

        Leading-term division from the largest key down.  Keys are ordered as
        their exponent vectors lexicographically, a group order, so
        LT(q*D) = LT(q)*LT(D), and LC(D) = +-1.  Each step divides the
        remainder's largest term by LT(D) for the next quotient term and
        subtracts that term times D.  It raises :class:`NotDivisibleError`
        as soon as a quotient key falls below min(f) - min(D), the least key
        of any exact quotient, or a quotient exponent goes past f's bound.

        Neither rule rejects a true quotient q: Newt(f) = Newt(q) + Newt(D),
        and Newt(D), the sum of the segments [0, m_i], holds 0, so Newt(q)
        lies in Newt(f), within f's bound.  So every key the remainder holds
        is a vector with digits at most f's bound plus D's, each <= B/8
        with two or more letters, where the packing is injective and keeps
        the order: an empty remainder proves f = q*D.  Checked at every
        step, the bound also ends a failing pass before the remainder
        spreads.  With one letter the key is the exponent itself, of any
        size.
        """
        n = self.nvars
        mexps = tuple(map(tuple, mexps))
        if not all(map(any, mexps)):
            raise ValueError("binomial divisor must be 1 minus a nontrivial monomial")
        terms = self.terms
        if not terms or not mexps:
            return packed_element(n, dict(terms), self._bound)
        lead, sign, rest, low = _divisor(n, mexps)
        floor = min(terms) - low
        bound = self._bound
        rem = dict(terms)
        get = rem.get
        out: dict = {}
        while rem:
            e = max(rem)
            q = e - lead
            if q < floor or max(map(abs, unpack_key(q, n))) > bound:
                raise NotDivisibleError("not divisible")
            c = out[q] = rem.pop(e) * sign
            for k, dc in rest:  # the terms of D below the lead, negated
                k += q
                s = get(k, 0) + c * dc
                if s:
                    rem[k] = s
                else:
                    del rem[k]
        return packed_element(n, out, bound)

    # -- grammar -------------------------------------------------------------

    def __str__(self) -> str:
        """The canonical grammar; sorting the keys sorts the exponent vectors.

        The text of each monomial is memoized per variable count and key
        (:data:`_MONOMIAL_TEXT`)."""
        terms = self.terms
        if not terms:
            return "0"
        n = self.nvars
        texts = _MONOMIAL_TEXT.get(n)
        if texts is None:
            texts = _MONOMIAL_TEXT[n] = {}
        parts = []
        for e in sorted(terms):
            c = terms[e]
            mono = texts.get(e)
            if mono is None:
                mono = texts[e] = _monomial_text(e, n)
            if c < 0:
                parts.append(" - ")
                c = -c
            else:
                parts.append(" + ")
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        parts[0] = "-" if parts[0] == " - " else ""
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentElement({self.nvars}, {self})"

    @classmethod
    def parse(cls, text: str, nvars: int) -> "LaurentElement":
        """Parse the canonical grammar (inverse of :meth:`__str__`)."""
        s = text.strip()
        if s == "0":
            return packed_element(nvars, {}, 0)
        s = s.replace(" - ", " + -").replace(" + ", "|")
        acc: dict = {}
        bound = 0
        for raw in s.split("|"):
            key, coeff, b = _parse_term(raw, nvars)
            acc[key] = acc.get(key, 0) + coeff
            bound = max(bound, b)
        _check_range(nvars, bound)
        return packed_element(nvars, {e: c for e, c in acc.items() if c}, bound)


_TERM = re.compile(
    r"^(?P<coeff>\d+)?(?P<star>\*)?(?P<vars>t\d+(?:\^-?\d+)?(?:\*t\d+(?:\^-?\d+)?)*)?$"
)


def _parse_term(raw: str, nvars: int) -> tuple:
    """(packed key, signed coefficient, largest |exponent|) of one term.

    ``raw`` is the term as split from a sum, sign included.  The range of
    the exponents is left to the caller, which checks the whole element.
    A malformed term raises ``ValueError``.
    """
    raw = raw.strip()
    sign = 1
    while raw.startswith("-"):
        sign = -sign
        raw = raw[1:]
    m = _TERM.match(raw)
    if not m:
        raise ValueError(f"bad term {raw!r}")
    if bool(m.group("star")) != bool(m.group("coeff") and m.group("vars")):
        raise ValueError(f"bad term {raw!r}")
    coeff = int(m.group("coeff")) if m.group("coeff") else 1
    weights = _layout(nvars)[0]
    key = 0
    bound = 0
    if m.group("vars"):
        seen = []
        for piece in m.group("vars").split("*"):
            if "^" in piece:
                var, _, power = piece.partition("^")
                e = int(power)
                if e == 1:
                    raise ValueError(f"non-canonical exponent in {piece!r}")
            else:
                var, e = piece, 1
            idx = int(var[1:])
            if not 1 <= idx <= nvars:
                raise ValueError(f"variable {var} out of range")
            if e == 0 or idx in seen:
                raise ValueError(f"non-canonical term {raw!r}")
            seen.append(idx)
            key += e * weights[idx - 1]
            bound = max(bound, abs(e))
    elif not m.group("coeff"):
        raise ValueError(f"bad term {raw!r}")
    return key, sign * coeff, bound


# nvars -> packed key -> the text of the monomial, "" for the constant one
_MONOMIAL_TEXT: dict = {}


def _monomial_text(key: int, nvars: int) -> str:
    return "*".join(
        f"t{k}" if x == 1 else f"t{k}^{x}"
        for k, x in enumerate(unpack_key(key, nvars), start=1)
        if x
    )


def sum_elements(nvars: int, elements) -> LaurentElement:
    """The sum of the elements, added into one term dict."""
    acc: dict = {}
    get = acc.get
    bound = 0
    for f in elements:
        if f.nvars != nvars:
            raise ValueError("variable counts differ")
        for e, c in f.terms.items():
            acc[e] = get(e, 0) + c
        if f._bound > bound:
            bound = f._bound
    return packed_element(nvars, {e: c for e, c in acc.items() if c}, bound)


def subtract_product_into(acc: LaurentElement, a: LaurentElement, b: LaurentElement) -> None:
    """``acc -= a * b`` in place, without building the product or a new sum.

    Elements are otherwise immutable values that may be shared or hashed, so
    ``acc`` must be private to the caller, e.g. from :meth:`LaurentElement.copy`,
    and must not be a factor.  The product's bound is checked as in ``a * b``
    before ``acc`` changes.
    """
    x, y = a.terms, b.terms
    if not x or not y:
        return
    if not acc.nvars == a.nvars == b.nvars:
        raise ValueError("variable counts differ")
    if acc is a or acc is b:
        raise ValueError("the accumulator must not be a factor")
    bound = a._bound + b._bound
    if bound > EXPONENT_LIMIT:
        _check_range(acc.nvars, bound)
    if len(x) > len(y):
        x, y = y, x
    out = acc.terms
    get = out.get
    for ex, cx in x.items():
        for ey, cy in y.items():
            e = ex + ey
            s = get(e, 0) - cx * cy
            if s:
                out[e] = s
            else:
                del out[e]
    if bound > acc._bound:
        acc._bound = bound


def kronecker_pack(f: LaurentElement, bits: int, lo: int | None = None) -> tuple:
    """(lo, P, l1) of a one-variable element f = z^lo * F(z).

    F is a polynomial, P = F(2**bits) is its Kronecker substitution and l1
    the sum of |coefficients|.  lo is the lowest exponent of f (0 for zero)
    unless given, and a given lo must not exceed it.  Evaluating at 2**bits
    is a ring map, so sums and products of packed values are exact at any
    width; :func:`kronecker_unpack` reads the coefficients back when they
    are known to lie below 2**(bits - 1) in size.
    """
    terms = f.terms
    if lo is None:
        lo = min(terms, default=0)
    packed = sum(c << (bits * (e - lo)) for e, c in terms.items())
    return lo, packed, sum(map(abs, terms.values()))


def kronecker_unpack(lo: int, packed: int, bits: int) -> tuple:
    """(z^lo * F(z), largest |coefficient|, l1) for the F with F(2**bits) = packed.

    F is read in balanced digits, each in [-2**(bits - 1), 2**(bits - 1)).
    Every integer has exactly one such expansion, so this is the F of the
    packing whenever that F had all its coefficients below 2**(bits - 1)
    in size; the caller proves that bound.  The keys come in increasing
    order and the last digit read is nonzero, so the largest |exponent|
    is that of the first key or of the last.
    """
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    terms: dict = {}
    e = lo
    cmax = l1 = 0
    while packed:
        d = packed & mask
        if d >= half:
            d -= mask + 1
        if d:
            terms[e] = d
            size = d if d > 0 else -d
            l1 += size
            if size > cmax:
                cmax = size
        packed = (packed - d) >> bits
        e += 1
    bound = max(-next(iter(terms)), e - 1) if terms else 0
    return packed_element(1, terms, bound), cmax, l1
