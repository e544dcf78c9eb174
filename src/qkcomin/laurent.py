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
two monomials alias; swapping or permuting letters moves digits and keeps
them in range.

>>> a = LaurentElement.parse("1 - t1*t2^-1", 2)
>>> b = LaurentElement.parse("1 + t1*t2^-1", 2)
>>> str(a * b)
'1 - t1^2*t2^-2'
>>> str(exact_div_binomial(a * b, a))
'1 + t1*t2^-1'
"""

from __future__ import annotations

import re
import struct
from functools import lru_cache
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


def _pack(exp, nvars: int) -> int:
    """The key of an exponent vector, after checking its width and range."""
    exp = tuple(exp)
    if len(exp) != nvars:
        raise ValueError("exponent width does not match variable count")
    _check_range(nvars, max(map(abs, exp), default=0))
    return sum(x * w for x, w in zip(exp, _layout(nvars)[0]))


def _unpack(key: int, nvars: int) -> tuple:
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


def _element(nvars: int, terms: dict, bound: int) -> "LaurentElement":
    """An element from packed terms with no zero coefficient."""
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
        return _element(nvars, {}, 0)

    @classmethod
    def one(cls, nvars: int) -> "LaurentElement":
        return _element(nvars, {0: 1}, 0)

    @classmethod
    def integer(cls, nvars: int, c: int) -> "LaurentElement":
        return _element(nvars, {0: c} if c else {}, 0)

    @classmethod
    def monomial(cls, nvars: int, exp: tuple, coeff: int = 1) -> "LaurentElement":
        key = _pack(exp, nvars)
        return _element(nvars, {key: coeff} if coeff else {}, max(map(abs, exp), default=0))

    @classmethod
    def variable(cls, nvars: int, i: int) -> "LaurentElement":
        """The variable t_i, 1-based."""
        return cls.monomial(nvars, tuple(1 if k == i - 1 else 0 for k in range(nvars)))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1}

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
        return _element(self.nvars, out, max(self._bound, other._bound))

    def __add__(self, other):
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.nvars, {e: -c for e, c in self.terms.items()}, self._bound)

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
            return _element(self.nvars, {}, 0)
        bound = self._bound + other._bound
        if bound > EXPONENT_LIMIT:
            _check_range(self.nvars, bound)
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((ea, ca),) = a.items()
            return _element(self.nvars, {e + ea: ca * c for e, c in b.items()}, bound)
        # the monomial of a term pair is the sum of the two keys
        acc: dict = {}
        bb = list(b.items())
        for ea, ca in a.items():
            for eb, cb in bb:
                e = ea + eb
                acc[e] = acc.get(e, 0) + ca * cb
        return _element(self.nvars, {e: c for e, c in acc.items() if c}, bound)

    __rmul__ = __mul__

    def copy(self) -> "LaurentElement":
        """A copy with its own term dict, for :func:`subtract_product_into`."""
        return _element(self.nvars, dict(self.terms), self._bound)

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
        return _element(new_nvars, {t: c for t, c in acc.items() if c}, bound)

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
        return _element(n, out, self._bound)

    def permute_letters(self, sigma: tuple) -> "LaurentElement":
        """Apply t_i -> t_{sigma(i)} for a permutation in one-line notation."""
        n = self.nvars
        if sorted(sigma) != list(range(1, n + 1)):
            raise ValueError(f"{sigma} is not a permutation of 1..{n}")
        weights = _layout(n)[0]
        targets = [weights[s - 1] for s in sigma]
        out = {sum(map(mul, _unpack(e, n), targets)): c for e, c in self.terms.items()}
        return _element(n, out, self._bound)

    def exponent_sums(self) -> set:
        """Set of total degrees of the monomials (for lattice-invariance asserts)."""
        return {sum(_unpack(e, self.nvars)) for e in self.terms}

    # -- division by 1 - monomial -------------------------------------------

    def divide_exact_one_minus(self, mexp: tuple) -> "LaurentElement":
        """Exact quotient by ``1 - t^mexp`` for a nonzero exponent vector.

        Solves h*(1 - M) = f by the ladder recursion h[e] = f[e] + h[e - M]
        within each residue class of exponents modulo M.  Raises
        :class:`NotDivisibleError` when no exact quotient exists.

        The pivot p is a letter where |M_p| is largest.  A term e has the
        ladder step j = e_p // M_p and the residue key e - j*M, computed on
        packed ints; two terms share the key iff they differ by a multiple
        of M, and within a class the packed ints are monotone in j, so they
        are sorted directly.  Digit-range argument: with |e_k|, |M_k| <= L
        and |j| <= L/|M_p| + 1, each digit of a residue vector is at most
        L + (L/|M_p| + 1)|M_k| <= 3L in size, so two residue vectors differ
        by less than 6L < B in every digit and pack to the same int only if
        they are equal.  The quotient's monomials lie between those of f
        along each ladder, so they keep f's bound.
        """
        terms = self.terms
        n = self.nvars
        if not terms:
            return _element(n, {}, 0)
        mexp = tuple(mexp)
        if not any(mexp):
            raise ValueError("binomial divisor must be 1 minus a nontrivial monomial")
        km = _pack(mexp, n)
        if n == 1:
            return self._divide_one_minus_z(km)
        p = max(range(n), key=lambda k: abs(mexp[k]))
        mp = mexp[p]
        _, shifts, offset, _ = _layout(n)
        shift = shifts[p]
        groups: dict = {}
        for e in terms:
            j = ((((e + offset) >> shift) & _MASK) - _BIAS) // mp
            groups.setdefault(e - j * km, []).append(e)
        descending = km < 0
        out: dict = {}
        for keys in groups.values():
            keys.sort(reverse=descending)
            carry = 0
            for e in keys:
                c = terms[e]
                if carry:
                    for q in range(pos + km, e, km):
                        out[q] = carry
                    carry += c
                else:
                    carry = c
                if carry:
                    out[e] = carry
                pos = e
            if carry:
                raise NotDivisibleError("not divisible")
        return _element(n, out, self._bound)

    def _divide_one_minus_z(self, k: int) -> "LaurentElement":
        """One-variable case of :meth:`divide_exact_one_minus`, by 1 - z^k.

        Runs the ladder h[e] = f[e] + h[e - k] in place on the dense
        coefficient list of f, upward for k > 0 and downward for k < 0.
        The quotient is exact iff the |k| rungs where the ladder ends, past
        the support of h, are left at zero.
        """
        lo = min(self.terms)
        f = [0] * (max(self.terms) - lo + 1)
        for e, c in self.terms.items():
            f[e - lo] = c
        n = len(f)
        if k > 0:
            for i in range(k, n):
                f[i] += f[i - k]
            head, tail = range(n - k), f[max(n - k, 0):]
        else:
            k = -k
            for i in range(n - k - 1, -1, -1):
                f[i] += f[i + k]
            head, tail = range(k, n), f[:k]
        if any(tail):
            raise NotDivisibleError("not divisible")
        return _element(1, {lo + i: f[i] for i in head if f[i]}, self._bound)

    def divisible_by_one_minus(self, mexp: tuple) -> bool:
        try:
            self.divide_exact_one_minus(mexp)
            return True
        except NotDivisibleError:
            return False

    # -- grammar -------------------------------------------------------------

    def __str__(self) -> str:
        """The canonical grammar; sorting the keys sorts the exponent vectors."""
        terms = self.terms
        if not terms:
            return "0"
        n = self.nvars
        names = [f"t{k + 1}" for k in range(n)]
        parts = []
        for e in sorted(terms):
            c = terms[e]
            vars_ = "*".join(
                name if x == 1 else f"{name}^{x}"
                for name, x in zip(names, _unpack(e, n))
                if x
            )
            mag = abs(c)
            if not vars_:
                body = str(mag)
            elif mag == 1:
                body = vars_
            else:
                body = f"{mag}*{vars_}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"LaurentElement({self.nvars}, {self})"

    _TERM = re.compile(
        r"^(?P<coeff>\d+)?(?P<star>\*)?(?P<vars>t\d+(?:\^-?\d+)?(?:\*t\d+(?:\^-?\d+)?)*)?$"
    )

    @classmethod
    def parse(cls, text: str, nvars: int) -> "LaurentElement":
        """Parse the canonical grammar (inverse of :meth:`__str__`)."""
        s = text.strip()
        if s == "0":
            return cls(nvars)
        s = s.replace(" - ", " + -").replace(" + ", "|")
        weights = _layout(nvars)[0]
        acc: dict = {}
        bound = 0
        for raw in s.split("|"):
            raw = raw.strip()
            sign = 1
            while raw.startswith("-"):
                sign = -sign
                raw = raw[1:]
            m = cls._TERM.match(raw)
            if not m:
                raise ValueError(f"bad term {raw!r}")
            if bool(m.group("star")) != bool(m.group("coeff") and m.group("vars")):
                raise ValueError(f"bad term {raw!r}")
            coeff = int(m.group("coeff")) if m.group("coeff") else 1
            key = 0
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
            acc[key] = acc.get(key, 0) + sign * coeff
        _check_range(nvars, bound)
        return _element(nvars, {e: c for e, c in acc.items() if c}, bound)


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


def exact_div_binomial(f: LaurentElement, g: LaurentElement) -> LaurentElement:
    """Exact quotient f/g where g has the form 1 - (nontrivial monomial)."""
    if g.nvars != f.nvars:
        raise ValueError("variable counts differ")
    terms = dict(g.terms)
    if terms.pop(0, None) != 1 or len(terms) != 1:
        raise ValueError("divisor must be 1 minus a monomial")
    ((mkey, mc),) = terms.items()
    if mc != -1:
        raise ValueError("divisor must be 1 minus a monomial")
    return f.divide_exact_one_minus(_unpack(mkey, g.nvars))
