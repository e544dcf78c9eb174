"""Exact arithmetic in the character ring of a torus.

Scalars throughout the package are integer-coefficient Laurent polynomials
in n variables t1..tn (the representation ring of an n-dimensional torus).
Elements are stored as a mapping from integer exponent vectors to nonzero
arbitrary-precision coefficients.  The canonical term order is ascending
lexicographic on exponent vectors; the printed grammar is stable under this
order, e.g. ``1 - t1*t2^-1``.

>>> a = LaurentElement.parse("1 - t1*t2^-1", 2)
>>> b = LaurentElement.parse("1 + t1*t2^-1", 2)
>>> str(a * b)
'1 - t1^2*t2^-2'
>>> str(exact_div_binomial(a * b, a))
'1 + t1*t2^-1'
"""

from __future__ import annotations

import re


class NotDivisibleError(ArithmeticError):
    """No exact quotient exists.  Indicates a convention bug, not bad data."""


class LaurentElement:
    """An integer-coefficient Laurent polynomial in ``nvars`` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        if terms is None:
            self.terms = {}
        else:
            self.terms = {e: c for e, c in terms.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentElement":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "LaurentElement":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def integer(cls, nvars: int, c: int) -> "LaurentElement":
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def monomial(cls, nvars: int, exp: tuple, coeff: int = 1) -> "LaurentElement":
        exp = tuple(exp)
        if len(exp) != nvars:
            raise ValueError("exponent width does not match variable count")
        return cls(nvars, {exp: coeff} if coeff else {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "LaurentElement":
        """The variable t_i, 1-based."""
        exp = tuple(1 if k == i - 1 else 0 for k in range(nvars))
        return cls(nvars, {exp: 1})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.nvars: 1}

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
        r = LaurentElement(self.nvars)
        r.terms = out
        return r

    def __add__(self, other):
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self):
        r = LaurentElement(self.nvars)
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

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
            return LaurentElement(self.nvars)
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((ea, ca),) = a.items()
            if ea == (0,) * self.nvars:
                out = {e: ca * c for e, c in b.items()}
            else:
                out = {
                    tuple(x + y for x, y in zip(e, ea)): ca * c for e, c in b.items()
                }
            r = LaurentElement(self.nvars)
            r.terms = out
            return r
        if self.nvars == 1:
            # one variable (z mode): add plain int exponents and key only
            # the nonzero results, instead of a tuple per term pair
            acc: dict = {}
            bb = [(eb, cb) for (eb,), cb in b.items()]
            for (ea,), ca in a.items():
                for eb, cb in bb:
                    e = ea + eb
                    acc[e] = acc.get(e, 0) + ca * cb
            r = LaurentElement(1)
            r.terms = {(e,): c for e, c in acc.items() if c}
            return r
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        r = LaurentElement(self.nvars)
        r.terms = out
        return r

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            if other == 0:
                return not self.terms
            return self.terms == {(0,) * self.nvars: other}
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
        """Monomial substitution t_i -> monomial with exponent ``images[i-1]``."""
        out: dict = {}
        zero = (0,) * new_nvars
        for e, c in self.terms.items():
            acc = list(zero)
            for k, ek in enumerate(e):
                if ek:
                    img = images[k]
                    for j, ij in enumerate(img):
                        acc[j] += ek * ij
            t = tuple(acc)
            s = out.get(t, 0) + c
            if s:
                out[t] = s
            elif t in out:
                del out[t]
        r = LaurentElement(new_nvars)
        r.terms = out
        return r

    def swap_letters(self, i: int) -> "LaurentElement":
        """Exchange variables t_i and t_{i+1} (1-based)."""
        k = i - 1
        out = {}
        for e, c in self.terms.items():
            if e[k] == e[k + 1]:
                out[e] = c
            else:
                le = list(e)
                le[k], le[k + 1] = le[k + 1], le[k]
                out[tuple(le)] = c
        r = LaurentElement(self.nvars)
        r.terms = out
        return r

    def permute_letters(self, sigma: tuple) -> "LaurentElement":
        """Apply t_i -> t_{sigma(i)} for a permutation in one-line notation."""
        out = {}
        for e, c in self.terms.items():
            ne = [0] * self.nvars
            for k, ek in enumerate(e):
                ne[sigma[k] - 1] = ek
            out[tuple(ne)] = c
        r = LaurentElement(self.nvars)
        r.terms = out
        return r

    def exponent_sums(self) -> set:
        """Set of total degrees of the monomials (for lattice-invariance asserts)."""
        return {sum(e) for e in self.terms}

    # -- division by 1 - monomial -------------------------------------------

    def divide_exact_one_minus(self, mexp: tuple) -> "LaurentElement":
        """Exact quotient by ``1 - t^mexp`` for a nonzero exponent vector.

        Solves h*(1 - M) = f by the ladder recursion h[e] = f[e] + h[e - M]
        within each residue class of exponents modulo M.  Raises
        :class:`NotDivisibleError` when no exact quotient exists.
        """
        if not self.terms:
            return LaurentElement(self.nvars)
        mexp = tuple(mexp)
        if all(x == 0 for x in mexp):
            raise ValueError("binomial divisor must be 1 minus a nontrivial monomial")
        if self.nvars == 1:
            return self._divide_one_minus_z(mexp[0])
        pivot = next(k for k, x in enumerate(mexp) if x)
        mp = mexp[pivot]
        # residue key: invariant along the ladder e, e+M, e+2M, ...
        groups: dict = {}
        for e, c in self.terms.items():
            key = tuple(
                e[k] * mp - mexp[k] * e[pivot] for k in range(self.nvars)
            ) + (e[pivot] % abs(mp),)
            groups.setdefault(key, []).append((e, c))
        step = sum(x * x for x in mexp)
        out: dict = {}
        for items in groups.values():
            items.sort(key=lambda ec: sum(x * y for x, y in zip(ec[0], mexp)))
            carry = 0
            pos = None  # exponent where `carry` currently sits
            for e, c in items:
                if carry:
                    gap = sum((x - y) * z for x, y, z in zip(e, pos, mexp))
                    if gap % step:
                        raise NotDivisibleError("not divisible")
                    for _ in range(gap // step - 1):
                        pos = tuple(x + y for x, y in zip(pos, mexp))
                        out[pos] = carry
                    pos = e
                    carry = carry + c
                else:
                    pos = e
                    carry = c
                if carry:
                    out[e] = carry
            if carry:
                raise NotDivisibleError("not divisible")
        r = LaurentElement(self.nvars)
        r.terms = out
        return r

    def _divide_one_minus_z(self, k: int) -> "LaurentElement":
        """One-variable case of :meth:`divide_exact_one_minus`, by 1 - z^k.

        Runs the ladder h[e] = f[e] + h[e - k] in place on the dense
        coefficient list of f, upward for k > 0 and downward for k < 0.
        The quotient is exact iff the |k| rungs where the ladder ends, past
        the support of h, are left at zero.
        """
        lo = min(self.terms)[0]
        f = [0] * (max(self.terms)[0] - lo + 1)
        for (e,), c in self.terms.items():
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
        r = LaurentElement(1)
        r.terms = {(lo + i,): f[i] for i in head if f[i]}
        return r

    def divisible_by_one_minus(self, mexp: tuple) -> bool:
        try:
            self.divide_exact_one_minus(mexp)
            return True
        except NotDivisibleError:
            return False

    # -- grammar -------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            vars_ = "*".join(
                f"t{k + 1}" + (f"^{x}" if x != 1 else "")
                for k, x in enumerate(e)
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
        out = cls(nvars)
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
            exp = [0] * nvars
            if m.group("vars"):
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
                    if e == 0 or exp[idx - 1]:
                        raise ValueError(f"non-canonical term {raw!r}")
                    exp[idx - 1] = e
            elif not m.group("coeff"):
                raise ValueError(f"bad term {raw!r}")
            out = out + cls.monomial(nvars, tuple(exp), sign * coeff)
        return out


def exact_div_binomial(f: LaurentElement, g: LaurentElement) -> LaurentElement:
    """Exact quotient f/g where g has the form 1 - (nontrivial monomial)."""
    if g.nvars != f.nvars:
        raise ValueError("variable counts differ")
    zero = (0,) * g.nvars
    terms = dict(g.terms)
    if terms.pop(zero, None) != 1 or len(terms) != 1:
        raise ValueError("divisor must be 1 minus a monomial")
    ((mexp, mc),) = terms.items()
    if mc != -1:
        raise ValueError("divisor must be 1 minus a monomial")
    return f.divide_exact_one_minus(mexp)
