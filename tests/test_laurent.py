import pytest
from hypothesis import given, settings, strategies as st

from qkcomin.laurent import (
    EXPONENT_LIMIT,
    ExponentRangeError,
    LaurentElement,
    NotDivisibleError,
    exact_div_binomial,
    subtract_product_into,
)


def L(text, nvars=2):
    return LaurentElement.parse(text, nvars)


class TestRingOps:
    def test_add_cancels(self):
        a = L("1 - t1*t2^-1")
        b = L("t1*t2^-1")
        assert a + b == LaurentElement.one(2)

    def test_zero_absorbs(self):
        x = L("3*t1 - t2^-2")
        assert LaurentElement.zero(2) * x == LaurentElement.zero(2)

    def test_difference_of_squares(self):
        a = L("1 - t1*t2^-1")
        b = L("1 + t1*t2^-1")
        assert a * b == L("1 - t1^2*t2^-2")

    def test_int_coercion(self):
        a = L("t1")
        assert 1 + a == L("1 + t1")
        assert 2 * a == L("2*t1")
        assert a - 1 == L("-1 + t1")

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError):
            L("t1", 1) + L("t1", 2)


class TestDivision:
    def test_self_quotient(self):
        g = L("1 - t1*t2^-1")
        assert exact_div_binomial(g, g) == LaurentElement.one(2)

    def test_factorization(self):
        f = L("1 - t1^2*t2^-2")
        g = L("1 - t1*t2^-1")
        assert exact_div_binomial(f, g) == L("1 + t1*t2^-1")

    def test_not_divisible(self):
        f = L("1 + t1", 1)
        g = L("1 - t1", 1)
        with pytest.raises(NotDivisibleError):
            exact_div_binomial(f, g)

    def test_geometric_ladder(self):
        f = L("1 - t1^3", 1)
        g = L("1 - t1", 1)
        assert exact_div_binomial(f, g) == L("1 + t1 + t1^2", 1)

    def test_disjoint_ladders(self):
        f = (L("1 - t1^3", 1)) + L("t1^10", 1) - L("t1^12", 1)
        g = L("1 - t1", 1)
        h = exact_div_binomial(f, g)
        assert h * g == f

    def test_bad_divisor(self):
        with pytest.raises(ValueError):
            exact_div_binomial(L("1"), L("2 - t1"))
        with pytest.raises(ValueError):
            exact_div_binomial(L("1"), L("1 - 2*t1"))


class TestSpecialize:
    def test_binomial_vanishes(self):
        assert L("1 - t1*t2^-1").specialize_ones() == 0

    def test_one(self):
        assert LaurentElement.one(2).specialize_ones() == 1

    def test_substitute_letters(self):
        # t1 -> z^0, t2 -> z^1 collapses 2 variables to 1
        f = L("1 - t1*t2^-1")
        z = f.substitute_letters(((0,), (1,)), 1)
        assert z == L("1 - t1^-1", 1)

    def test_substitute_to_integers(self):
        f = L("3 - t1*t2^-1")
        c = f.substitute_letters(((), ()), 0)
        assert c == LaurentElement.integer(0, 2)
        assert str(c) == "2"

    def test_swap_letters(self):
        f = L("1 - t1^2*t2^-1")
        assert f.swap_letters(1) == L("1 - t1^-1*t2^2")

    def test_permute_letters(self):
        f = LaurentElement.parse("t1*t3^-1", 3)
        assert f.permute_letters((3, 2, 1)) == LaurentElement.parse("t1^-1*t3", 3)


class TestGrammar:
    @pytest.mark.parametrize(
        "text",
        ["0", "1", "-1", "3", "1 - t1*t2^-1", "-t1^-1*t2 + 1", "t2^3 + 2*t1",
         "t1^-1*t2", "-2 + 3*t1^2*t2^-2"],
    )
    def test_roundtrip(self, text):
        assert str(L(text)) == text

    def test_canonical_order_is_ascending_lex(self):
        f = L("t1*t2^-1") + 1
        assert str(f) == "1 + t1*t2^-1"
        g = L("t1^-1*t2") - 1
        assert str(g) == "t1^-1*t2 - 1"

    @pytest.mark.parametrize("bad", ["t0", "1 +", "2t1", "t1^1", "t1*t1", "*t1", "x"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            L(bad)


exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
elements = st.dictionaries(exps, st.integers(-9, 9), max_size=6).map(
    lambda d: LaurentElement(2, d)
)
monomials = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(
    lambda e: e != (0, 0)
)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(elements, elements, elements)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(elements, monomials)
    def test_division_roundtrip(self, h, mexp):
        g = LaurentElement.one(2) - LaurentElement.monomial(2, mexp)
        assert exact_div_binomial(h * g, g) == h

    @settings(max_examples=60, deadline=None)
    @given(elements, elements)
    def test_specialize_is_ring_hom(self, a, b):
        assert (a * b).specialize_ones() == a.specialize_ones() * b.specialize_ones()
        assert (a + b).specialize_ones() == a.specialize_ones() + b.specialize_ones()


z_elements = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=7).map(
    lambda d: LaurentElement(1, {(e,): c for e, c in d.items()})
)
z_steps = st.integers(-4, 4).filter(bool)


def embed(x):
    """The same polynomial in two variables, second exponent 0: the generic path.

    A one-variable key is the exponent itself.  The constructor drops zero
    coefficients, so a zero left in the terms by a fast path is caught first.
    """
    assert all(x.terms.values())
    return LaurentElement(2, {(e, 0): c for e, c in x.terms.items()})


def quotient_or_error(f, mexp):
    try:
        return f.divide_exact_one_minus(mexp)
    except NotDivisibleError:
        return NotDivisibleError


class TestOneVariableFastPath:
    """The nvars == 1 paths agree with the generic tuple-keyed paths."""

    @settings(max_examples=200, deadline=None)
    @given(z_elements, z_elements)
    def test_multiply_matches_generic(self, a, b):
        assert embed(a * b) == embed(a) * embed(b)

    @settings(max_examples=200, deadline=None)
    @given(z_elements, z_elements, z_steps, st.booleans())
    def test_division_matches_generic(self, h, noise, k, exact):
        g = LaurentElement.one(1) - LaurentElement.monomial(1, (k,))
        f = h * g if exact else h * g + noise
        fast = quotient_or_error(f, (k,))
        generic = quotient_or_error(embed(f), (k, 0))
        if generic is NotDivisibleError:
            assert fast is NotDivisibleError
        else:
            assert embed(fast) == generic
        if exact:
            assert fast == h

    @pytest.mark.parametrize("k", [1, 2, 3, -1, -2, -3])
    def test_not_divisible_on_both_paths(self, k):
        f = L("t1^-1 + 2", 1)
        with pytest.raises(NotDivisibleError):
            f.divide_exact_one_minus((k,))
        with pytest.raises(NotDivisibleError):
            embed(f).divide_exact_one_minus((k, 0))


# -- a tuple-keyed reference: {exponent tuple: nonzero coefficient} ----------


def ref_clean(d):
    return {e: c for e, c in d.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return ref_clean(out)


def ref_div(f, m):
    """f / (1 - t^m) by peeling the term lowest in e.m, or NotDivisibleError."""
    level = lambda e: sum(x * y for x, y in zip(e, m))
    top = max(map(level, f), default=0)
    rem, h = dict(f), {}
    while rem:
        e = min(rem, key=lambda e: (level(e), e))
        if level(e) > top:
            raise NotDivisibleError("reference: not divisible")
        c = rem[e]
        h[e] = h.get(e, 0) + c
        rem = ref_add(rem, {e: c, tuple(x + y for x, y in zip(e, m)): -c}, -1)
    return ref_clean(h)


def ref_str(d):
    if not d:
        return "0"
    parts = []
    for e in sorted(d):
        c = d[e]
        mono = "*".join(
            f"t{k + 1}" if x == 1 else f"t{k + 1}^{x}" for k, x in enumerate(e) if x
        )
        mag = abs(c)
        body = mono if mono and mag == 1 else f"{mag}*{mono}" if mono else str(mag)
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


def ref_substitute(d, images, new_nvars):
    out = {}
    for e, c in d.items():
        t = tuple(sum(e[k] * images[k][j] for k in range(len(e))) for j in range(new_nvars))
        out[t] = out.get(t, 0) + c
    return ref_clean(out)


def ref_permute(d, sigma):
    out = {}
    for e, c in d.items():
        ne = [0] * len(e)
        for k, x in enumerate(e):
            ne[sigma[k] - 1] = x
        out[tuple(ne)] = c
    return out


def ref_swap(d, i, n):
    sigma = list(range(1, n + 1))
    sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
    return ref_permute(d, sigma)


def agrees(x, d):
    """x is the reference element d, compared as values and as text."""
    return x == LaurentElement(x.nvars, d) and str(x) == ref_str(d)


@st.composite
def ref_elements(draw, count):
    """A variable count in 2..6 and ``count`` tuple-keyed elements."""
    n = draw(st.integers(2, 6))
    exps = st.tuples(*[st.integers(-6, 6)] * n)
    dicts = [
        ref_clean(draw(st.dictionaries(exps, st.integers(-9, 9), max_size=6)))
        for _ in range(count)
    ]
    return n, dicts


class TestAgainstTupleReference:
    """Packed elements agree with tuple-keyed arithmetic for 2..6 variables."""

    @settings(max_examples=150, deadline=None)
    @given(ref_elements(2))
    def test_ring_ops(self, data):
        n, (a, b) = data
        x, y = LaurentElement(n, a), LaurentElement(n, b)
        assert agrees(x, a) and agrees(y, b)
        assert agrees(x * y, ref_mul(a, b))
        assert agrees(x + y, ref_add(a, b))
        assert agrees(x - y, ref_add(a, b, -1))
        assert agrees(3 - x, ref_add({(0,) * n: 3}, a, -1))

    @settings(max_examples=150, deadline=None)
    @given(ref_elements(2), st.data(), st.booleans())
    def test_division(self, data, draw, exact):
        n, (h, noise) = data
        m = draw.draw(st.tuples(*[st.integers(-2, 2)] * n).filter(any))
        f = ref_mul(h, {(0,) * n: 1, m: -1})
        if not exact:
            f = ref_add(f, noise)
        try:
            want = ref_div(f, m)
        except NotDivisibleError:
            with pytest.raises(NotDivisibleError):
                LaurentElement(n, f).divide_exact_one_minus(m)
        else:
            assert agrees(LaurentElement(n, f).divide_exact_one_minus(m), want)
            if exact:
                assert want == h

    @settings(max_examples=150, deadline=None)
    @given(ref_elements(1))
    def test_text_roundtrip_in_lex_order(self, data):
        n, (a,) = data
        x = LaurentElement(n, a)
        text = str(x)
        assert text == ref_str(a)
        assert LaurentElement.parse(text, n) == x
        assert str(LaurentElement.parse(text, n)) == text

    @settings(max_examples=150, deadline=None)
    @given(ref_elements(1), st.data())
    def test_letter_moves(self, data, draw):
        n, (a,) = data
        x = LaurentElement(n, a)
        i = draw.draw(st.integers(1, n - 1))
        assert agrees(x.swap_letters(i), ref_swap(a, i, n))
        sigma = tuple(draw.draw(st.permutations(range(1, n + 1))))
        assert agrees(x.permute_letters(sigma), ref_permute(a, sigma))
        new_nvars = draw.draw(st.integers(0, 3))
        images = tuple(
            draw.draw(st.tuples(*[st.integers(-2, 2)] * new_nvars)) for _ in range(n)
        )
        want = ref_substitute(a, images, new_nvars)
        assert agrees(x.substitute_letters(images, new_nvars), want)


five_elements = st.dictionaries(
    st.tuples(*[st.integers(-6, 6)] * 5), st.integers(-9, 9), max_size=6
).map(lambda d: LaurentElement(5, d))


class TestSubtractProductInto:
    """The in-place update acc -= b * c agrees with a - b * c."""

    @pytest.mark.parametrize("elements", [z_elements, five_elements], ids=["z", "nvars5"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_operators(self, elements, data):
        a, b, c = (data.draw(elements) for _ in range(3))
        if data.draw(st.booleans()):
            a = a + b * c  # the update cancels terms of a, or all of them
        want = a - b * c
        frozen = (str(a), str(b), str(c))
        acc = a.copy()
        subtract_product_into(acc, b, c)
        assert acc == want and str(acc) == str(want)
        assert all(acc.terms.values())
        assert acc._bound == want._bound
        assert (str(a), str(b), str(c)) == frozen

    def test_accumulator_must_not_be_a_factor(self):
        acc = L("1 + t1")
        with pytest.raises(ValueError):
            subtract_product_into(acc, acc, L("t2"))
        with pytest.raises(ValueError):
            subtract_product_into(acc, L("t1", 1), L("t1", 1))


class TestExponentRange:
    """Exponents past the packing limit raise instead of aliasing."""

    def test_construction_at_and_past_the_limit(self):
        lim = EXPONENT_LIMIT
        x = LaurentElement.monomial(3, (lim, -lim, 0))
        assert str(x) == f"t1^{lim}*t2^-{lim}"
        assert LaurentElement.parse(str(x), 3) == x
        for bad in ((lim + 1, 0, 0), (0, 0, -lim - 1)):
            with pytest.raises(ExponentRangeError):
                LaurentElement.monomial(3, bad)
            with pytest.raises(ExponentRangeError):
                LaurentElement(3, {bad: 1})
        with pytest.raises(ExponentRangeError):
            LaurentElement.parse(f"1 + t3^{lim + 1}", 3)
        # one digit base up in t2 would be the key of t1
        with pytest.raises(ExponentRangeError):
            LaurentElement.monomial(2, (0, 8 * lim))
        # one variable is not packed, so it has no limit
        assert str(LaurentElement.monomial(1, (8 * lim,))) == f"t1^{8 * lim}"

    def test_products_and_substitutions(self):
        lim = EXPONENT_LIMIT
        half = LaurentElement.parse(f"t2^{lim // 2}", 2)
        assert str(half * half) == f"t2^{lim}"
        top = half * half
        with pytest.raises(ExponentRangeError):
            top * LaurentElement.parse("1 + t2", 2)
        # t2^(8 lim) = t2^B would alias t1: repeated squaring must stop first
        with pytest.raises(ExponentRangeError):
            for _ in range(4):
                top = top * top
        with pytest.raises(ExponentRangeError):
            top.substitute_letters(((1, 0), (0, 2)), 2)
        assert str(top.swap_letters(1)) == f"t1^{lim}"
        assert str(top.permute_letters((2, 1))) == f"t1^{lim}"
        assert top.substitute_letters(((0,), (2,)), 1) == LaurentElement.monomial(1, (2 * lim,))

    def test_in_place_update(self):
        lim = EXPONENT_LIMIT
        top = LaurentElement.parse(f"t2^{lim}", 2)
        acc = LaurentElement.parse("1 + t1", 2).copy()
        with pytest.raises(ExponentRangeError):
            subtract_product_into(acc, top, LaurentElement.parse("1 + t2", 2))
        assert acc == LaurentElement.parse("1 + t1", 2)
        subtract_product_into(acc, top, LaurentElement.integer(2, 3))
        assert str(acc) == f"1 - 3*t2^{lim} + t1"
        z = LaurentElement.one(1).copy()
        subtract_product_into(z, LaurentElement.monomial(1, (8 * lim,)), z.copy())
        assert str(z) == f"1 - t1^{8 * lim}"


def test_doctest_module():
    import doctest
    import qkcomin.laurent as mod

    failures, _ = doctest.testmod(mod)
    assert failures == 0
