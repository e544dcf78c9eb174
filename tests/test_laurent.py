import pytest
from hypothesis import given, settings, strategies as st

from qkcomin.laurent import (
    LaurentElement,
    NotDivisibleError,
    exact_div_binomial,
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

    Terms are copied as stored, so a zero coefficient left by a fast path shows.
    """
    r = LaurentElement(2)
    r.terms = {(e, 0): c for (e,), c in x.terms.items()}
    return r


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


def test_doctest_module():
    import doctest
    import qkcomin.laurent as mod

    failures, _ = doctest.testmod(mod)
    assert failures == 0
