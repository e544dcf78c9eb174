import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qkcomin
from qkcomin.laurent import (
    EXPONENT_LIMIT,
    ExponentRangeError,
    LaurentElement,
    NotDivisibleError,
    kronecker_pack,
    kronecker_unpack,
    subtract_product_into,
    sum_elements,
)
from reference import permute_letters, variable


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
        assert g.divide_exact_one_minus((1, -1)) == LaurentElement.one(2)

    def test_factorization(self):
        f = L("1 - t1^2*t2^-2")
        assert f.divide_exact_one_minus((1, -1)) == L("1 + t1*t2^-1")

    def test_not_divisible(self):
        f = L("1 + t1", 1)
        with pytest.raises(NotDivisibleError):
            f.divide_exact_one_minus((1,))

    def test_geometric_ladder(self):
        f = L("1 - t1^3", 1)
        assert f.divide_exact_one_minus((1,)) == L("1 + t1 + t1^2", 1)

    def test_disjoint_ladders(self):
        f = (L("1 - t1^3", 1)) + L("t1^10", 1) - L("t1^12", 1)
        h = f.divide_exact_one_minus((1,))
        assert h * L("1 - t1", 1) == f


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
        assert permute_letters(f, (3, 2, 1)) == LaurentElement.parse("t1^-1*t3", 3)


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

    @pytest.mark.parametrize("bad", ["t0", "1 +", "2t1", "t1^1", "t1*t1", "*t1", "x", "t5"])
    def test_rejects_malformed(self, bad):
        """Terms are memoized by text and variable count, and a failure is
        never memoized: "t5" is read with five letters first, and every
        case must fail again on a second call."""
        if bad == "t5":
            assert LaurentElement.parse(bad, 5) == variable(5, 5)
        for _ in range(2):
            with pytest.raises(ValueError):
                L(bad, 4)


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
        assert (h * g).divide_exact_one_minus(mexp) == h

    @settings(max_examples=60, deadline=None)
    @given(st.lists(elements, max_size=5))
    def test_sum_elements_is_the_sum(self, xs):
        total = sum_elements(2, xs)
        assert total == sum(xs, LaurentElement.zero(2))
        assert str(total) == str(sum(xs, LaurentElement.zero(2)))

    def test_sum_elements_rejects_mixed_widths(self):
        with pytest.raises(ValueError):
            sum_elements(2, [L("t1"), L("t1", 1)])

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
    """The same polynomial in two variables, second exponent 0.

    A one-variable key is the exponent itself, a two-variable key packs
    16-bit digits.  The constructor drops zero coefficients, so a zero left
    in the terms of a one-variable result is caught first.
    """
    assert all(x.terms.values())
    return LaurentElement(2, {(e, 0): c for e, c in x.terms.items()})


def quotient_or_error(f, mexp):
    try:
        return f.divide_exact_one_minus(mexp)
    except NotDivisibleError:
        return NotDivisibleError


class TestOneVariableFastPath:
    """One-variable elements, keyed by the exponent itself, agree with the
    same polynomials in two variables."""

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

    @pytest.mark.parametrize("k", [3, -3, -70000])
    def test_division_beyond_sixteen_bit_exponents(self, k):
        # one-letter keys are unbounded; read as 16-bit digits, terms on
        # either side of +-2**15 would fall on different ladders
        h = L("-t1^-33000 + 7*t1^5 + 2*t1^40000", 1)
        f = h * (LaurentElement.one(1) - LaurentElement.monomial(1, (k,)))
        assert f.divide_exact_one_minus((k,)) == h
        with pytest.raises(NotDivisibleError):
            (f + 1).divide_exact_one_minus((k,))


# (variable count, f, binomial exponents) with f not divisible by the product
NOT_DIVISIBLE = (
    (2, "1 + t1", ((0, 1),)),
    (2, "t1^40 + t2^-40", ((1, -1), (0, 1), (1, 1))),
    (2, f"t1 + t2^{EXPONENT_LIMIT}", ((0, 1), (0, -1))),
    (3, "1 + t1*t3^-1", ((0, 1, 0), (0, 0, 1))),
    (3, "t1^30*t2^-30 + t3^30 - 1", ((1, -1, 0), (0, 1, -1), (1, 0, 1), (0, 0, 1))),
    (3, f"t1 - t2^{EXPONENT_LIMIT}", ((0, 0, 1), (0, 1, -1))),
)


class TestDivisionByProducts:
    """One pass by a product of binomials."""

    def test_not_divisible_stops_under_a_memory_cap(self):
        """Every pass raises, in a child process with its address space
        capped at 256 MB: a pass that wandered through the lower digits of
        the keys would fail there instead of filling the machine."""
        pytest.importorskip("resource")
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
            "from qkcomin.laurent import LaurentElement, NotDivisibleError\n"
            f"for n, text, ms in {NOT_DIVISIBLE!r}:\n"
            "    try:\n"
            "        LaurentElement.parse(text, n).divide_exact_one_minus(*ms)\n"
            "    except NotDivisibleError:\n"
            "        continue\n"
            "    raise SystemExit(f'divided {text}')\n"
        )
        package_root = Path(qkcomin.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": str(package_root),
                "PYTHONDONTWRITEBYTECODE": "1",
            },
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("ks", [(70000, -70000), (3, -70000)])
    def test_two_factors_beyond_sixteen_bit_exponents(self, ks):
        h = L("-t1^-33000 + 7*t1^5 + 2*t1^40000", 1)
        ms = [(k,) for k in ks]
        f = h
        for m in ms:
            f = f * (LaurentElement.one(1) - LaurentElement.monomial(1, m))
        assert f.divide_exact_one_minus(*ms) == h
        with pytest.raises(NotDivisibleError):
            (f + 1).divide_exact_one_minus(*ms)

    def test_zero_exponent_is_rejected(self):
        for f in (L("1 - t1*t2^-1"), LaurentElement.zero(2)):
            for ms in (((0, 0),), ((1, -1), (0, 0))):
                with pytest.raises(ValueError):
                    f.divide_exact_one_minus(*ms)

    def test_no_factor_gives_a_new_equal_element(self):
        for f in (L("3 - t1*t2^-1"), LaurentElement.zero(2), L("t1^-70000", 1)):
            g = f.divide_exact_one_minus()
            assert g == f and g is not f and g.terms is not f.terms
            assert g._bound == f._bound


class TestKronecker:
    """Packing at 2**bits is a ring map, and reads back below 2**(bits-1)."""

    @settings(max_examples=200, deadline=None)
    @given(z_elements, z_elements, st.sampled_from([4, 8, 64]))
    def test_product_of_packings(self, a, b, bits):
        def size(x):
            return max(map(abs, x.terms.values()), default=0)

        (la, pa, na), (lb, pb, nb) = kronecker_pack(a, bits), kronecker_pack(b, bits)
        assert (na, nb) == (sum(map(abs, a.terms.values())), sum(map(abs, b.terms.values())))
        for f, lo, packed in ((a, la, pa), (a * b, la + lb, pa * pb)):
            got, largest, l1 = kronecker_unpack(lo, packed, bits)
            if size(f) < 1 << (bits - 1):
                assert got == f
                assert (largest, l1) == (size(f), sum(map(abs, f.terms.values())))

    @settings(max_examples=100, deadline=None)
    @given(z_elements, st.integers(0, 3), st.sampled_from([4, 64]))
    def test_pack_at_a_lower_origin(self, f, below, bits):
        """An origin k below the lowest exponent scales the value by 2**(bits * k)."""
        lo, packed, l1 = kronecker_pack(f, bits)
        assert kronecker_pack(f, bits, lo - below) == (lo - below, packed << (bits * below), l1)

    EDGES = [s * ((1 << k) + j) for s in (1, -1) for k in (63, 64, 127, 128, 191) for j in (-1, 0, 1)]

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.integers(-(1 << 600), 1 << 600), st.sampled_from(EDGES)),
        st.integers(-5, 5),
    )
    def test_balanced_digits_of_any_integer(self, packed, lo):
        """Every width reads the one balanced expansion of any integer."""
        for bits in (8, 64, 72):
            f, largest, l1 = kronecker_unpack(lo, packed, bits)
            sizes = [abs(c) for c in f.terms.values()]
            assert all(-(1 << (bits - 1)) <= c < 1 << (bits - 1) for c in f.terms.values())
            assert sum(c << (bits * (e - lo)) for e, c in f.terms.items()) == packed
            assert (largest, l1) == (max(sizes, default=0), sum(sizes))
            assert f._bound == max(map(abs, f.terms), default=0)


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
    @given(ref_elements(2), st.data(), st.booleans())
    def test_division_by_products(self, data, draw, exact):
        """One pass by 0 to 4 binomials agrees with one division per
        binomial, on the packed elements and on the reference."""
        n, (h, noise) = data
        ms = draw.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n).filter(any), max_size=4))
        f = h
        for m in ms:
            f = ref_mul(f, {(0,) * n: 1, m: -1})
        if not exact:
            f = ref_add(f, noise)
        x = LaurentElement(n, f)

        def one_by_one(y):
            for m in ms:
                y = y.divide_exact_one_minus(m)
            return y

        try:
            want = f
            for m in ms:
                want = ref_div(want, m)
        except NotDivisibleError:
            for divide in (lambda: x.divide_exact_one_minus(*ms), lambda: one_by_one(x)):
                with pytest.raises(NotDivisibleError):
                    divide()
        else:
            got = x.divide_exact_one_minus(*ms)
            assert agrees(got, want) and got == one_by_one(x)
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
        assert agrees(permute_letters(x, sigma), ref_permute(a, sigma))
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
        assert str(permute_letters(top, (2, 1))) == f"t1^{lim}"
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
