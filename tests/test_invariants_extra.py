"""Cross-cutting invariants that do not belong to a single module's tests."""

import itertools

import pytest

from qkcomin.gkm import OPPOSITE, PLAIN, KModel, equivariant_chars
from qkcomin.laurent import LaurentElement
from qkcomin.weyl import FlagShape
from qkcomin.quantum import (
    dist,
    get_space,
    gw_series,
    quantum_product,
    shift_expansion,
)
from reference import (
    all_pairs, euler_char, euler_char_total, gkm_check, is_unit, projected_class, variable,
)


@pytest.fixture(scope="module")
def gr24eq():
    return KModel(FlagShape((2,), 4), equivariant_chars(4))


class TestMultiplyAlgebra:
    def test_commutative_on_sampled_pairs(self, gr24eq):
        m = gr24eq
        idx = [0, 1, 3, 5]
        for a, b in itertools.product(idx, repeat=2):
            x = m.table(OPPOSITE)[a]
            y = m.table(PLAIN)[b]
            assert m.multiply_values(x, y) == m.multiply_values(y, x)

    def test_associative_on_sampled_triples(self, gr24eq):
        m = gr24eq
        idx = [0, 2, 4]
        for a, b, c in itertools.product(idx, repeat=3):
            x, y, z = (m.table(OPPOSITE)[k] for k in (a, b, c))
            left = m.multiply_values(m.multiply_values(x, y), z)
            right = m.multiply_values(x, m.multiply_values(y, z))
            assert left == right

    def test_products_satisfy_edge_condition(self, gr24eq):
        m = gr24eq
        for a in range(m.npoints):
            for b in range(0, m.npoints, 2):
                prod = m.multiply_values(m.table(OPPOSITE)[a], m.table(PLAIN)[b])
                assert gkm_check(m, prod)

    def test_euler_char_of_zero(self, gr24eq):
        assert euler_char(gr24eq, gr24eq.zero_values()) == LaurentElement.zero(4)


class TestProductDegreeWindow:
    @pytest.mark.parametrize("m,n", [(2, 4), (2, 5)])
    def test_degrees_between_dist_and_stabilization(self, m, n):
        space = get_space(m, n, equivariant=False)
        for u, v in all_pairs(space):
            star = quantum_product(space, u, v)
            heads = gw_series(space, u, v)
            degrees = sorted(star)
            assert degrees[0] == dist(space, u, v)
            assert degrees[-1] <= len(heads)

    def test_series_tail_is_unit_class(self):
        # from the stabilization degree on, every projected class is the unit
        space = get_space(2, 4, equivariant=False)
        heads = gw_series(space, (2, 2), (1,))
        assert heads
        for d in range(len(heads), len(heads) + 2):
            assert is_unit(projected_class(space, (2, 2), (1,), d))

    @pytest.mark.parametrize("m,n", [(1, 4), (2, 4), (2, 5), (3, 6)])
    def test_stabilization_at_most_twice_diameter(self, m, n):
        from qkcomin.quantum import diameter

        space = get_space(m, n, equivariant=False)
        for u, v in all_pairs(space):
            assert len(gw_series(space, u, v)) <= 2 * diameter(space)


class TestEulerMapOnRandomElements:
    @pytest.mark.parametrize("equivariant", [False, True])
    def test_multiplicative_beyond_basis_pairs(self, equivariant):
        # the q=1 Euler map is a ring homomorphism on all finite series,
        # not just on basis classes; sample general elements
        import random

        from qkcomin.laurent import LaurentElement
        from qkcomin.quantum import star_elements

        space = get_space(2, 4, equivariant=equivariant)
        rng = random.Random(11)
        nv = space.chars.nvars

        def random_scalar():
            c = LaurentElement.integer(nv, rng.randint(-2, 2))
            if equivariant and rng.random() < 0.5:
                c = c + variable(nv, rng.randint(1, 4))
            return c

        def random_element():
            coeffs = {}
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(0, 2)
                w = rng.randrange(space.model.npoints)
                bucket = coeffs.setdefault(d, {})
                bucket[w] = bucket.get(w, space.model.zero()) + random_scalar()
            exps = {d: {w: c for w, c in e.items() if not c.is_zero()} for d, e in coeffs.items()}
            return {d: exp for d, exp in exps.items() if exp}

        for _ in range(12):
            a, b = random_element(), random_element()
            lhs = euler_char_total(space, star_elements(space, a, b))
            rhs = euler_char_total(space, a) * euler_char_total(space, b)
            assert lhs == rhs


class TestShiftLinearity:
    def test_scalar_linear(self):
        space = get_space(2, 4, equivariant=True)
        t3 = variable(4, 3)
        one = space.model.one()
        a = {1: one + t3, 4: t3}
        b = {1: one, 2: t3 * t3}
        ab = {k: a.get(k, space.model.zero()) + b.get(k, space.model.zero()) for k in set(a) | set(b)}
        lhs = shift_expansion(space, ab)
        rhs = {}
        for part in (shift_expansion(space, a), shift_expansion(space, b)):
            for w, c in part.items():
                rhs[w] = rhs.get(w, space.model.zero()) + c
        rhs = {w: c for w, c in rhs.items() if not c.is_zero()}
        assert lhs == rhs
