import functools
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from qkcomin import cli, gkm, quantum
from qkcomin.gkm import OPPOSITE, PLAIN, KModel
from qkcomin.laurent import LaurentElement
from qkcomin.oracles import MomentGraph
from qkcomin.weyl import (
    FlagShape,
    image_index,
    minrep_to_partition,
    partition_to_minrep,
    partition_to_subset,
)
from qkcomin.quantum import (
    CHECKS,
    Space,
    curve_neighborhood_index,
    diameter,
    dist,
    euler_char_q,
    get_space,
    gw_series,
    kernel_span_shapes,
    projected_tasks,
    quantum_product,
    quantum_product_opposite_v,
    shift_expansion,
    star_elements,
    structure_table,
    verify_space,
)
from reference import (
    all_pairs,
    basis_element,
    euler_char,
    euler_char_total,
    gkm_check,
    is_unit,
    preimage_index_plain,
    projected_class,
    pullback,
    pushforward,
    variable,
)
from slow_oracles import chevalley_degree_one, givental_p1_product


@pytest.fixture(scope="module")
def p1():
    return Space(1, 2, equivariant=True)


@pytest.fixture(scope="module")
def gr24():
    return Space(2, 4, equivariant=False)


@pytest.fixture(scope="module")
def gr24eq():
    return Space(2, 4, equivariant=True)


class TestDiameter:
    def test_p1(self, p1):
        assert diameter(p1) == 1

    def test_gr24_matches_moment_graph_eccentricity(self, gr24):
        graph = MomentGraph(2, 4)
        worst = 0
        for a in graph.vertices:
            for b in graph.vertices:
                d = 0
                reached = frozenset({a})
                while b not in reached:
                    reached = graph.gamma(reached, 1)
                    d += 1
                worst = max(worst, d)
        assert diameter(gr24) == worst == 2

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_projective_space(self, n):
        assert diameter(Space(1, n)) == 1


class TestSpaceState:
    def test_each_space_owns_its_models(self):
        assert Space(2, 4).model is not Space(2, 4).model
        assert get_space(2, 4).model is get_space(2, 4).model

    def test_models_and_diagrams_are_built_once(self, gr24):
        y = kernel_span_shapes(gr24, 1)[0]
        assert gr24.submodel(y) is gr24.submodel(y)
        assert gr24.diagram(1) is gr24.diagram(1)
        assert gr24.diagram(1).y is gr24.submodel(y)
        # Y_0 = X
        assert gr24.diagram(0).y is gr24.model

    @pytest.mark.parametrize("m,n", [(2, 4), (2, 5), (3, 5)])
    def test_partition_index_maps_are_the_literal_dictionary(self, m, n):
        space = Space(m, n)
        for lam in space.partitions:
            w = partition_to_minrep(lam, m, n)
            assert space.index_of(lam) == space.model.idx[w]
            assert space.partition_of(space.index_of(lam)) == minrep_to_partition(w, m, n)
            # a trailing zero within m parts, or a list, names the same partition
            padded = [*lam, 0][:m]
            assert space.index_of(padded) == space.index_of(lam)

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5),
        st.booleans(),
    )
    def test_public_scalar_is_the_specialization(self, gr24, terms, zero_sum):
        # the integer of the coefficient sum is the substitution z -> 1 into
        # no variables: the same element, the same bound and the same string
        if zero_sum and terms:
            top = max(terms)
            terms[top] -= sum(terms.values())
        c = LaurentElement(1, {(e,): k for e, k in terms.items()})
        got, expect = gr24.public_scalar(c), c.substitute_letters(((),), 0)
        assert got == expect and got.nvars == expect.nvars == 0
        assert got._bound == expect._bound == 0
        assert str(got) == str(expect)

    @pytest.mark.parametrize("lam", [(3,), (1, 1, 1), (-1,), (1, 2)])
    def test_index_of_a_partition_outside_the_box_raises(self, gr24, lam):
        with pytest.raises(ValueError) as got:
            gr24.index_of(lam)
        with pytest.raises(ValueError) as want:
            partition_to_minrep(lam, 2, 4)
        assert str(got.value) == str(want.value)


class TestKernelSpan:
    def test_degree_zero_is_identity_diagram(self, gr24):
        y, t = kernel_span_shapes(gr24, 0)
        assert y == gr24.shape and t == gr24.shape

    def test_gr24_degree_one(self, gr24):
        y, t = kernel_span_shapes(gr24, 1)
        assert y == FlagShape((1, 3), 4)
        assert t == FlagShape((1, 2, 3), 4)

    def test_gr24_degree_two_clamps_to_point(self, gr24):
        y, t = kernel_span_shapes(gr24, 2)
        assert y == FlagShape((), 4) and not y.dims
        assert t == gr24.shape
        # a point target forces the degree-2 class of any pair to be the unit
        assert is_unit(projected_class(gr24, (2, 2), (), 2))


class TestDiagramDuality:
    @pytest.mark.parametrize("m,n", [(m, n) for n in range(2, 9) for m in range(1, n)])
    def test_plain_maps_are_w0_duals_of_the_literal_transport(self, m, n):
        # the diagrams move opposite classes only; their w0 duals, the plain
        # classes moved, equal the preimage index on T_d pushed forward to
        # Y_d; building the diagrams loads no table
        space = Space(m, n, use_cache=False)
        x, xm = space.shape, space.model
        for d in range(max(m, n - m) + 2):
            y, t = kernel_span_shapes(space, d)
            dg = space.diagram(d)
            for i, w in enumerate(xm.points):
                literal = image_index(preimage_index_plain(w, x, t), t, y)
                assert dg.y.dual[dg.to_y[xm.dual[i]]] == dg.y.idx[literal], (d, w)
        assert not any(model._tables for model in space.models.values())


class TestCurveNeighborhood:
    def test_identity_fixed(self, gr24):
        for d in range(4):
            assert curve_neighborhood_index(gr24, (), d) == ()

    def test_bad_input_raises(self, gr24):
        with pytest.raises(ValueError):
            curve_neighborhood_index(gr24, (1,), -1)
        with pytest.raises(ValueError):
            curve_neighborhood_index(gr24, (3,), 1)

    def test_p1_point_sweeps_out_line(self, p1):
        assert curve_neighborhood_index(p1, (1,), 1) == ()

    def test_gr24_point_to_line_class(self, gr24):
        got = curve_neighborhood_index(gr24, (2, 2), 1)
        assert got == (1,)
        assert got == MomentGraph(2, 4).neighborhood_partition((2, 2), 1)

    @pytest.mark.parametrize("m,n", [(1, 2), (1, 4), (2, 4), (2, 5), (3, 5)])
    def test_matches_moment_graph(self, m, n):
        space = Space(m, n)
        graph = MomentGraph(m, n)
        for lam in space.partitions:
            for d in range(diameter(space) + 2):
                assert curve_neighborhood_index(space, lam, d) == (
                    graph.neighborhood_partition(lam, d)
                )

    @pytest.mark.parametrize("m,n", [(2, 5), (3, 6)])
    def test_composition_and_monotone(self, m, n):
        space = Space(m, n)
        for lam in space.partitions:
            for d1 in range(3):
                for d2 in range(3):
                    step = curve_neighborhood_index(
                        space, curve_neighborhood_index(space, lam, d1), d2
                    )
                    assert step == curve_neighborhood_index(space, lam, d1 + d2)
            for d in range(3):
                nbhd = curve_neighborhood_index(space, lam, d)
                assert all(a <= b for a, b in zip(nbhd + (0,) * m, lam))


class TestDist:
    @pytest.mark.parametrize("lam", [(5,), (1, 1, 1), (2, -1)])
    def test_either_partition_outside_the_box_raises(self, gr24, lam):
        with pytest.raises(ValueError) as want:
            gr24.index_of(lam)
        for u, v in [(lam, (1,)), ((1,), lam)]:
            with pytest.raises(ValueError) as got:
                dist(gr24, u, v)
            assert str(got.value) == str(want.value)

    def test_zero_iff_contained(self, gr24):
        assert dist(gr24, (1,), (2, 1)) == 0
        assert dist(gr24, (), ()) == 0

    def test_p1_opposite_points(self, p1):
        assert dist(p1, (1,), ()) == 1

    def test_gr24_generic_planes(self, gr24):
        assert dist(gr24, (2, 2), ()) == 2
        assert dist(gr24, (2, 2), ()) == MomentGraph(2, 4).dist((2, 2), ())

    @pytest.mark.parametrize("m,n", [(1, 3), (2, 4), (2, 5)])
    def test_matches_moment_graph_and_bounded(self, m, n):
        space = Space(m, n)
        graph = MomentGraph(m, n)
        for u, v in all_pairs(space):
            d = dist(space, u, v)
            assert d == graph.dist(u, v)
            assert d <= diameter(space)


class TestProjectedClass:
    def test_degree_zero_is_richardson(self, gr24eq):
        m = gr24eq.model
        for u, v in [((1,), (2, 1)), ((2,), (1,)), ((2, 2), (2, 2))]:
            rich = m.multiply_values(
                m.table(OPPOSITE)[gr24eq.index_of(u)], m.table(PLAIN)[gr24eq.index_of(v)]
            )
            assert projected_class(gr24eq, u, v, 0) == rich

    def test_p1_degree_one_is_unit(self, p1):
        assert is_unit(projected_class(p1, (1,), (), 1))

    def test_zero_exactly_below_dist(self, gr24):
        for u, v in all_pairs(gr24):
            d0 = dist(gr24, u, v)
            for d in range(d0 + 2):
                values = projected_class(gr24, u, v, d)
                assert all(x.is_zero() for x in values) == (d < d0)
                if d >= d0:
                    assert euler_char(gr24.model, values) == gr24.model.one()

    def test_gr24_point_and_box_degree_one(self, gr24eq):
        values = projected_class(gr24eq, (2, 2), (2, 2), 1)
        m = gr24eq.model
        assert euler_char(m, values) == m.one()
        # fixed-point support agrees with the chain-of-curves oracle
        graph = MomentGraph(2, 4)
        expected = graph.gamma(
            graph.up_set((2, 2)) & graph.down_set((2, 2)), 1
        )
        support = {
            partition_to_subset(gr24eq.partition_of(p), 2)
            for p in range(m.npoints)
            if not values[p].is_zero()
        }
        assert support == set(expected)

    def test_gkm_condition_on_projected_classes(self, gr24eq):
        m = gr24eq.model
        for u, v in [((1,), (1,)), ((2, 1), (2, 2)), ((2, 2), ())]:
            for d in range(3):
                assert gkm_check(m, projected_class(gr24eq, u, v, d))


class TestSeries:
    def test_unit_times_top_stabilizes_immediately(self, gr24):
        # the unit class from degree 0 on: the product is 1, and so is the
        # product of the unit with the plain class of X itself
        assert gw_series(gr24, (), ()) == ()
        assert quantum_product_opposite_v(gr24, (), ()) == basis_element(gr24, ())
        assert quantum_product(gr24, (), (2, 2)) == basis_element(gr24, ())

    def test_p1_series(self):
        # point times point: (1 - z) O^pt in degree 0, the unit from degree 1
        # on; telescopes to (1 - z) O^pt + z q
        space = Space(1, 2, equivariant=False)
        one, z = space.model.one(), variable(1, 1)
        assert gw_series(space, (1,), (1,)) == ({1: one - z},)
        assert quantum_product_opposite_v(space, (1,), (1,)) == {
            0: {1: one - z}, 1: {0: z}
        }

    @pytest.mark.parametrize("m,n,equivariant", [(2, 5, False), (3, 5, False), (2, 4, True)])
    @pytest.mark.parametrize("v_basis", [PLAIN, OPPOSITE])
    def test_projected_tasks_are_the_classes_a_table_reads(self, m, n, equivariant, v_basis):
        """Each key once, exactly the keys a serial table fills, and none
        left once the memo holds them."""
        space = Space(m, n, equivariant)
        keys = [key for key, _d in projected_tasks(space)]
        assert len(set(keys)) == len(keys)
        for u in space.partitions:
            for v in space.partitions:
                structure_table(space, u, v, v_basis)
        assert set(keys) == set(space.projected)
        assert projected_tasks(space) == []


class TestShift:
    def test_fixes_unit(self, gr24):
        one = gr24.model.one()
        assert shift_expansion(gr24, {0: one}) == {0: one}

    def test_p1_shift_collapses_point(self, p1):
        one = p1.model.one()
        assert shift_expansion(p1, {1: one}) == {0: one}

    def test_euler_invariance(self, gr24eq):
        # chi after the shift equals chi before it, on random expansions
        m = gr24eq.model
        t1 = variable(4, 1)
        exp = {0: m.one() + t1, 2: t1 * t1, 5: m.one() - t1}
        before = m.zero()
        for c in exp.values():
            before = before + c
        after = m.zero()
        for c in shift_expansion(gr24eq, exp).values():
            after = after + c
        assert before == after


class TestQuantumProduct:
    def test_unit_law(self, gr24):
        for v in gr24.partitions:
            m = gr24.model
            expect = {0: m.expand_values(m.table(PLAIN)[gr24.index_of(v)])}
            assert quantum_product(gr24, (), v) == expect

    def test_p1_point_times_point(self, p1):
        star = quantum_product(p1, (1,), ())
        assert star == {1: {0: p1.model.one()}}
        assert min(star) == dist(p1, (1,), ()) == 1

    def test_p1_matches_first_principles_oracle(self):
        space = Space(1, 2, equivariant=False)
        star = quantum_product(space, (1,), ())
        got = {
            d: {space.partition_of(w): c.specialize_ones() for w, c in exp.items()}
            for d, exp in star.items()
        }
        assert got == givental_p1_product() == {1: {(): 1}}

    def test_p1_matches_scalar_telescoping(self, p1):
        # chi of the telescoped product is the q-power (1-q) * sum_{d>=1} q^d = q
        chi = euler_char_q(p1, quantum_product(p1, (1,), ()))
        assert chi == {1: p1.model.one()}

    @pytest.mark.parametrize("n", range(2, 8))
    def test_projective_space_closed_form(self, n):
        # P^N = Gr(1, N+1), both classes opposite: O^a * O^b = O^(a+b) when
        # a + b <= N, and q * O^(a+b-N-1) otherwise.  Independent of the
        # push-pull construction; covers degree 1 on every P^N up to N = 6.
        space = Space(1, n, equivariant=False)
        dim = n - 1
        one = LaurentElement.one(0)

        def opp(a):
            return (a,) if a else ()

        for a in range(n):
            for b in range(n):
                if a + b <= dim:
                    want = (opp(a + b), 0, one)
                else:
                    want = (opp(a + b - dim - 1), 1, one)
                assert structure_table(space, opp(a), opp(b), OPPOSITE) == (want,)

    def test_coefficients_below_dist_vanish(self, gr24):
        for u, v in all_pairs(gr24):
            star = quantum_product(gr24, u, v)
            assert min(star) == dist(gr24, u, v)

    @pytest.mark.parametrize("m,n,equivariant", [(2, 4, False), (2, 5, False), (2, 4, True)])
    def test_products_are_degree_dicts(self, m, n, equivariant):
        # a product is {d: {w: c}}, with no empty degree and no zero scalar;
        # with v opposite it is the memo entry itself
        space = Space(m, n, equivariant)

        def check_form(product):
            assert type(product) is dict
            for d, exp in product.items():
                assert type(d) is int and type(exp) is dict and exp, d
                for w, c in exp.items():
                    assert type(w) is int and type(c) is LaurentElement and not c.is_zero()

        for u, v in all_pairs(space):
            check_form(quantum_product(space, u, v))
            opposite = quantum_product_opposite_v(space, u, v)
            check_form(opposite)
            assert opposite is space.products[(*sorted(map(space.index_of, (u, v))), 0)]
        sample = space.partitions[:4]
        for u, v in itertools.product(sample, sample):
            a, b = quantum_product(space, u, v), quantum_product_opposite_v(space, v, u)
            check_form(star_elements(space, a, b))
            check_form(star_elements(space, a, {1: {space.index_of(v): -space.model.one()}}))


class TestStructureTables:
    def test_unit_table_single_entry(self, gr24):
        for v in gr24.partitions:
            assert structure_table(gr24, (), v, OPPOSITE) == ((v, 0, LaurentElement.one(0)),)

    def test_p1_equivariant_golden_table(self, p1):
        terms = structure_table(p1, (1,), (1,), OPPOSITE)
        assert [(w, d, str(c)) for w, d, c in terms] == [
            ((1,), 0, "-t1^-1*t2 + 1"),
            ((), 1, "t1^-1*t2"),
        ]
        assert sum(c for _w, _d, c in terms) == p1.model.one()

    def test_gr24_sums_to_one(self, gr24):
        one = LaurentElement.one(0)
        for u, v in all_pairs(gr24):
            for basis in (PLAIN, OPPOSITE):
                assert sum(c for _w, _d, c in structure_table(gr24, u, v, basis)) == one

    def test_term_order(self, gr24):
        keys = [(d, w) for w, d, _ in structure_table(gr24, (2, 1), (2, 1), OPPOSITE)]
        assert keys == sorted(keys)

    def test_equivariant_specializes_to_plain_table(self, gr24, gr24eq):
        for u, v in all_pairs(gr24):
            te = structure_table(gr24eq, u, v, OPPOSITE)
            tz = structure_table(gr24, u, v, OPPOSITE)
            specialized = sorted(
                (w, d, c.specialize_ones()) for w, d, c in te if c.specialize_ones()
            )
            assert specialized == sorted((w, d, c.specialize_ones()) for w, d, c in tz)


class TestEulerMaps:
    def test_chi_hat_of_q_is_one(self, gr24):
        q_unit = {1: {0: gr24.model.one()}}
        assert euler_char_total(gr24, q_unit) == gr24.model.one()

    def test_chi_q_of_star_is_q_dist(self, gr24):
        for u, v in all_pairs(gr24):
            chi = euler_char_q(gr24, quantum_product(gr24, u, v))
            assert chi == {dist(gr24, u, v): gr24.model.one()}

    def test_chi_hat_multiplicative(self, gr24eq):
        one = gr24eq.model.one()
        for u, v in all_pairs(gr24eq):
            star = quantum_product(gr24eq, u, v)
            assert euler_char_total(gr24eq, star) == one


class TestRingStructure:
    def test_commutativity_of_tables(self, gr24):
        for u, v in all_pairs(gr24):
            assert quantum_product_opposite_v(gr24, u, v) == quantum_product_opposite_v(
                gr24, v, u
            )

    def test_associativity_sample(self, gr24):
        parts = [(), (1,), (2, 1), (2, 2)]
        for u, v, w in itertools.product(parts, parts, parts):
            a, b, c = (basis_element(gr24, x) for x in (u, v, w))
            assert star_elements(gr24, star_elements(gr24, a, b), c) == star_elements(
                gr24, a, star_elements(gr24, b, c)
            )

    def test_associativity_with_narrow_digits(self, gr24, monkeypatch):
        # the packed sum of star_elements starts at 4-bit digits and must
        # widen; its products equal those at the default width
        monkeypatch.setattr(gkm, "PACK_BITS", 4)
        narrow = Space(2, 4)
        parts = [(), (1,), (2, 1), (2, 2)]
        for u, v, w in itertools.product(parts, parts, parts):
            a, b, c = (basis_element(narrow, x) for x in (u, v, w))
            ab = star_elements(narrow, a, b)
            abc = star_elements(narrow, ab, c)
            assert abc == star_elements(narrow, a, star_elements(narrow, b, c))
            wide = [basis_element(gr24, x) for x in (u, v, w)]
            wide_ab = star_elements(gr24, *wide[:2])
            assert ab == wide_ab
            assert abc == star_elements(gr24, wide_ab, wide[2])
        assert max(bits for _a, _b, bits in narrow.products) > 4

    def test_packed_sums_past_the_digit_bound(self, monkeypatch):
        # every summand 2 * 2 is below the 4-bit digits' 8, but the sums in
        # degrees 1 to 3 reach it: only the summed bound sees them
        monkeypatch.setattr(gkm, "PACK_BITS", 4)
        narrow = Space(2, 4)
        unit, two = narrow.index_of(()), LaurentElement.integer(1, 2)
        a = {d: {unit: two} for d in range(3)}
        got = star_elements(narrow, a, a)
        sums = (4, 8, 12, 8, 4)
        assert got == {d: {unit: LaurentElement.integer(1, c)} for d, c in enumerate(sums)}
        assert max(bits for _a, _b, bits in narrow.products) == 8

    def test_star_elements_respects_q_grading(self, gr24):
        a = basis_element(gr24, (1,), degree=1)
        b = basis_element(gr24, (1,), degree=2)
        prod = star_elements(gr24, a, b)
        base = quantum_product_opposite_v(gr24, (1,), (1,))
        assert prod == {d + 3: exp for d, exp in base.items()}


def literal_projected_classes(space, d):
    """Every degree-d projected class on X, by literal pullback and pushforward.

    Each Schubert class of X is pulled back to T_d and pushed forward to Y_d,
    the Richardson class of the two is pulled back to T_d and pushed forward
    to X; no index map of the diagram is used.  Returns {(u, v): values}.
    """
    y, t = kernel_span_shapes(space, d)
    xm, my, mt = space.model, space.submodel(y), space.submodel(t)

    def on_y(orientation):
        return [
            pushforward(pullback(values, xm, mt), mt, my, orientation)
            for values in xm.table(orientation)
        ]

    opposite, plain = on_y(OPPOSITE), on_y(PLAIN)
    chained = {}
    out = {}
    for u, v in all_pairs(space):
        key = (opposite[space.index_of(u)], plain[space.index_of(v)])
        if key not in chained:
            chained[key] = pushforward(pullback(my.multiply_values(*key), my, mt), mt, xm)
        out[u, v] = chained[key]
    return out


@functools.lru_cache(maxsize=None)
def literal_space(m, n, equivariant):
    """A space and its literal projected classes, by degree up to
    max(m, n - m) + 1; from max(m, n - m) on Y_d is a point."""
    space = Space(m, n, equivariant)
    return space, [literal_projected_classes(space, d) for d in range(max(m, n - m) + 2)]


def plain_products(space):
    """The product with v plain of every pair, by pair."""
    return {(u, v): quantum_product(space, u, v) for u, v in all_pairs(space)}


class TestPipelineAgainstLiteralPushPull:
    CONFIGURATIONS = [
        (2, 4, False), (2, 4, True), (2, 5, False), (3, 5, False), (1, 4, True), (2, 5, True)
    ]

    @pytest.mark.parametrize("m,n,equivariant", CONFIGURATIONS)
    def test_composite_transport_equals_chained_maps(self, m, n, equivariant):
        # the index maps must agree with literally pulling the Richardson
        # class back to T_d and pushing it forward to X
        space, classes = literal_space(m, n, equivariant)
        for d, by_pair in enumerate(classes):
            for (u, v), values in by_pair.items():
                assert projected_class(space, u, v, d) == values, (u, v, d)

    @pytest.mark.parametrize("m,n,equivariant", CONFIGURATIONS)
    def test_literal_classes_telescope_to_the_product(self, m, n, equivariant):
        # (1 - q * shift) applied to the literal Richardson classes, expanded
        # on X, is the product with v plain that the engine builds from
        # products of two opposite classes
        space, classes = literal_space(m, n, equivariant)
        self.check_telescoping(space, classes, plain_products(space))

    @pytest.mark.parametrize(
        "m,n", [(m, n) for m, n, equivariant in CONFIGURATIONS if not equivariant]
    )
    def test_narrow_digits_widen(self, monkeypatch, m, n):
        # both packed routes start at 4-bit digits and must widen: the
        # products on Y_d and the packed sum of the products with v plain
        monkeypatch.setattr(gkm, "PACK_BITS", 4)
        space = Space(m, n)
        narrow = plain_products(space)
        assert space.diagram(1).y._packed[0] > 4
        assert max(bits for _a, _b, bits in space.products) > 4
        self.check_telescoping(space, literal_space(m, n, False)[1], narrow)

    @staticmethod
    def check_telescoping(space, classes, products):
        """Each product, by pair, is the literal classes expanded on X and
        telescoped."""
        xm = space.model
        for (u, v), product in products.items():
            coeffs, prev = {}, {}
            for d, by_pair in enumerate(classes):
                cur = xm.expand_values(by_pair[u, v])
                step = dict(cur)
                for w, c in shift_expansion(space, prev).items():
                    step[w] = step.get(w, xm.zero()) - c
                step = {w: c for w, c in step.items() if not c.is_zero()}
                if step:
                    coeffs[d] = step
                prev = cur
            assert coeffs == product, (u, v)


def _drop_top_degree(monkeypatch):
    """Every product of two opposite classes, and so every product, loses
    its highest power of q, in both the Laurent and the packed form."""
    product = quantum._opposite_product

    def truncated(space, a, b, bits=0):
        coeffs = dict(product(space, a, b, bits))
        del coeffs[max(coeffs)]
        return coeffs

    monkeypatch.setattr(quantum, "_opposite_product", truncated)


def _identity_shift(monkeypatch):
    """The shift endomorphism fixes every index, so (1 - q * shift) no
    longer moves the classes it subtracts."""
    monkeypatch.setattr(quantum, "shift_expansion", lambda space, exp: exp)


def _fix_line_neighborhoods(monkeypatch):
    """Every degree-one curve neighborhood index is the index itself."""
    index = quantum.curve_neighborhood_index

    def fixed(space, lam, d):
        return tuple(lam) if d == 1 else index(space, lam, d)

    monkeypatch.setattr(quantum, "curve_neighborhood_index", fixed)


# violation lines per check of qk verify on Gr(2,4) (z mode) under each mutation
MUTATIONS = {
    "drop-top-degree": (_drop_top_degree, {"sum": 34, "hom": 36, "mindeg": 36}),
    "identity-shift": (_identity_shift, {"sign": 56}),
    "fixed-line-neighborhood": (_fix_line_neighborhoods, {"mindeg": 15, "graph": 20}),
}


class TestVerifiers:
    def test_small_equivariant_spaces_pass(self, capsys):
        for m, n in [(1, 2), (1, 3)]:
            argv = ["verify", "--space", f"gr:{m},{n}", "--equivariant"]
            assert cli.main(argv + ["--checks", ",".join(CHECKS)]) == 0
            assert capsys.readouterr().out == f"PASS pairs={len(Space(m, n).partitions) ** 2}\n"

    def test_gr24_equivariant_passes(self, gr24eq):
        assert verify_space(gr24eq, checks=tuple(CHECKS)) == []

    @pytest.mark.parametrize("m,n", [(3, 4), (3, 5)])
    def test_dual_grassmannians_pass(self, m, n):
        # the kernel-span dimensions clamp on the other side when m > n-m
        assert verify_space(get_space(m, n, equivariant=False), checks=tuple(CHECKS)) == []

    @pytest.mark.parametrize("m,n,equivariant", [(2, 5, False), (2, 4, True)])
    def test_change_of_basis_only_for_plain_v_on_x(self, monkeypatch, m, n, equivariant):
        # the degree series is built from two opposite classes, so the sum
        # check, whose products have v opposite, changes no basis; the
        # products with v plain of hom and mindeg do, and only on X
        calls = []
        basis_change = KModel.basis_change

        def recording(model):
            calls.append(model.shape)
            return basis_change(model)

        monkeypatch.setattr(KModel, "basis_change", recording)
        space = Space(m, n, equivariant=equivariant)
        assert verify_space(space, checks=("sum",)) == []
        assert calls == []
        assert verify_space(space, checks=("hom", "mindeg")) == []
        assert set(calls) == {space.shape}

    def test_change_of_basis_is_packed_once_per_width(self, monkeypatch):
        # every row u of hom reads the expansion of each O_v on X; its 50
        # scalars on Gr(2,5) are packed once at the one digit width the
        # sums need, not once per row, which made 500 packs
        packed = []
        pack = gkm.kronecker_pack

        def recording(f, *args):
            packed.append(f)
            return pack(f, *args)

        monkeypatch.setattr(gkm, "kronecker_pack", recording)
        monkeypatch.setattr(quantum, "kronecker_pack", recording)
        space = Space(2, 5)
        assert verify_space(space, checks=("hom",)) == []
        # packed holds every packed element, so no two live ones share an id
        scales = {id(c) for row in space.model.basis_change() for c in row.values()}
        assert len(scales) == 50
        assert sum(id(f) in scales for f in packed) == 50

    def test_each_plain_product_is_built_once(self, monkeypatch):
        # hom and mindeg share the plain products of a row and their chi_q,
        # and no plain product outlives its row: the memo holds products of
        # two opposite classes only
        calls = []
        sums = []
        product = quantum.quantum_product
        chi_q = quantum.euler_char_q

        def counting(space, u, v):
            calls.append((u, v))
            return product(space, u, v)

        def counting_chi(space, p):
            sums.append(p)
            return chi_q(space, p)

        monkeypatch.setattr(quantum, "quantum_product", counting)
        monkeypatch.setattr(quantum, "euler_char_q", counting_chi)
        space = Space(2, 4)
        assert verify_space(space, checks=("hom", "mindeg")) == []
        assert sorted(calls) == sorted(all_pairs(space))  # 36, one per pair
        assert len(sums) == 36  # one chi_q per product, not one per check
        assert space.products and all(
            len(key) == 3 and all(type(x) is int for x in key) and key[0] <= key[1]
            for key in space.products
        )

    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    def test_mutation_is_reported(self, capsys, monkeypatch, mutation):
        # a broken engine makes qk verify exit 1 with named violation lines
        mutate, expected = MUTATIONS[mutation]
        mutate(monkeypatch)
        # a fresh Space, so no memo holds an unmutated product or a mutated
        # one outlives the test
        monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
        rc = cli.main(["verify", "--space", "gr:2,4", "--checks", ",".join(CHECKS)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert lines[-1] == f"FAIL pairs=36 violations={sum(expected.values())}"
        assert Counter(line.split(": ", 1)[0] for line in lines[:-1]) == expected

    def test_every_check_catches_a_mutation(self):
        caught = {name for _mutate, expected in MUTATIONS.values() for name in expected}
        assert caught == set(CHECKS)


def chevalley_rows(space) -> dict:
    """Row u = (1) of the opposite structure tables of the space, by lam,
    in the form of :func:`chevalley_degree_one`: each scalar at t = 1, and
    the terms whose scalar vanishes there dropped, such as
    1 - t1^-1*t2^-1*t3*t4 at lam = (2,2) of equivariant Gr(2,4)."""
    rows = {lam: structure_table(space, (1,), lam, OPPOSITE) for lam in space.partitions}
    return {
        lam: {(w, d): n for w, d, c in row if (n := c.specialize_ones())}
        for lam, row in rows.items()
    }


class TestChevalleyOracle:
    """The engine's products with the divisor class against the quantum K
    Chevalley rule, which owes nothing to the push-pull construction."""

    # every z-mode Gr(m,n) with n <= 7, and every equivariant one with n <= 5
    @pytest.mark.parametrize("m,n,equivariant", [
        *(pytest.param(m, n, False, id=f"{m}-{n}") for n in range(2, 8) for m in range(1, n)),
        *(pytest.param(m, n, True, id=f"{m}-{n}-equivariant")
          for n in range(2, 6) for m in range(1, n)),
    ])
    def test_every_row_matches_the_rule(self, m, n, equivariant):
        for lam, row in chevalley_rows(get_space(m, n, equivariant)).items():
            assert row == chevalley_degree_one(lam, m, n), lam

    # rows that differ from the rule, of all rows, per space
    MUTATED = {
        "identity-shift": (_identity_shift, {(1, 2): 1, (1, 3): 2, (2, 4): 6, (2, 5): 10}),
        "drop-top-degree": (_drop_top_degree, {(1, 2): 2, (1, 3): 3, (2, 4): 6, (2, 5): 10}),
    }

    @pytest.mark.parametrize("mutation", list(MUTATED))
    def test_mutations_make_rows_differ(self, monkeypatch, mutation):
        mutate, expected = self.MUTATED[mutation]
        mutate(monkeypatch)
        differ = {}
        for m, n in expected:
            # a fresh Space, so no memo holds an unmutated product
            rows = chevalley_rows(Space(m, n))
            differ[m, n] = sum(row != chevalley_degree_one(lam, m, n) for lam, row in rows.items())
        assert differ == expected


class TestSignCheck:
    """The sign check passes on correct output in both scalar modes; the
    mutation it catches alone is the identity shift of ``MUTATIONS``."""

    # every z-mode Gr(m,n) with n <= 6, and every equivariant one with n <= 5
    @pytest.mark.parametrize("m,n,equivariant", [
        *(pytest.param(m, n, False, id=f"{m}-{n}") for n in range(2, 7) for m in range(1, n)),
        *(pytest.param(m, n, True, id=f"{m}-{n}-equivariant")
          for n in range(2, 6) for m in range(1, n)),
    ])
    def test_correct_output_passes(self, capsys, m, n, equivariant):
        argv = ["verify", "--space", f"gr:{m},{n}", "--checks", "sign"]
        assert cli.main(argv + ["--equivariant"] * equivariant) == 0
        assert capsys.readouterr().out == f"PASS pairs={len(Space(m, n).partitions) ** 2}\n"
