import itertools
import json

import pytest

from qkcomin.gkm import (
    OPPOSITE,
    PLAIN,
    KModel,
    LocalizedClass,
    pullback,
    pushforward,
    schubert_class,
)
from qkcomin.laurent import LaurentElement
from qkcomin.oracles import MomentGraph, givental_p1_product
from qkcomin.weyl import FlagShape, partition_to_subset
from qkcomin.quantum import (
    QKElement,
    Space,
    StructureTable,
    all_pairs,
    basis_element,
    curve_neighborhood_index,
    diameter,
    dist,
    euler_char_q,
    euler_char_total,
    get_space,
    gw_series,
    kernel_span_shapes,
    load_table_json,
    positivity_sign_report,
    projected_gw_class,
    quantum_product,
    quantum_product_opposite_v,
    shift_expansion,
    star_elements,
    structure_table,
    verify_space,
)


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
        assert y == FlagShape((), 4) and y.is_point
        assert t == gr24.shape
        # a point target forces the degree-2 class of any pair to be the unit
        cls = projected_gw_class(gr24, (2, 2), (), 2)
        assert cls.is_unit()


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
            cls = projected_gw_class(gr24eq, u, v, 0)
            rich = m.multiply_values(
                m.table(OPPOSITE)[gr24eq.index_of(u)], m.table(PLAIN)[gr24eq.index_of(v)]
            )
            assert cls.values == rich

    def test_p1_degree_one_is_unit(self, p1):
        assert projected_gw_class(p1, (1,), (), 1).is_unit()

    def test_zero_exactly_below_dist(self, gr24):
        for u, v in all_pairs(gr24):
            d0 = dist(gr24, u, v)
            for d in range(d0 + 2):
                cls = projected_gw_class(gr24, u, v, d)
                assert cls.is_zero() == (d < d0)
                if d >= d0:
                    assert gr24.model.euler_char_values(cls.values) == gr24.model.one()

    def test_gr24_point_and_box_degree_one(self, gr24eq):
        cls = projected_gw_class(gr24eq, (2, 2), (2, 2), 1)
        assert not cls.is_zero()
        m = gr24eq.model
        assert m.euler_char_values(cls.values) == m.one()
        # fixed-point support agrees with the chain-of-curves oracle
        graph = MomentGraph(2, 4)
        expected = graph.gamma(
            graph.up_set((2, 2)) & graph.down_set((2, 2)), 1
        )
        support = {
            partition_to_subset(gr24eq.partition_of(p), 2)
            for p in range(m.npoints)
            if not cls.values[p].is_zero()
        }
        assert support == set(expected)

    def test_gkm_condition_on_projected_classes(self, gr24eq):
        m = gr24eq.model
        for u, v in [((1,), (1,)), ((2, 1), (2, 2)), ((2, 2), ())]:
            for d in range(3):
                cls = projected_gw_class(gr24eq, u, v, d)
                assert m.gkm_check(cls.values)


class TestSeries:
    def test_unit_times_top_stabilizes_immediately(self, gr24):
        # the unit class from degree 0 on: the product is 1
        assert gw_series(gr24, (), (2, 2)) == ()
        assert quantum_product(gr24, (), (2, 2)) == basis_element(gr24, ())

    def test_p1_series(self, p1):
        # zero in degree 0, the unit from degree 1 on; telescopes to q
        assert gw_series(p1, (1,), ()) == ({},)
        assert quantum_product(p1, (1,), ()).coeffs == {1: {0: p1.model.one()}}

    def test_heads_below_dist_vanish(self, gr24):
        for u, v in [((2, 2), ()), ((2, 1), (1,))]:
            heads = gw_series(gr24, u, v)
            assert all(heads[d] == {} for d in range(dist(gr24, u, v)))


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
        t1 = LaurentElement.variable(4, 1)
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
            expect = QKElement(gr24, {0: gr24.model.basis_change(PLAIN)[gr24.index_of(v)]})
            assert quantum_product(gr24, (), v) == expect

    def test_p1_point_times_point(self, p1):
        star = quantum_product(p1, (1,), ())
        assert star.coeffs == {1: {0: p1.model.one()}}
        assert star.min_degree() == dist(p1, (1,), ()) == 1

    def test_p1_matches_first_principles_oracle(self):
        space = Space(1, 2, equivariant=False)
        star = quantum_product(space, (1,), ())
        got = {
            d: {space.partition_of(w): c.specialize_ones() for w, c in exp.items()}
            for d, exp in star.coeffs.items()
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
                assert structure_table(space, opp(a), opp(b), OPPOSITE).terms == (want,)

    def test_coefficients_below_dist_vanish(self, gr24):
        for u, v in all_pairs(gr24):
            star = quantum_product(gr24, u, v)
            assert star.min_degree() == dist(gr24, u, v)


class TestStructureTables:
    def test_unit_table_single_entry(self, gr24):
        for v in gr24.partitions:
            t = structure_table(gr24, (), v, OPPOSITE)
            assert t.terms == ((v, 0, LaurentElement.one(0)),)

    def test_p1_equivariant_golden_table(self, p1):
        t = structure_table(p1, (1,), (1,), OPPOSITE)
        doc = t.to_json_dict()
        assert doc["terms"] == [
            {"w": "1", "d": 0, "N": "-t1^-1*t2 + 1"},
            {"w": "", "d": 1, "N": "t1^-1*t2"},
        ]
        assert doc["sum_check"] == "1"

    def test_gr24_sums_to_one(self, gr24):
        one = LaurentElement.one(0)
        for u, v in all_pairs(gr24):
            for basis in (PLAIN, OPPOSITE):
                assert structure_table(gr24, u, v, basis).sum_check() == one

    def test_term_order(self, gr24):
        t = structure_table(gr24, (2, 1), (2, 1), OPPOSITE)
        keys = [(d, w) for w, d, _ in t.terms]
        assert keys == sorted(keys)

    def test_json_roundtrip_and_ingestion_check(self, gr24eq):
        t = structure_table(gr24eq, (1,), (1,), OPPOSITE)
        doc = json.loads(json.dumps(t.to_json_dict()))
        assert load_table_json(doc) == t
        doc["terms"][0]["N"] = "2"
        with pytest.raises(ValueError):
            load_table_json(doc)

    def test_equivariant_specializes_to_plain_table(self, gr24, gr24eq):
        for u, v in all_pairs(gr24):
            te = structure_table(gr24eq, u, v, OPPOSITE)
            tz = structure_table(gr24, u, v, OPPOSITE)
            specialized = sorted(
                (w, d, c.specialize_ones()) for w, d, c in te.terms if c.specialize_ones()
            )
            assert specialized == sorted((w, d, c.specialize_ones()) for w, d, c in tz.terms)


class TestEulerMaps:
    def test_chi_hat_of_q_is_one(self, gr24):
        q_unit = QKElement(gr24, {1: {0: gr24.model.one()}})
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

    def test_star_elements_respects_q_grading(self, gr24):
        a = basis_element(gr24, (1,), degree=1)
        b = basis_element(gr24, (1,), degree=2)
        prod = star_elements(gr24, a, b)
        base = quantum_product_opposite_v(gr24, (1,), (1,))
        assert prod.coeffs == {d + 3: exp for d, exp in base.coeffs.items()}


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
            pushforward(pullback(schubert_class(xm, i, orientation), mt), my, orientation).values
            for i in range(xm.npoints)
        ]

    opposite, plain = on_y(OPPOSITE), on_y(PLAIN)
    chained = {}
    out = {}
    for u, v in all_pairs(space):
        key = (opposite[space.index_of(u)], plain[space.index_of(v)])
        if key not in chained:
            rich = LocalizedClass(my, my.multiply_values(*key))
            chained[key] = pushforward(pullback(rich, mt), xm).values
        out[u, v] = chained[key]
    return out


class TestPipelineAgainstLiteralPushPull:
    @pytest.mark.parametrize(
        "m,n,equivariant",
        [(2, 4, False), (2, 4, True), (2, 5, False), (3, 5, False), (1, 4, True), (2, 5, True)],
    )
    def test_composite_transport_equals_chained_maps(self, m, n, equivariant):
        # the index maps must agree with literally pulling the Richardson
        # class back to T_d and pushing it forward to X
        space = Space(m, n, equivariant)
        for d in range(max(m, n - m) + 2):
            for (u, v), values in literal_projected_classes(space, d).items():
                assert projected_gw_class(space, u, v, d).values == values, (u, v, d)


class TestVerifiers:
    def test_small_equivariant_spaces_pass(self):
        for m, n in [(1, 2), (1, 3)]:
            rep = verify_space(Space(m, n, equivariant=True), oracle=True)
            assert rep.passed and rep.pairs == len(Space(m, n).partitions) ** 2

    def test_gr24_equivariant_passes(self, gr24eq):
        rep = verify_space(gr24eq, oracle=True)
        assert rep.passed

    @pytest.mark.parametrize("m,n", [(3, 4), (3, 5)])
    def test_dual_grassmannians_pass(self, m, n):
        # the kernel-span dimensions clamp on the other side when m > n-m
        rep = verify_space(get_space(m, n, equivariant=False), oracle=True)
        assert rep.passed

    @pytest.mark.parametrize("m,n,equivariant", [(2, 5, False), (2, 4, True)])
    def test_no_plain_to_opposite_change_of_basis_on_x(self, monkeypatch, m, n, equivariant):
        # the degree series is expanded in the opposite basis, so no product
        # converts plain coefficients on X to the opposite basis
        calls = []
        basis_change = KModel.basis_change

        def recording(model, source):
            calls.append((model.shape, source))
            return basis_change(model, source)

        monkeypatch.setattr(KModel, "basis_change", recording)
        space = Space(m, n, equivariant=equivariant)
        assert verify_space(space).passed
        assert (space.shape, OPPOSITE) in calls
        assert (space.shape, PLAIN) not in calls

    def test_violations_are_reported_not_raised(self, gr24):
        # a fabricated bad table shows up as a violation line
        from qkcomin.quantum import Report

        rep = Report("gr:2,4", False)
        rep.violations.append("sum u=1 v=1 got=0")
        assert not rep.passed


class TestPositivityReport:
    def test_unit_tables_trivially_consistent(self, gr24):
        for v in gr24.partitions:
            rep = positivity_sign_report(gr24, structure_table(gr24, (), v, OPPOSITE))
            assert rep["flagged"] == []

    def test_all_gr24_tables_unflagged(self, gr24):
        for u, v in all_pairs(gr24):
            rep = positivity_sign_report(gr24, structure_table(gr24, u, v, OPPOSITE))
            assert rep["flagged"] == []
            assert "(-1)^" in rep["convention"]

    def test_empty_region_vacuous(self, gr24):
        table = StructureTable("gr:2,4", False, (1,), (1,), OPPOSITE, ())
        rep = positivity_sign_report(gr24, table)
        assert rep["checked"] == 0 and rep["flagged"] == []
