import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qkcomin.laurent import LaurentElement
from qkcomin.weyl import (
    FlagShape,
    dual_index,
    min_coset_rep,
    minrep_to_partition,
    partition_to_minrep,
    w0_conjugate_value,
)
from qkcomin.gkm import (
    OPPOSITE,
    PLAIN,
    KModel,
    NotInSpanError,
    equivariant_chars,
    zspec_chars,
)
from qkcomin.quantum import (
    Space,
    _gw_coeffs,
    kernel_span_shapes,
    point_degree,
    projected_tasks,
)
from reference import (
    bruhat_leq,
    diag_factor_exps,
    euler_char,
    expand,
    expand_plain,
    exponent_sums,
    gkm_check,
    is_unit,
    longest_element,
    permute_letters,
    preimage_index_plain,
    pullback,
    pushforward,
    sweep_tables,
)


def all_shapes(n):
    for r in range(1, n):
        for dims in itertools.combinations(range(1, n), r):
            yield FlagShape(dims, n)


def model(dims, n, chars=None):
    return KModel(FlagShape(dims, n), chars or equivariant_chars(n))


class TestCalibration:
    def test_unit_is_opposite_identity_class(self):
        m = model((2,), 4)
        assert is_unit(m.table(OPPOSITE)[0])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_triangular_support(self, n):
        for shape in all_shapes(n):
            m = KModel(shape, equivariant_chars(n))
            for o in (PLAIN, OPPOSITE):
                tab = m.table(o)
                for w in range(m.npoints):
                    for p in range(m.npoints):
                        lo, hi = (p, w) if o == PLAIN else (w, p)
                        inside = bruhat_leq(m.points[lo], m.points[hi])
                        assert tab[w][p].is_zero() == (not inside)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_diagonal_values_factor(self, n):
        """At n = 5 the shapes are X and the Y_d of Gr(2,5): the full-torus
        elimination zeroes each pivot's residual on the strength of this."""
        if n < 5:
            shapes = all_shapes(n)
        else:
            shapes = {kernel_span_shapes(Space(2, 5), d)[0] for d in range(3)}
        for shape in shapes:
            m = KModel(shape, equivariant_chars(n))
            for o in (PLAIN, OPPOSITE):
                for w in range(m.npoints):
                    diag = m.one()
                    for e in diag_factor_exps(m, w, o):
                        diag = diag * (m.one() - LaurentElement.monomial(n, e))
                    assert m.table(o)[w][w] == diag
                    if o == OPPOSITE and w != 0:
                        assert diag.specialize_ones() == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_euler_char_is_one_on_every_class(self, n):
        for shape in all_shapes(n):
            m = KModel(shape, equivariant_chars(n))
            for o in (PLAIN, OPPOSITE):
                for w in range(m.npoints):
                    assert euler_char(m, m.table(o)[w]) == m.one()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gkm_condition_on_schubert_classes(self, n):
        for shape in all_shapes(n):
            m = KModel(shape, equivariant_chars(n))
            for o in (PLAIN, OPPOSITE):
                for w in range(m.npoints):
                    assert gkm_check(m, m.table(o)[w])

    def test_determinant_character_invariance(self):
        # all values live in the degree-zero sublattice of the character ring
        m = model((1, 3), 4)
        for o in (PLAIN, OPPOSITE):
            for row in m.table(o):
                for v in row:
                    assert exponent_sums(v) <= {0}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orientations_exchanged_by_longest_element_twist(self, n):
        w0 = tuple(longest_element(n))
        for shape in all_shapes(n):
            m = KModel(shape, equivariant_chars(n))
            for w in range(m.npoints):
                dual = m.idx[dual_index(m.points[w], shape)]
                for p in range(m.npoints):
                    tw = m.idx[min_coset_rep(w0_conjugate_value(m.points[p]), shape.blocks)]
                    lhs = m.table(OPPOSITE)[w][p]
                    rhs = permute_letters(m.table(PLAIN)[dual][tw], w0)
                    assert lhs == rhs

    @pytest.mark.parametrize("chars", [equivariant_chars(4), zspec_chars(4)], ids=["t", "z"])
    def test_one_sweep_builds_both_tables(self, monkeypatch, chars):
        """In both scalar modes each orientation is built once, by the
        subword formula and its w0 translate, and no letters are exchanged."""
        calls = []
        swap = LaurentElement.swap_letters

        def counted(self, i):
            calls.append(i)
            return swap(self, i)

        builds = []
        build = KModel._build

        def counted_build(self, orientation):
            builds.append(orientation)
            return build(self, orientation)

        monkeypatch.setattr(LaurentElement, "swap_letters", counted)
        monkeypatch.setattr(KModel, "_build", counted_build)
        m = KModel(FlagShape((1, 3), 4), chars, use_cache=False)
        m.table(OPPOSITE)
        m.table(PLAIN)
        assert calls == []
        assert sorted(builds) == [OPPOSITE, PLAIN]

    @staticmethod
    def check_specializations(shape):
        """The tables of both scalar modes, built by the subword formula,
        are the literal full-torus sweep tables of :func:`sweep_tables`:
        exactly on the full torus, specialized in z mode.  Two independent
        builders meet."""
        n = shape.n
        m = KModel(shape, equivariant_chars(n), use_cache=False)
        mz = KModel(shape, zspec_chars(n), use_cache=False)
        swept = sweep_tables(m)
        for o in (PLAIN, OPPOSITE):
            assert m.table(o) == swept[o]
            for w in range(m.npoints):
                for p in range(m.npoints):
                    specialized = swept[o][w][p].substitute_letters(mz.chars.images, 1)
                    assert specialized == mz.table(o)[w][p]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_zmode_tables_are_specializations(self, n):
        for shape in all_shapes(n):
            self.check_specializations(shape)

    def test_zmode_tables_of_every_y_d_of_gr_m_6_are_specializations(self):
        shapes = {
            kernel_span_shapes(Space(m, 6), d)[0]
            for m in range(1, 6)
            for d in range(1, min(m, 6 - m) + 1)
        }
        for shape in sorted(shapes, key=str):
            self.check_specializations(shape)

    def test_subword_digit_width_does_not_depend_on_pack_bits(self, monkeypatch):
        """The subword formula widens its digits past PACK_BITS by the
        length rule, so a narrow PACK_BITS gives the same tables."""
        from qkcomin import gkm

        # coefficients up to 10 and 32, past the 4-bit digits' 7
        shapes = [*all_shapes(4), FlagShape((1, 2, 3, 4), 5), FlagShape((2, 4), 6)]
        wide = [KModel(s, zspec_chars(s.n), use_cache=False).table(OPPOSITE) for s in shapes]
        monkeypatch.setattr(gkm, "PACK_BITS", 4)
        for shape, table in zip(shapes, wide):
            narrow = KModel(shape, zspec_chars(shape.n), use_cache=False)
            assert narrow.table(OPPOSITE) == table

    def test_subword_digit_width_is_the_length_rule(self, monkeypatch):
        """The subword formula packs at the width its bound proves,
        2 max l + 2, not at a wider PACK_BITS."""
        from qkcomin import gkm

        widths = []
        unpack = gkm.kronecker_unpack

        def recording(origin, value, bits):
            widths.append(bits)
            return unpack(origin, value, bits)

        monkeypatch.setattr(gkm, "PACK_BITS", 128)
        monkeypatch.setattr(gkm, "kronecker_unpack", recording)
        for shape in [*all_shapes(4), FlagShape((2, 4), 6)]:
            m = KModel(shape, zspec_chars(shape.n), use_cache=False)
            widths.clear()
            m.table(OPPOSITE)
            assert widths and set(widths) == {2 * max(m.lengths) + 2}


class TestP1:
    def test_point_class_euler(self):
        m = model((1,), 2)
        values = m.table(OPPOSITE)[1]
        assert euler_char(m, values) == m.one()
        assert [str(v) for v in values] == ["0", "-t1^-1*t2 + 1"]


class TestMultiply:
    def test_unit_law(self):
        m = model((2,), 4)
        a = m.table(OPPOSITE)[3]
        assert m.multiply_values((m.one(),) * m.npoints, a) == a

    def test_richardson_support_iff_bruhat(self):
        m = model((2,), 4)
        for u in range(m.npoints):
            for v in range(m.npoints):
                r = m.multiply_values(m.table(OPPOSITE)[u], m.table(PLAIN)[v])
                assert all(x.is_zero() for x in r) == (not bruhat_leq(m.points[u], m.points[v]))

    def test_gr24_classical_product_matches_tableau_oracle(self):
        from slow_oracles import lr_constants_setvalued

        m = model((2,), 4)
        i1 = m.idx[partition_to_minrep((1,), 2, 4)]
        a = m.table(OPPOSITE)[i1]
        exp = m.expand_values(m.multiply_values(a, a))
        got = {
            minrep_to_partition(m.points[w], 2, 4): c.specialize_ones()
            for w, c in exp.items()
            if c.specialize_ones()
        }
        assert got == {(2,): 1, (1, 1): 1, (2, 1): -1}
        assert got == lr_constants_setvalued((1,), (1,), 2, 4)


class TestExpandProduct:
    """:meth:`KModel.expand_product`, packed in z mode, against the Laurent
    route: the pointwise product, then the expansion."""

    @pytest.mark.parametrize("equivariant,top", [(False, 6), (True, 5)])
    def test_matches_expanding_the_pointwise_product(self, equivariant, top):
        # every pair of classes of X moved to X and to each Y_d, as
        # _gw_coeffs multiplies them, for every Gr(m,n) with n <= top
        seen = set()
        for n in range(2, top + 1):
            for m in range(1, n):
                space = Space(m, n, equivariant)
                for d in range(max(m, n - m) + 1):
                    dg = space.diagram(d)
                    my, opp = dg.y, dg.y.table(OPPOSITE)
                    for a, b in itertools.product(dg.to_y, repeat=2):
                        if (my.shape, a, b) in seen:
                            continue
                        seen.add((my.shape, a, b))
                        expect = my.expand_values(my.multiply_values(opp[a], opp[b]))
                        assert my.expand_product(a, b) == expect, (my.shape, a, b)

    @pytest.mark.parametrize(
        "m,n,equivariant",
        [(1, 2, True), (1, 3, True), (2, 4, True), (2, 5, False), (2, 6, False), (3, 6, False)],
    )
    def test_unit_factor_is_not_eliminated(self, monkeypatch, m, n, equivariant):
        """O^id, index 0, is the unit class: on X and every Y_d of the
        acceptance spaces a product with it is the other class, read off
        with no elimination."""
        space = Space(m, n, equivariant)
        models = {space.diagram(d).y.shape: space.diagram(d).y
                  for d in range(point_degree(space) + 1)}
        models[space.shape] = space.model
        expected = {}
        for my in models.values():
            opp = my.table(OPPOSITE)
            expected[my.shape] = [
                my.expand_values(my.multiply_values(opp[0], opp[b])) for b in range(my.npoints)
            ]

        def eliminate(*_args):
            raise AssertionError("a product with the unit class was eliminated")

        monkeypatch.setattr(KModel, "expand_values", eliminate)
        monkeypatch.setattr(KModel, "_expand_packed", eliminate)
        for my in models.values():
            for b, expect in enumerate(expected[my.shape]):
                assert my.expand_product(0, b) == expect, (my.shape, b)
                assert my.expand_product(b, 0) == expect, (my.shape, b)

    def test_one_division_per_pivot(self, monkeypatch):
        """On the full torus each pivot is divided by its whole diagonal in
        one call: on a fresh equivariant Gr(2,5) the calls number the
        coefficients of all expansions.  A projected class with a unit
        factor (a = 0, as a <= b) is expanded without an elimination."""
        divide, expand = LaurentElement.divide_exact_one_minus, KModel.expand_values
        calls, pivots = [], []

        def counted_divide(f, *mexps):
            calls.append(mexps)
            return divide(f, *mexps)

        def counted_expand(model, values):
            coeffs = expand(model, values)
            pivots.append(len(coeffs))
            return coeffs

        monkeypatch.setattr(LaurentElement, "divide_exact_one_minus", counted_divide)
        monkeypatch.setattr(KModel, "expand_values", counted_expand)
        space = Space(2, 5, True, use_cache=False)
        space.model.basis_change()
        tasks = projected_tasks(space)
        for key, d in tasks:
            _gw_coeffs(space, d, key)
        assert len(pivots) == space.model.npoints + sum(1 for (_y, a, _b), _d in tasks if a)
        assert len(calls) == sum(pivots)


# coefficients a + b*t2 of up to four basis classes, by index mod npoints
SMALL_COEFFS = st.dictionaries(
    st.integers(0, 5), st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=4
)


class TestExpand:
    """The full-torus elimination; :class:`TestExpandZ` reruns every test on
    the packed one-variable elimination.  Plain-basis expansions are those
    of the reference elimination :func:`reference.expand_plain`."""

    chars = staticmethod(equivariant_chars)

    def new_model(self, dims, n):
        return model(dims, n, self.chars(n))

    def letter(self, n, i):
        """The scalar of the letter t_i under this character map."""
        chars = self.chars(n)
        return LaurentElement.monomial(chars.nvars, chars.images[i - 1])

    def test_expand_schubert_class_is_delta(self):
        m = self.new_model((1, 2), 3)
        for o in (PLAIN, OPPOSITE):
            for w in range(m.npoints):
                exp = expand(m, m.table(o)[w], o)
                assert exp == {w: m.one()}

    def test_expand_zero(self):
        m = self.new_model((1,), 3)
        assert m.expand_values(m.zero_values()) == {}

    def test_expand_triangular_support(self):
        m = self.new_model((2,), 4)
        for u in range(m.npoints):
            for v in range(m.npoints):
                r = m.multiply_values(m.table(OPPOSITE)[u], m.table(PLAIN)[v])
                for w in m.expand_values(r):
                    assert bruhat_leq(m.points[u], m.points[w])

    def test_not_in_span(self):
        m = self.new_model((1,), 2)
        vals = (m.one(), m.zero())  # violates the moment-graph condition
        # the division by the diagonal entry at index 1 fails
        with pytest.raises(NotInSpanError):
            m.expand_values(vals)

    def test_not_in_span_by_final_residual(self):
        # every division is exact, but a table entry below the diagonal
        # leaves a residual at an index the elimination has passed
        m = self.new_model((1,), 2)
        table = m.table(OPPOSITE)
        m._tables[OPPOSITE] = [table[0], (m.one(), table[1][1])]
        with pytest.raises(NotInSpanError):
            m.expand_values((m.zero(), table[1][1]))

    def test_recombine_roundtrip(self):
        m = self.new_model((1, 3), 4)
        t2 = self.letter(4, 2)
        coeffs = {0: m.one() + t2, 3: m.one() - t2 * t2, 5: m.one()}
        vals = m.recombine(coeffs, PLAIN)
        assert expand_plain(m, vals) == coeffs

    @settings(max_examples=15, deadline=None)
    @given(SMALL_COEFFS)
    def test_recombine_roundtrip_random(self, coeffs):
        self.check_roundtrip(coeffs)

    def check_roundtrip(self, coeffs):
        m = self.new_model((1,), 3)
        t2 = self.letter(3, 2)
        coeffs = {w % m.npoints: a * m.one() + b * t2 for w, (a, b) in coeffs.items()}
        coeffs = {w: c for w, c in coeffs.items() if not c.is_zero()}
        for o in (PLAIN, OPPOSITE):
            vals = m.recombine(coeffs, o)
            assert expand(m, vals, o) == coeffs

    def test_euler_char_basis_independent(self):
        m = self.new_model((2,), 4)
        r = m.multiply_values(m.table(OPPOSITE)[1], m.table(PLAIN)[4])
        by_opp = euler_char(m, r)
        by_plain = m.zero()
        for c in expand_plain(m, r).values():
            by_plain = by_plain + c
        assert by_opp == by_plain


class TestExpandZ(TestExpand):
    chars = staticmethod(zspec_chars)

    # hypothesis wants its own test function per class
    @settings(max_examples=15, deadline=None)
    @given(SMALL_COEFFS)
    def test_recombine_roundtrip_random(self, coeffs):
        self.check_roundtrip(coeffs)

    # only the opposite basis is eliminated packed; the plain basis is
    # expanded by the reference elimination alone
    @pytest.mark.parametrize("orientation", [OPPOSITE])
    def test_coefficients_near_the_digit_bound(self, monkeypatch, orientation):
        """Coefficients around 2**(W-1) at a narrow digit width W come back
        exactly, after the elimination widens its digits."""
        from qkcomin import gkm

        bits = 8
        monkeypatch.setattr(gkm, "PACK_BITS", bits)
        m = KModel(FlagShape((2,), 4), zspec_chars(4), use_cache=False)
        z = self.letter(4, 2)
        big = (1 << (bits - 1), 1 + (1 << (bits - 1)), (1 << (bits - 1)) - 1, 300)
        for w in range(m.npoints):
            for k, c in enumerate(big):
                sign = (-1) ** (w + k)
                coeffs = {w: sign * c * m.one() - c * z, (w + k + 1) % m.npoints: sign * m.one()}
                got = m.expand_values(m.recombine(coeffs, orientation))
                assert got == coeffs
        assert m._packed[0] > bits

    @pytest.mark.parametrize("orientation", [OPPOSITE])
    def test_quotient_past_the_digit_bound(self, monkeypatch, orientation):
        """A coefficient past 2**(W-1) whose product with the diagonal has
        small coefficients: only the bound on the quotient sees it."""
        from qkcomin import gkm

        bits = 8
        monkeypatch.setattr(gkm, "PACK_BITS", bits)
        m = KModel(FlagShape((2,), 4), zspec_chars(4), use_cache=False)
        table = m.table(orientation)
        # the point class: its row is its diagonal entry alone
        (w,) = [w for w, row in enumerate(table) if sum(map(bool, row)) == 1]
        c = m.one()
        for (k,) in m.diag_factor_exps(w):
            c = c * sum((LaurentElement.monomial(1, (i * abs(k),)) for i in range(8)), m.zero())
        assert max(map(abs, c.terms.values())) >= 1 << (bits - 1)
        assert m.expand_values(m.recombine({w: c}, orientation)) == {w: c}
        assert m._packed[0] > bits


class TestBasisChange:
    def test_top_plain_class_is_unit(self):
        m = model((2,), 4)
        top = max(range(m.npoints), key=lambda p: m.lengths[p])
        assert m.expand_values(m.table(PLAIN)[top]) == {0: m.one()}

    @staticmethod
    def combine(m, coeffs, expansions):
        """sum_x coeffs[x] * expansions[x], on coefficient dicts."""
        out = {}
        for x, c in coeffs.items():
            for y, d in expansions[x].items():
                out[y] = out.get(y, m.zero()) + c * d
        return {y: c for y, c in out.items() if not c.is_zero()}

    def test_double_change_is_identity(self):
        # opposite to plain by the literal elimination, then back to the
        # opposite basis by the change of basis
        m = model((2,), 4)
        for x, row in enumerate(m.table(OPPOSITE)):
            assert self.combine(m, expand_plain(m, row), m.basis_change()) == {x: m.one()}

    def test_specialized_change_is_box_complement(self):
        # non-equivariantly O_(1) on Gr(2,4) becomes the opposite class of the
        # 180-degree complement of (1) in the 2x2 box, i.e. (2,1)
        m = model((2,), 4)
        v = m.idx[partition_to_minrep((1,), 2, 4)]
        exp = m.expand_values(m.table(PLAIN)[v])
        specialized = {
            minrep_to_partition(m.points[w], 2, 4): c.specialize_ones()
            for w, c in exp.items()
            if c.specialize_ones()
        }
        assert specialized == {(2, 1): 1}
        assert sum((2, 1)) == 4 - sum((1,))

    @pytest.mark.parametrize("dims,n", [
        ((1,), 2), ((2,), 4), ((2,), 5), ((3,), 5), ((3,), 6), ((2,), 6), ((4,), 6), ((2,), 7),
        ((3,), 7),
    ])
    def test_zmode_change_at_one_is_the_dual_permutation(self, dims, n):
        # non-equivariantly O_v = O^(dual v), the w0 translate, so at z = 1
        # every row of the change of basis is one opposite class
        m = model(dims, n, zspec_chars(n))
        for v, row in enumerate(m.basis_change()):
            at_one = {x: c.specialize_ones() for x, c in row.items() if c.specialize_ones()}
            assert at_one == {m.dual[v]: 1}

    @classmethod
    def check_w0_duality(cls, m):
        """:meth:`KModel.basis_change` inverts the literal plain elimination
        of the opposite classes, and is its w0 translate: O_w = w0 O^{dual[w]},
        and w0 takes O_y to O^{dual[y]}."""
        change = m.basis_change()
        plain = [expand_plain(m, row) for row in m.table(OPPOSITE)]
        images, nv = m.chars.w0_images, m.chars.nvars
        for w in range(m.npoints):
            assert cls.combine(m, change[w], plain) == {w: m.one()}
            assert change[w] == {
                m.dual[y]: c.substitute_letters(images, nv) for y, c in plain[m.dual[w]].items()
            }

    @pytest.mark.parametrize("chars", [equivariant_chars, zspec_chars], ids=["t", "z"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_w0_duality_on_flag_varieties(self, n, chars):
        for shape in all_shapes(n):
            self.check_w0_duality(KModel(shape, chars(n), use_cache=False))

    @pytest.mark.parametrize("m,n", [(m, n) for n in (5, 6) for m in range(1, n)])
    def test_w0_duality_on_grassmannians(self, m, n):
        self.check_w0_duality(KModel(FlagShape((m,), n), zspec_chars(n), use_cache=False))


class TestProjections:
    """The reference pullback and pushforward of ``tests/reference.py``."""

    def test_pullback_unit(self):
        src = model((1, 2), 3)
        dst = model((1,), 3)
        assert is_unit(pullback((dst.one(),) * dst.npoints, dst, src))

    def test_pullback_of_plain_class_is_preimage_class(self):
        src = model((1, 2, 3), 4)
        dst = model((2,), 4)
        for w in range(dst.npoints):
            got = pullback(dst.table(PLAIN)[w], dst, src)
            pre = preimage_index_plain(dst.points[w], dst.shape, src.shape)
            assert got == src.table(PLAIN)[src.idx[pre]]

    def test_pullback_of_opposite_class_keeps_index(self):
        src = model((1, 3), 4)
        dst = model((3,), 4)
        for w in range(dst.npoints):
            got = pullback(dst.table(OPPOSITE)[w], dst, src)
            assert got == src.table(OPPOSITE)[src.idx[dst.points[w]]]

    def test_pullback_ring_homomorphism(self):
        src = model((1, 2), 3)
        dst = model((2,), 3)
        for a in dst.table(OPPOSITE):
            for b in dst.table(PLAIN):
                lhs = pullback(dst.multiply_values(a, b), dst, src)
                assert lhs == src.multiply_values(pullback(a, dst, src), pullback(b, dst, src))

    def test_pushforward_unit(self):
        src = model((1, 2, 3), 4)
        dst = model((1, 3), 4)
        assert is_unit(pushforward((src.one(),) * src.npoints, src, dst))

    @pytest.mark.parametrize("n", [3, 4])
    def test_pushforward_pullback_identity(self, n):
        src = model(tuple(range(1, n)), n)
        for dims in [(1,), (2,)]:
            dst = model(dims, n)
            for o in (PLAIN, OPPOSITE):
                for values in dst.table(o):
                    assert pushforward(pullback(values, dst, src), src, dst, o) == values

    def test_projection_formula(self):
        src = model((1, 2), 4)
        dst = model((2,), 4)
        for g_idx in [1, 3]:
            for f_idx in [0, 2, 5]:
                g = dst.table(PLAIN)[g_idx]
                f = src.table(OPPOSITE)[f_idx]
                lhs = pushforward(src.multiply_values(pullback(g, dst, src), f), src, dst)
                assert lhs == dst.multiply_values(g, pushforward(f, src, dst))

    def test_pushforward_orientations_agree(self):
        src = model((1, 2), 3)
        dst = model((1,), 3)
        for values in src.table(PLAIN):
            assert pushforward(values, src, dst, PLAIN) == pushforward(values, src, dst, OPPOSITE)


# a table document in two variables: monomials 1 and t1*t2^-1, scalars
# 1, 0 and 1 - t1*t2^-1, and the rows [[1, 0], [1 - t1*t2^-1, 1]]
PROBE = [[[0, 0], [1, -1]], [[0, 1], [], [0, 1, 1, -1]], [[0, 1], [2, 0]]]


class TestDiskCache:
    def test_rows_roundtrip_and_corruption_detected(self, tmp_path, monkeypatch):
        import json

        from qkcomin import cache as diskcache

        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        key = "probe"
        diskcache.store_rows(key, PROBE)
        assert diskcache.load_rows(key) == PROBE
        (path,) = tmp_path.glob("restrict_*.json")
        header, body = path.read_bytes().split(b"\n", 1)
        doc = json.loads(body)
        doc["scalars"][0] = [0, 7]
        path.write_bytes(header + b"\n" + json.dumps(doc).encode())
        assert diskcache.load_rows(key) is None
        assert diskcache.stats()["files"] == 1
        assert diskcache.clear() == 1

    @pytest.mark.parametrize("text", ["null", "[]", '"x"', "7"])
    def test_non_object_document_is_a_miss(self, tmp_path, monkeypatch, text):
        from qkcomin import cache as diskcache

        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        diskcache.store_rows("probe", PROBE)
        (path,) = tmp_path.glob("restrict_*.json")
        path.write_text(text)
        assert diskcache.load_rows("probe") is None

    @pytest.mark.parametrize(
        "rows",
        [[[7]], [[0, None], [0, 0]], [0], [[[0]]], [[True]], [["0"]], [[-1]], [[0.0]]],
    )
    def test_rows_not_of_indices_are_a_miss(self, tmp_path, monkeypatch, rows):
        """Under a valid checksum, rows whose entries are not indices of the
        document's scalars load (a hit of load_rows) but make no table."""
        from qkcomin import cache as diskcache

        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        monomials, scalars, _rows = PROBE
        diskcache.store_rows("probe", [monomials, scalars, rows])
        assert diskcache.load_rows("probe") == [monomials, scalars, rows]
        assert diskcache.load_table("probe", len(rows), 2) is None

    def test_failed_store_leaves_no_temp_file(self, tmp_path, monkeypatch):
        from qkcomin import cache as diskcache

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(diskcache.os, "replace", refuse)
        diskcache.store_rows("probe", PROBE)
        assert list(tmp_path.iterdir()) == []
        assert diskcache.load_rows("probe") is None

    def test_clear_removes_temp_file_of_killed_writer(self, tmp_path, monkeypatch):
        from qkcomin import cache as diskcache

        def refuse(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        with monkeypatch.context() as mp:
            # a writer that dies between mkstemp and os.replace cleans nothing up
            mp.setattr(diskcache.os, "replace", refuse)
            mp.setattr(diskcache.os, "unlink", lambda path: None)
            diskcache.store_rows("stale", PROBE)
        (stale,) = tmp_path.iterdir()
        assert stale.match("restrict_*.tmp")
        diskcache.store_rows("probe", PROBE)
        assert diskcache.stats()["files"] == 1
        assert diskcache.clear() == 2
        assert list(tmp_path.iterdir()) == []

    def test_projected_roundtrip_stats_and_clear(self, tmp_path, monkeypatch):
        """Projected-class documents load back, count in stats, and clear
        removes them with the temp file of a writer killed before its rename."""
        from qkcomin import cache as diskcache

        def refuse(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        y = FlagShape((1, 3), 4)
        ys = {y.dims: (y, 12)}
        z = LaurentElement.parse("t1", 1)
        classes = {(y, 0, 2): {1: z, 0: 1 - z}, (y, 0, 0): {2: z}}
        diskcache.store_classes("probe", classes)
        assert diskcache.load_classes("probe", ys, 6, 1) == classes
        assert diskcache.load_classes("other", ys, 6, 1) is None
        assert diskcache.load_classes("probe", ys, 1, 1) is None  # index 1 outside X
        assert diskcache.load_classes("probe", {}, 6, 1) is None  # no such Y_d
        assert diskcache.load_rows("probe") is None  # a table key is another file
        (path,) = tmp_path.glob("projected_*.json")
        # t1 and 1 - t1 on the monomials 1 and t1; entries by (dims, a, b)
        assert path.read_text().split("\n")[1] == (
            '{"monomials":[[0],[1]],"scalars":[[1,1],[0,1,1,-1]],'
            '"classes":[[[1,3],0,0,[2,0]],[[1,3],0,2,[0,1,1,0]]]}'
        )
        with monkeypatch.context() as mp:
            mp.setattr(diskcache.os, "replace", refuse)
            mp.setattr(diskcache.os, "unlink", lambda path: None)
            diskcache.store_classes("stale", classes)
        assert len(list(tmp_path.glob("projected_*.tmp"))) == 1
        diskcache.store_rows("probe", PROBE)
        assert diskcache.stats()["files"] == 2
        assert diskcache.clear() == 3
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("m,n,equivariant", [(2, 4, True), (2, 5, False)], ids=["t", "z"])
    def test_warm_tables_share_equal_entries(self, tmp_path, monkeypatch, m, n, equivariant):
        """A file lists each distinct scalar once, so equal entries of a
        warm table are one object.  Sharing is safe: after basis changes both
        ways and a full verify, every entry still equals a fresh build."""
        from qkcomin.quantum import Space, verify_space

        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        cold = Space(m, n, equivariant)
        assert verify_space(cold) == []
        for model in cold.models.values():
            model.table(PLAIN), model.table(OPPOSITE)
        warm = Space(m, n, equivariant)
        with monkeypatch.context() as mp:
            mp.setattr(KModel, "_build", None)  # every table must come from disk
            for shape in cold.models:
                for orientation in (PLAIN, OPPOSITE):
                    by_text: dict = {}
                    for row in warm.submodel(shape).table(orientation):
                        for v in row:
                            assert by_text.setdefault(str(v), v) is v
        for model in warm.models.values():
            model.basis_change()
        assert verify_space(warm) == []
        for shape, model in warm.models.items():
            fresh = KModel(shape, model.chars, use_cache=False)
            for orientation in (PLAIN, OPPOSITE):
                assert model.table(orientation) == fresh.table(orientation)

    @pytest.mark.parametrize("chars", [equivariant_chars(5), zspec_chars(5)], ids=["t", "z"])
    def test_tables_go_through_load_rows_and_store_rows(self, tmp_path, monkeypatch, chars):
        """load_table and store_table reach the disk through cache.load_rows
        and cache.store_rows, looked up as module globals, so wrappers put
        there (bench/tracer.py counts hits and misses with them) see every
        table: a cold build stores each table once and a warm load reads
        each table once."""
        from collections import Counter

        from qkcomin import cache as diskcache

        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        calls: Counter = Counter()
        for name in ("load_rows", "store_rows"):

            def counted(*args, _fn=getattr(diskcache, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(diskcache, name, counted)
        shapes = [FlagShape((2,), 5), FlagShape((1, 3), 5)]
        models = [KModel(shape, chars) for shape in shapes]
        cold = [m.table(o) for m in models for o in (PLAIN, OPPOSITE)]
        assert calls == {"load_rows": 4, "store_rows": 4}
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(KModel, "_build", None)  # every table must come from disk
            models = [KModel(shape, chars) for shape in shapes]
            warm = [m.table(o) for m in models for o in (PLAIN, OPPOSITE)]
        assert calls == {"load_rows": 4}
        assert warm == cold

    def test_load_table_rejects_rows_that_do_not_fit(self, tmp_path, monkeypatch):
        """load_table is a miss unless the file holds npoints rows of
        npoints indices of scalars in nvars variables."""
        from qkcomin import cache as diskcache

        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        diskcache.store_rows("probe", PROBE)
        table = diskcache.load_table("probe", 2, 2)
        assert [[str(v) for v in row] for row in table] == [["1", "0"], ["1 - t1*t2^-1", "1"]]
        assert table[0][0] is table[1][1]  # one scalar, one shared element
        assert diskcache.load_table("probe", 3, 2) is None  # too few rows
        assert diskcache.load_table("probe", 2, 1) is None  # vectors of width 2
        monomials, scalars, _rows = PROBE
        diskcache.store_rows("probe", [monomials, scalars, [[0, 1], [0]]])
        assert diskcache.load_table("probe", 2, 2) is None  # a short row

    @pytest.mark.parametrize("nvars", [1, 3])
    def test_decode_reads_back_encode(self, nvars):
        """_decode reads back what _encode writes, through JSON, each element
        with the exact bound of its exponents (a product's bound may be
        larger), and equal values share one scalar, whether or not they are
        one object."""
        import json

        from qkcomin import cache as diskcache

        a = LaurentElement.monomial(nvars, (3,) + (-2,) * (nvars - 1))
        b = LaurentElement.monomial(nvars, (-1,) * nvars)
        f = 1 - 5 * a
        one = a * LaurentElement.monomial(nvars, (-3,) + (2,) * (nvars - 1))
        values = [f, 2 * b, LaurentElement.zero(nvars), f * 1, one, f]
        assert one == 1 and one._bound == 6
        monomials, scalars, index = diskcache._encode(values)
        monomials, scalars = json.loads(diskcache._dumps([list(monomials), list(scalars)]))
        assert len(scalars) == 4 and index[id(values[0])] == index[id(values[3])]
        elements = diskcache._decode(monomials, scalars, nvars)
        got = [elements[index[id(v)]] for v in values]
        assert got == values
        assert [g._bound for g in got] == [3, 1, 0, 3, 0, 3]
        assert diskcache._decode(monomials, scalars, nvars + 1) is None  # width

    def test_model_roundtrips_through_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        shape = FlagShape((1,), 3)
        fresh = KModel(shape, equivariant_chars(3), use_cache=True)
        # force a private rebuild through the disk layer
        built = fresh._load_or_build(PLAIN)
        again = fresh._load_or_build(PLAIN)
        assert [[str(v) for v in r] for r in built] == [
            [str(v) for v in r] for r in again
        ]
