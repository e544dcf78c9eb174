import ast
import itertools
from pathlib import Path

import pytest

import qkcomin
import slow_oracles
from qkcomin.gkm import OPPOSITE, KModel, equivariant_chars, zspec_chars
from qkcomin.laurent import LaurentElement
from qkcomin.oracles import MomentGraph
from qkcomin.weyl import FlagShape, partitions_in_box
from qkcomin.quantum import Space, quantum_product
from reference import sweep_tables
from slow_oracles import (
    chevalley_degree_one,
    givental_p1_product,
    lr_constants_setvalued,
    stable_lr_constants,
    subword_restriction,
)


class TestChevalleyRule:
    def test_point_class_of_gr24(self):
        assert chevalley_degree_one((2, 2), 2, 4) == {((1,), 1): 1}

    @pytest.mark.parametrize("m,n", [(1, 3), (2, 4), (2, 5), (3, 6)])
    def test_classical_part_is_the_set_valued_rule(self, m, n):
        """Two rules from the literature agree on q^0."""
        for lam in partitions_in_box(m, n - m):
            rule = chevalley_degree_one(lam, m, n)
            classical = {nu: c for (nu, d), c in rule.items() if d == 0}
            assert classical == lr_constants_setvalued((1,), lam, m, n), lam


class TestSetValuedRule:
    def test_empty_factor(self):
        assert lr_constants_setvalued((), (2, 1), 2, 4) == {(2, 1): 1}
        assert lr_constants_setvalued((), (), 2, 4) == {(): 1}

    def test_gr24_square_of_line_class(self):
        got = lr_constants_setvalued((1,), (1,), 2, 4)
        assert got == {(2,): 1, (1, 1): 1, (2, 1): -1}

    def test_overflowing_product_is_empty(self):
        assert lr_constants_setvalued((2, 2), (1,), 2, 4) == {}

    def test_sign_pattern(self):
        for lam, mu in itertools.product(partitions_in_box(2, 2), repeat=2):
            for nu, c in lr_constants_setvalued(lam, mu, 2, 4).items():
                expected = -1 if (sum(nu) - sum(lam) - sum(mu)) % 2 else 1
                assert c * expected > 0

    def test_symmetric(self):
        box = partitions_in_box(2, 3)
        for lam, mu in itertools.product(box, repeat=2):
            assert lr_constants_setvalued(lam, mu, 2, 5) == lr_constants_setvalued(
                mu, lam, 2, 5
            )

    def test_stable_total_sum_is_one(self):
        for lam, mu in itertools.product(partitions_in_box(2, 2), repeat=2):
            assert sum(stable_lr_constants(lam, mu).values()) == 1

    def test_box_form_filters_stable(self):
        for lam, mu in itertools.product(partitions_in_box(2, 2), repeat=2):
            stable = stable_lr_constants(lam, mu)
            filtered = {
                nu: c
                for nu, c in stable.items()
                if len(nu) <= 2 and (not nu or nu[0] <= 2)
            }
            assert filtered == lr_constants_setvalued(lam, mu, 2, 4)

    def test_top_duality(self):
        # pairing against the complementary partition hits the full box once
        got = lr_constants_setvalued((2, 1), (1,), 2, 4)
        assert got[(2, 2)] == 1

    @pytest.mark.parametrize("m,n", [(2, 4), (2, 5)])
    def test_agrees_with_localization_engine(self, m, n):
        space = Space(m, n, equivariant=False)
        mdl = space.model
        for lam, mu in itertools.product(space.partitions, repeat=2):
            prod = mdl.multiply_values(
                mdl.table(OPPOSITE)[space.index_of(lam)],
                mdl.table(OPPOSITE)[space.index_of(mu)],
            )
            exp = mdl.expand_values(prod)
            got = {
                space.partition_of(w): c.specialize_ones()
                for w, c in exp.items()
                if c.specialize_ones()
            }
            assert got == lr_constants_setvalued(lam, mu, m, n)


class TestMomentGraph:
    def test_gamma_zero_is_identity(self):
        g = MomentGraph(2, 4)
        s = frozenset({(1, 2), (3, 4)})
        assert g.gamma(s, 0) == s

    def test_p1_line_reaches_both_points(self):
        g = MomentGraph(1, 2)
        assert g.gamma(frozenset({(1,)}), 1) == {(1,), (2,)}

    def test_gr24_point_neighborhood(self):
        g = MomentGraph(2, 4)
        assert g.gamma(g.up_set((2, 2)), 1) == g.up_set((1,))

    @pytest.mark.parametrize("m,n", [(1, 3), (2, 4), (2, 5), (3, 6)])
    def test_neighborhoods_stay_schubert(self, m, n):
        g = MomentGraph(m, n)
        for lam in partitions_in_box(m, n - m):
            for d in range(0, min(m, n - m) + 2):
                lam_d = g.neighborhood_partition(lam, d)  # raises if not Schubert
                assert g.up_set(lam_d) == g.gamma(g.up_set(lam), d)

    def test_degree_one_edges_are_single_exchanges(self):
        g = MomentGraph(2, 4)
        for v in g.vertices:
            for u in g.neighbors(v):
                assert len(set(u) - set(v)) == 1


class TestGivental:
    def test_product_is_q(self):
        assert givental_p1_product() == {1: {(): 1}}

    def test_chi_q_is_q_and_chi_hat_is_one(self):
        prod = givental_p1_product()
        chi = {d: sum(exp.values()) for d, exp in prod.items()}
        assert chi == {1: 1}
        assert sum(chi.values()) == 1

    def test_matches_quantum_product(self):
        space = Space(1, 2, equivariant=False)
        star = quantum_product(space, (1,), ())
        got = {
            d: {space.partition_of(w): c.specialize_ones() for w, c in exp.items()}
            for d, exp in star.items()
        }
        assert got == givental_p1_product()


class TestSubwordFormula:
    def test_identity_class_restricts_to_one(self):
        shape = FlagShape((1,), 3)
        chars = equivariant_chars(3)
        m = KModel(shape, chars)
        for v in m.points:
            assert subword_restriction(shape, m.points[0], v, chars) == m.one()

    def test_diagonal_matches_normal_weight_product(self):
        shape = FlagShape((2,), 4)
        chars = equivariant_chars(4)
        m = KModel(shape, chars)
        for w in range(m.npoints):
            diag = m.one()
            for e in m.diag_factor_exps(w):
                diag = diag * (m.one() - LaurentElement.monomial(4, e))
            assert subword_restriction(shape, m.points[w], m.points[w], chars) == diag

    @pytest.mark.parametrize(
        "dims,n",
        [
            ((1,), 3), ((2,), 3), ((1, 2), 3), ((2,), 4), ((1, 3), 4),
            ((1,), 2), ((1,), 4), ((3,), 4), ((1, 2), 4), ((2, 3), 4), ((1, 2, 3), 4),
        ],
    )
    def test_matches_sweep_recursion(self, dims, n):
        """Every shape with n <= 4, in both scalar modes: the package's
        opposite table and the subword oracle against the literal
        full-torus sweep of :func:`reference.sweep_tables` and its w0
        translate, specialized in z mode."""
        shape = FlagShape(dims, n)
        swept = sweep_tables(KModel(shape, equivariant_chars(n), use_cache=False))[OPPOSITE]
        for chars in (equivariant_chars(n), zspec_chars(n)):
            m = KModel(shape, chars, use_cache=False)
            for w in range(m.npoints):
                for v in range(m.npoints):
                    expected = swept[w][v].substitute_letters(chars.images, chars.nvars)
                    assert m.table(OPPOSITE)[w][v] == expected
                    assert subword_restriction(shape, m.points[w], m.points[v], chars) == expected

    def test_non_minimal_index_rejected(self):
        shape = FlagShape((2,), 4)
        chars = equivariant_chars(4)
        with pytest.raises(ValueError):
            subword_restriction(shape, (2, 1, 3, 4), (1, 2, 3, 4), chars)

    def test_large_rank_rejected(self):
        shape = FlagShape((2,), 6)
        with pytest.raises(ValueError):
            subword_restriction(
                shape, (1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6), equivariant_chars(6)
            )


# -- the oracles stay independent of the engine -----------------------------------

TESTS = Path(__file__).resolve().parent
ORACLE_FILES = (Path(qkcomin.__file__).resolve().parent / "oracles.py", Path(slow_oracles.__file__))


def imported_modules(path: Path) -> set:
    """Dotted names of every module the file imports, at any depth."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("qkcomin" if node.level else "", node.module)))
            if base == "qkcomin":
                out.update(f"qkcomin.{alias.name}" for alias in node.names)
            else:
                out.add(base)
    return out


@pytest.mark.parametrize("path", ORACLE_FILES, ids=lambda p: p.name)
def test_oracles_import_only_scalars_and_permutations(path):
    """The oracles may use the package's scalars and permutations, never the
    tables, and never the test references, which call the engine."""
    imported = imported_modules(path)
    package = {name for name in imported if name.split(".")[0] == "qkcomin"}
    assert package <= {"qkcomin.laurent", "qkcomin.weyl"}
    test_modules = {p.stem for p in TESTS.glob("*.py")}
    assert not {name.split(".")[0] for name in imported} & test_modules
