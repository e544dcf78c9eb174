"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All identities are exact (integer or Laurent-polynomial equality); there are
no tolerances anywhere.  Run with `pytest tests/test_acceptance.py -v -s` to
see the per-criterion lines and timings.
"""

import itertools
import json
import time

import pytest

from qkcomin.gkm import OPPOSITE, PLAIN, KModel, equivariant_chars
from qkcomin.laurent import LaurentElement
from qkcomin.oracles import MomentGraph, givental_p1_product, lr_constants_setvalued
from qkcomin.weyl import FlagShape
from qkcomin.quantum import (
    QKElement,
    Space,
    all_pairs,
    basis_element,
    curve_neighborhood_index,
    diameter,
    dist,
    euler_char_q,
    euler_char_total,
    get_space,
    quantum_product,
    quantum_product_opposite_v,
    star_elements,
    structure_table,
    verify_coefficient_sum,
    verify_euler_homomorphism,
    verify_min_degree,
    verify_neighborhoods_against_graph,
)

EQUIVARIANT_SPACES = [(1, 2), (1, 3), (2, 4)]
NONEQUIVARIANT_SPACES = [(2, 5), (2, 6), (3, 6)]


def configured_spaces():
    for m, n in EQUIVARIANT_SPACES:
        yield get_space(m, n, equivariant=True)
    for m, n in NONEQUIVARIANT_SPACES:
        yield get_space(m, n, equivariant=False)


def report(num, name, violations, extra=""):
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    print(f"ACCEPTANCE {num} {name}: {status}{extra}")
    assert not violations, violations[:10]


def test_criterion_1_coefficient_sums_are_one():
    violations = []
    timings = []
    for space in configured_spaces():
        t0 = time.perf_counter()
        for basis in (OPPOSITE, PLAIN):
            rep = verify_coefficient_sum(space, v_basis=basis)
            violations.extend(f"{space} {basis} {v}" for v in rep.violations)
        timings.append(f"{space}:{time.perf_counter() - t0:.1f}s")
    report(1, "coefficient-sum identity", violations, " [" + " ".join(timings) + "]")


def test_criterion_2_min_degree_identity_with_oracle():
    violations = []
    for space in configured_spaces():
        # the oracle half checks dist, and every neighborhood, against the moment graph
        for rep in (verify_min_degree(space), verify_neighborhoods_against_graph(space)):
            violations.extend(f"{space} {v}" for v in rep.violations)
    report(2, "Euler characteristic is q^dist (oracle-checked)", violations)


def test_criterion_3_euler_map_is_ring_homomorphism():
    violations = []
    for space in configured_spaces():
        rep = verify_euler_homomorphism(space)
        violations.extend(f"{space} {v}" for v in rep.violations)
        q_unit = QKElement(space, {1: {0: space.model.one()}})
        if euler_char_total(space, q_unit) != space.model.one():
            violations.append(f"{space} q does not map to 1")
    report(3, "q=1 Euler map is multiplicative on basis pairs", violations)


def test_criterion_4_projective_line_ground_truth():
    t0 = time.perf_counter()
    space = Space(1, 2, equivariant=False, use_cache=False)
    star = quantum_product(space, (1,), ())
    got = {
        d: {space.partition_of(w): c.specialize_ones() for w, c in exp.items()}
        for d, exp in star.coeffs.items()
    }
    violations = []
    if got != {1: {(): 1}}:
        violations.append(f"product is {got}")
    if got != givental_p1_product():
        violations.append("disagrees with the first-principles pairing solve")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        violations.append(f"runtime {elapsed:.2f}s exceeds 1s")
    report(4, "projective-line ground truth", violations, f" [{elapsed * 1000:.0f}ms]")


def test_criterion_5_classical_sector_matches_tableau_oracle():
    violations = []
    for m, n in [(2, 4), (2, 5), (3, 6)]:
        space = get_space(m, n, equivariant=False)
        for u, v in all_pairs(space):
            table = structure_table(space, u, v, OPPOSITE)
            got = {
                w: c.specialize_ones() for w, d, c in table.terms if d == 0
            }
            expected = lr_constants_setvalued(u, v, m, n)
            if got != expected:
                violations.append(f"gr:{m},{n} u={u} v={v}: {got} != {expected}")
    report(5, "classical sector matches set-valued tableau oracle", violations)


def all_shapes_up_to(nmax):
    for n in range(2, nmax + 1):
        for r in range(1, n):
            for dims in itertools.combinations(range(1, n), r):
                yield FlagShape(dims, n)


def test_criterion_6_localization_calibration():
    violations = []
    for shape in all_shapes_up_to(5):
        model = KModel(shape, equivariant_chars(shape.n))
        one = model.one()
        for orientation in (PLAIN, OPPOSITE):
            table = model.table(orientation)
            for w in range(model.npoints):
                if model.euler_char_values(table[w]) != one:
                    violations.append(f"{shape} {orientation} w={w} euler != 1")
                for p in range(model.npoints):
                    inside = model.leq(p, w) if orientation == PLAIN else model.leq(w, p)
                    if table[w][p].is_zero() != (not inside):
                        violations.append(f"{shape} {orientation} w={w} support")
                diag = one
                for e in model.diag_factor_exps(w, orientation):
                    diag = diag * (one - LaurentElement.monomial(shape.n, e))
                if table[w][w] != diag:
                    violations.append(f"{shape} {orientation} w={w} diagonal")
                if not model.gkm_check(table[w]):
                    violations.append(f"{shape} {orientation} w={w} edge condition")
    # edge condition on every Richardson class on Y_d that the products of
    # each configured space produce, and on its projected class recombined
    # on X; the products are computed here (memoized, if earlier criteria
    # ran), so the recheck does not depend on test order
    checked = 0
    for space in configured_spaces():
        for u, v in all_pairs(space):
            quantum_product(space, u, v)
        xm = space.model
        for (yshape, uidx, vidx), coeffs in space.richardson.items():
            my = space.submodel(yshape)
            rich = my.multiply_values(my.table(OPPOSITE)[uidx], my.table(PLAIN)[vidx])
            if not my.gkm_check(rich):
                violations.append(f"{space} {yshape} richardson fails edge condition")
            if not xm.gkm_check(xm.recombine(coeffs, OPPOSITE)):
                violations.append(f"{space} {yshape} projected class fails edge condition")
            checked += 2
    assert checked > 0
    report(6, "localization calibration (n<=5) and edge conditions", violations,
           f" [{checked} produced classes rechecked]")


def test_criterion_7_ring_axioms():
    t0 = time.perf_counter()
    violations = []
    # unit law, exhaustively on every configured space
    for space in configured_spaces():
        for v in space.partitions:
            got = quantum_product(space, (), v)
            expect = QKElement(space, {0: space.model.basis_change(PLAIN)[space.index_of(v)]})
            if got != expect:
                violations.append(f"{space} unit law fails at v={v}")
    # commutativity of tables under the (u,v) swap
    for m, n in [(2, 4), (2, 5)]:
        space = get_space(m, n, equivariant=False)
        for u, v in all_pairs(space):
            if quantum_product_opposite_v(space, u, v) != quantum_product_opposite_v(space, v, u):
                violations.append(f"gr:{m},{n} commutativity fails at ({u},{v})")
    # associativity: all basis triples
    for m, n, equivariant in [(2, 4, False), (2, 5, False), (1, 3, True), (2, 4, True)]:
        space = get_space(m, n, equivariant=equivariant)
        for u, v, w in itertools.product(space.partitions, repeat=3):
            a, b, c = (basis_element(space, x) for x in (u, v, w))
            if star_elements(space, star_elements(space, a, b), c) != star_elements(
                space, a, star_elements(space, b, c)
            ):
                mode = " equivariant" if equivariant else ""
                violations.append(f"{space}{mode} associativity fails at ({u},{v},{w})")
    elapsed = time.perf_counter() - t0
    if elapsed >= 15 * 60:
        violations.append(f"runtime {elapsed:.0f}s exceeds 15 minutes")
    report(7, "ring axioms (unit, commutativity, associativity)", violations,
           f" [{elapsed:.1f}s]")


def neighborhood_closed_form(lam, d):
    """lam(-d): lam with its first d rows and its first d columns removed."""
    return tuple(part - d for part in lam[d:] if part > d)


def test_criterion_8_index_calculus_cross_checks():
    violations = []
    for n in range(2, 7):
        for m in range(1, n):
            space = get_space(m, n, equivariant=False)
            graph = MomentGraph(m, n)
            for lam in space.partitions:
                for d in range(diameter(space) + 2):
                    got = curve_neighborhood_index(space, lam, d)
                    if got != graph.neighborhood_partition(lam, d):
                        violations.append(f"gr:{m},{n} lam={lam} d={d} graph mismatch")
                    if got != neighborhood_closed_form(lam, d):
                        violations.append(f"gr:{m},{n} lam={lam} d={d} closed form mismatch")
    report(8, "index calculus vs moment graph and closed form (n<=6)", violations)


def test_criterion_9_table_determinism(tmp_path, monkeypatch):
    from qkcomin.cli import main
    from qkcomin.quantum import get_space as gs

    monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path / "fresh-cache"))

    def run_table():
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["table", "--space", "gr:2,4", "--jobs", "1"])
        assert rc == 0
        return buf.getvalue().encode()

    gs.cache_clear()
    cold = run_table()
    warm = run_table()
    gs.cache_clear()
    warm_disk = run_table()
    violations = []
    if cold != warm:
        violations.append("same-process rerun differs")
    if cold != warm_disk:
        violations.append("cache-warm run differs from cache-cold run")
    if len(cold.strip().split(b"\n")) != 36:
        violations.append("wrong pair count")
    report(9, "byte-identical table output across runs", violations)
