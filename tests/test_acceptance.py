"""Acceptance suite: one test per criterion, every tolerance exact unless stated.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import random
from fractions import Fraction

from hookalex.braid import parse_braid
from hookalex.evaluator import alexander, check_scaling
from hookalex.laurent import LaurentPoly, qnum_bullet
from hookalex.oracle import burau_alexander
from hookalex.rmatrix import (assemble_R, commutation_holds, doublet_block,
                              hook_eigenvalues, trace_product, yang_baxter_holds)
from hookalex.schur import hook_partition, ratio_at_A1
from hookalex.young import Hook, HookGraph, hooks_up_to_size

from conftest import (SCHUR_POINTS, corpus_knots, evaluate, jacobi_trudi_schur, markov_variants,
                      partitions_of, random_knot, ratio_closed_form, same_ratio,
                      symmetric_operator_numeric, topological_factors, topological_power_sums,
                      trace_product_numeric)

SCALING_HOOKS = (Hook(1, 0), Hook(0, 1), Hook(1, 1), Hook(2, 0),
                 Hook(2, 1), Hook(1, 2), Hook(2, 2))


def _report(number: int, name: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({name}): {verdict}")
    assert not failures, f"criterion {number} ({name}): {failures[:5]}"


def test_criterion_1_scaling_property():
    failures = []
    for b in corpus_knots():
        for h in SCALING_HOOKS:
            report = check_scaling(h, b)
            if not report.equal:
                failures.append((str(b), str(h)))
    _report(1, "scaling property on the corpus", failures)


def test_criterion_2_unknot_calibration():
    failures = []
    for h in hooks_up_to_size(5):
        for text in ("1", "-1"):
            value = alexander(h, parse_braid(text, 2)).polynomial
            if value != LaurentPoly.one():
                failures.append((str(h), text, str(value)))
    _report(2, "unknot calibration", failures)


def test_criterion_3_fundamental_oracle_equivalence():
    # both sides are unit-normalized, so agreement up to +-q^k is equality
    failures = []
    rng = random.Random(20240901)
    for _ in range(20):
        m = rng.randint(2, 4)
        # a knot word's letter count has the parity of m - 1; at most 12 letters
        b = random_knot(rng, m, rng.randrange(m - 1, 13, 2))
        engine = alexander(Hook(0, 0), b).polynomial
        reference = burau_alexander(b)
        if engine != reference:
            failures.append((str(b), str(engine), str(reference)))
    _report(3, "fundamental oracle equivalence", failures)


def test_criterion_4_yang_baxter_suite():
    failures = []
    for h in hooks_up_to_size(4):
        for strands in (3, 4):
            graph = HookGraph(h, strands)
            for k in range(strands):
                for i in range(1, strands - 1):
                    if not yang_baxter_holds(graph, k, i):
                        failures.append(("yb", str(h), strands, k, i))
        graph = HookGraph(h, 4)
        for k in range(4):
            if not commutation_holds(graph, k, 1, 3):
                failures.append(("far", str(h), k))
    _report(4, "Yang-Baxter and far commutativity", failures)


def test_criterion_5_doublet_constraints():
    # entries are numerators over b = [n]_N: trace scales by b, the quadratic
    # invariants by b^2, and forward times inverse is b^2 times the identity
    failures = []
    for h in hooks_up_to_size(5):
        arm, leg = hook_eigenvalues(h)
        for n in range(2, 9):
            b = qnum_bullet(n, h.size)
            b2 = b * b
            f11, f12, f21, f22 = doublet_block(h, n, False)
            if f11 + f22 != (arm + leg) * b:
                failures.append(("trace", str(h), n))
            if f11 * f11 + f22 * f22 + 2 * f12 * f21 != (arm * arm + leg * leg) * b2:
                failures.append(("trace_sq", str(h), n))
            if f11 * f22 - f12 * f21 != arm * leg * b2:
                failures.append(("det", str(h), n))
            i11, i12, i21, i22 = doublet_block(h, n, True)
            product = (f11 * i11 + f12 * i21, f11 * i12 + f12 * i22,
                       f21 * i11 + f22 * i21, f21 * i12 + f22 * i22)
            if product != (b2, LaurentPoly.zero(), LaurentPoly.zero(), b2):
                failures.append(("inverse", str(h), n))
    _report(5, "doublet closed system of equations", failures)


def test_criterion_6_schur_consistency():
    failures = []
    for a, q in SCHUR_POINTS:
        for n in range(1, 7):
            spec = topological_power_sums(a, q, n)
            for nu in partitions_of(n):
                oracle = jacobi_trudi_schur(nu, spec)
                direct = topological_factors(nu).evaluate(a, q)
                if oracle != direct:
                    failures.append(("jt", str(nu), str(a), str(q)))
    for color in hooks_up_to_size(12):
        for total in range(color.size, 13, color.size):
            for mu in (h for h in hooks_up_to_size(total) if h.size == total):
                if not same_ratio(ratio_at_A1(color, hook_partition(mu)),
                                  ratio_closed_form(color, mu)):
                    failures.append(("ratio", str(color), str(mu)))
    for n in range(2, 9):
        for mu in partitions_of(n):
            if mu.diagonal_length > 1 and not ratio_at_A1(Hook(0, 0), mu)[0].is_zero():
                failures.append(("fat-hook", str(mu)))
    _report(6, "Schur consistency", failures)


def test_criterion_7_markov_invariance():
    failures = []
    for b in corpus_knots():
        for h in hooks_up_to_size(3):
            reference = alexander(h, b).polynomial
            mv = markov_variants(b, count=5, seed=42)
            for variant in mv.conjugates + (mv.stabilized_pos, mv.stabilized_neg):
                if alexander(h, variant).polynomial != reference:
                    failures.append((str(b), str(h), str(variant)))
    _report(7, "Markov invariance", failures)


def test_criterion_8_gauge_independence():
    failures = []
    braids = [b for b in corpus_knots() if b.strands == 3]
    points = (Fraction(3, 2), Fraction(2), Fraction(5, 3))
    for b in braids:
        for h in hooks_up_to_size(3):
            graph = HookGraph(h, 3)
            for q in points:
                for k in range(3):
                    ops = [assemble_R(graph, k, abs(g), g < 0) for g in b.letters]
                    t = trace_product(ops)
                    exact = float(evaluate(t.num, q) / evaluate(t.den, q))
                    mats = [symmetric_operator_numeric(graph, k, abs(g), float(q), g < 0)
                            for g in b.letters]
                    numeric = trace_product_numeric(mats)
                    if abs(exact - numeric) > 1e-9 * max(1.0, abs(exact)):
                        failures.append((str(b), str(h), str(q), k, exact, numeric))
    _report(8, "gauge independence", failures)
