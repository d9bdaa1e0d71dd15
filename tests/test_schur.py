import ast
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hookalex import schur
from hookalex.laurent import LaurentPoly, qnum
from hookalex.schur import Partition, hook_partition, ratio_at_A1
from hookalex.young import Hook, hooks_up_to_size

from conftest import (SCHUR_POINTS, PowerSumSpec, jacobi_trudi_schur, partitions_of,
                      ratio_closed_form, same_ratio, topological_factors, topological_power_sums)


# -- factor lists ---------------------------------------------------------------

def test_single_box_factors():
    fl = topological_factors(Partition((1,)))
    assert fl.contents == (0,)
    assert fl.hook_lengths == (1,)


def test_two_box_row_factors():
    fl = topological_factors(Partition((2,)))
    assert sorted(fl.contents) == [0, 1]
    assert sorted(fl.hook_lengths) == [1, 2]


def test_hook_corner_factor_is_size():
    for h in hooks_up_to_size(5):
        fl = topological_factors(hook_partition(h))
        assert fl.hook_lengths.count(h.size) == 1
        assert len(fl.contents) == len(fl.hook_lengths) == h.size


def test_vanishing_order_equals_diagonal_length():
    for n in range(1, 9):
        for nu in partitions_of(n):
            fl = topological_factors(nu)
            assert fl.zero_order_at_a1() == nu.diagonal_length


# -- the A -> 1 ratio -------------------------------------------------------------

def test_ratio_fundamental_against_column():
    assert same_ratio(ratio_at_A1(Hook(0, 0), Partition((1, 1))), (-qnum(1), qnum(2)))


def test_ratio_row_hook_against_row():
    assert same_ratio(ratio_at_A1(Hook(1, 0), Partition((4,))), (qnum(2), qnum(4)))


def test_ratio_fat_hook_vanishes():
    assert ratio_at_A1(Hook(0, 0), Partition((2, 2))) == (LaurentPoly.zero(), LaurentPoly.one())


def test_ratio_rejects_size_mismatch():
    with pytest.raises(ValueError):
        ratio_at_A1(Hook(1, 0), Partition((3,)))


def test_ratio_matches_closed_form():
    # every one-hook case with m * size <= 12
    for color in hooks_up_to_size(12):
        for total in range(color.size, 13, color.size):
            for mu in (h for h in hooks_up_to_size(total) if h.size == total):
                got = ratio_at_A1(color, hook_partition(mu))
                assert same_ratio(got, ratio_closed_form(color, mu)), (color, mu)


def test_fat_hooks_all_vanish():
    for n in range(2, 9):
        for mu in partitions_of(n):
            if mu.diagonal_length > 1:
                assert ratio_at_A1(Hook(0, 0), mu)[0].is_zero()


# -- Jacobi-Trudi oracle -------------------------------------------------------------

def _generic_spec() -> PowerSumSpec:
    # arbitrary distinct rational values for p_1, p_2
    return PowerSumSpec((Fraction(5, 2), Fraction(7, 3)))


def test_jacobi_trudi_single_box():
    spec = _generic_spec()
    assert jacobi_trudi_schur(Partition((1,)), spec) == spec.p(1)


def test_jacobi_trudi_two_boxes():
    spec = _generic_spec()
    p1, p2 = spec.p(1), spec.p(2)
    assert jacobi_trudi_schur(Partition((2,)), spec) == (p1 * p1 + p2) / 2
    assert jacobi_trudi_schur(Partition((1, 1)), spec) == (p1 * p1 - p2) / 2


def test_jacobi_trudi_matches_factor_products():
    for a, q in SCHUR_POINTS[:2]:
        for n in range(1, 6):
            spec = topological_power_sums(a, q, n)
            for nu in partitions_of(n):
                oracle = jacobi_trudi_schur(nu, spec)
                direct = topological_factors(nu).evaluate(a, q)
                assert oracle == direct, (a, q, nu)


def test_power_sum_spec_bounds():
    spec = topological_power_sums(Fraction(2), Fraction(3, 2), 3)
    with pytest.raises(ValueError):
        spec.p(4)
    with pytest.raises(ValueError):
        spec.p(0)


# -- independence -----------------------------------------------------------------------

def test_oracle_is_apart_from_the_engine():
    # the engine's weight lives in the evaluator, so evaluating never loads the oracle
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hookalex; print('hookalex.schur' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    # and the oracle takes nothing from the evaluator or the operators
    imported = {node.module for node in ast.walk(ast.parse(inspect.getsource(schur)))
                if isinstance(node, ast.ImportFrom)}
    assert imported and not imported & {"evaluator", "rmatrix"}
