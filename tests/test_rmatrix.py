import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from hookalex import rmatrix
from hookalex.braid import closure_is_knot, parse_braid
from hookalex.laurent import LaurentPoly, qnum, qnum_bullet
from hookalex.rmatrix import (PLAN_WIDTHS, BlockOperator, SignedMonomial, assemble_R,
                              commutation_holds, doublet_block,
                              framing_factor, hook_eigenvalues,
                              product_numerators, trace_product,
                              transpose_holds, yang_baxter_holds)
from hookalex.young import Hook, HookGraph, hooks_up_to_size

from conftest import symmetric_operator_numeric, trace_product_numeric

mono = LaurentPoly.monomial


# -- eigenvalues and framing ------------------------------------------------------

def test_fundamental_eigenvalues():
    ev = hook_eigenvalues(Hook(0, 0))
    assert ev.arm.as_laurent() == mono(1, 1)
    assert ev.leg.as_laurent() == mono(-1, -1)


def test_row_hook_eigenvalues():
    ev = hook_eigenvalues(Hook(1, 0))
    assert ev.arm.as_laurent() == mono(1, 6)
    assert ev.leg.as_laurent() == mono(-1, 2)


def test_odd_leg_flips_signs():
    ev = hook_eigenvalues(Hook(1, 1))
    assert ev.arm.as_laurent() == mono(-1, 3)
    assert ev.leg.as_laurent() == mono(1, -3)


def test_framing_examples():
    assert framing_factor(Hook(0, 0)).as_laurent() == mono(1, 0)
    assert framing_factor(Hook(1, 1)).as_laurent() == mono(-1, 0)
    assert framing_factor(Hook(1, 0)).as_laurent() == mono(1, 4)


def test_framing_normalizes_eigenvalues():
    # dividing out the framing factor leaves the fundamental pair at q -> q^size
    for h in hooks_up_to_size(5):
        ev, phi = hook_eigenvalues(h), framing_factor(h)
        assert (ev.arm * phi.inverse()).as_laurent() == mono(1, h.size)
        assert (ev.leg * phi.inverse()).as_laurent() == mono(-1, -h.size)


def test_signed_monomial_evaluate_int_input_is_exact():
    value = SignedMonomial(1, -2).evaluate(3)
    assert isinstance(value, Fraction) and value == Fraction(1, 9)
    assert SignedMonomial(-1, 3).evaluate(2) == -8
    assert SignedMonomial(-1, -1).evaluate(Fraction(2, 3)) == Fraction(-3, 2)


# -- doublet blocks -----------------------------------------------------------------

# entries are numerators over [n]_N, so each identity carries its power of [n]_N

def test_first_doublet_fundamental():
    b = doublet_block(Hook(0, 0), 2, False)
    assert b.r11 == mono(-1, -2)
    assert b.r22 == mono(1, 2)
    assert b.r12 * b.r21 == qnum(3)


def test_first_doublet_odd_leg():
    b = doublet_block(Hook(1, 1), 2, False)
    assert b.r11 == mono(1, -6)
    assert b.r22 == mono(-1, 6)


def test_doublet_rejects_level_one():
    with pytest.raises(ValueError):
        doublet_block(Hook(0, 0), 1, False)


@pytest.mark.parametrize("h", [Hook(0, 0), Hook(2, 0), Hook(1, 2)])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_doublet_eigenvalue_constraints(h, n):
    # trace and determinant force the eigenvalue set {arm, leg}
    b = doublet_block(h, n, False)
    bullet = qnum_bullet(n, h.size)
    ev = hook_eigenvalues(h)
    arm, leg = ev.arm.as_laurent(), ev.leg.as_laurent()
    assert b.r11 + b.r22 == (arm + leg) * bullet
    assert b.r11 * b.r22 - b.r12 * b.r21 == arm * leg * bullet * bullet
    assert b.r11 * b.r11 + b.r22 * b.r22 + 2 * b.r12 * b.r21 == \
        (arm * arm + leg * leg) * bullet * bullet


def test_doublet_cache_reuses_instances():
    assert doublet_block(Hook(1, 0), 3, False) is doublet_block(Hook(1, 0), 3, False)


# -- operator assembly ----------------------------------------------------------------

def test_two_strand_operators_are_singlets():
    g = HookGraph(Hook(0, 0), 2)
    ev = hook_eigenvalues(Hook(0, 0))
    for k, expected in ((0, ev.arm), (1, ev.leg)):
        op = assemble_R(g, k, 1)
        assert op.dim == 1
        assert op.doublets == ()
        assert op.singlets[0][1] == expected


def test_three_strand_middle_vertex_is_one_doublet():
    g = HookGraph(Hook(0, 0), 3)
    op = assemble_R(g, 1, 2)
    assert op.dim == 2
    assert op.singlets == ()
    ((pair, block),) = op.doublets
    assert pair == (0, 1)  # paths "01", "10" in lexicographic order
    assert block is doublet_block(Hook(0, 0), 2, False)


def test_three_strand_corner_vertex_is_singlet():
    g = HookGraph(Hook(0, 0), 3)
    assert g.vertex(3, 0) == Hook(2, 0)
    op = assemble_R(g, 0, 1)
    assert op.dim == 1 and op.doublets == ()
    assert op.singlets[0][1] == hook_eigenvalues(Hook(0, 0)).arm


def test_every_index_covered_exactly_once():
    g = HookGraph(Hook(1, 1), 4)
    for k in range(4):
        for i in range(1, 4):
            op = assemble_R(g, k, i)
            seen = [idx for idx, _ in op.singlets]
            seen += [i for pair, _ in op.doublets for i in pair]
            assert sorted(seen) == list(range(op.dim))


def test_assemble_rejects_bad_crossing_index():
    g = HookGraph(Hook(0, 0), 3)
    with pytest.raises(ValueError):
        assemble_R(g, 0, 3)
    with pytest.raises(ValueError):
        assemble_R(g, 0, 0)


def test_operator_caches_are_bounded():
    # 144 operators stay live over the widest benchmark workload; none may be evicted
    for cached in (assemble_R, doublet_block):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and maxsize >= 144


# -- traces ------------------------------------------------------------------------------

def test_trace_of_single_operator():
    g = HookGraph(Hook(1, 0), 2)
    t = trace_product([assemble_R(g, 0, 1)])
    assert t.num == hook_eigenvalues(Hook(1, 0)).arm.as_laurent() * t.den


def test_trace_of_inverse_pair_counts_paths():
    g = HookGraph(Hook(0, 0), 3)
    ops = [assemble_R(g, 1, 2, False), assemble_R(g, 1, 2, True)]
    t = trace_product(ops)
    assert t.num == 2 * t.den
    assert t.den == qnum_bullet(2, 1) * qnum_bullet(2, 1)


def test_trace_dimension_mismatch():
    g = HookGraph(Hook(0, 0), 3)
    with pytest.raises(ValueError):
        trace_product([assemble_R(g, 0, 1), assemble_R(g, 1, 1)])


# -- the packed product kernel -----------------------------------------------------------

def _dense_product(ops):
    """The ordered product by plain LaurentPoly arithmetic on ``numerator_rows``."""
    zero = LaurentPoly.zero()
    dim = ops[0].dim
    acc = [[LaurentPoly.one() if r == c else zero for c in range(dim)] for r in range(dim)]
    den = LaurentPoly.one()
    for op in ops:
        rows = op.numerator_rows()
        acc = [[sum((acc[r][k] * rows[k][c] for k in range(dim) if c in rows[k]), zero)
                for c in range(dim)] for r in range(dim)]
        den = den * op.den
    return acc, den


def _seeded_products():
    """Operator lists of seeded mixed-sign braids: m = 2..6, hooks up to size 3, every vertex."""
    rng = random.Random(20240915)
    for m in range(2, 7):
        for h in hooks_up_to_size(3):
            g = HookGraph(h, m)
            letters = [rng.choice((1, -1)) * rng.randint(1, m - 1) for _ in range(m + 5)]
            for k in range(m):
                yield [assemble_R(g, k, abs(x), x < 0) for x in letters]


def _deep_products():
    """Every vertex of T(3,31) and of a seeded 100-letter 3-strand knot, hooks (0,0) and (2,1)."""
    rng = random.Random(100)
    while True:
        knot = parse_braid(" ".join(str(rng.choice((1, -1, 2, -2))) for _ in range(100)), 3)
        if closure_is_knot(knot):
            break
    for b in (parse_braid("1 2 " * 31, 3), knot):
        for h in (Hook(0, 0), Hook(2, 1)):
            g = HookGraph(h, 3)
            for k in range(3):
                yield [assemble_R(g, k, abs(x), x < 0) for x in b.letters]


def _scalar_width(ops):
    """The width from ``dim * prod ||op||`` and ``prod ||op.den||_1`` alone."""
    plans = [op.numerator_rows() for op in ops]
    bound = ops[0].dim * math.prod(plan.norm for plan in plans)
    den_bound = math.prod(plan.den_norm for plan in plans)
    return 8 * ((max(bound, den_bound).bit_length() + 8) // 8)


def test_column_bound_bounds_every_coefficient():
    for ops in itertools.chain(_seeded_products(), _deep_products()):
        bound = rmatrix._column_bound([op.numerator_rows() for op in ops])
        dense, _ = _dense_product(ops)
        largest = max(abs(c) for row in dense for p in row for c in p.coeffs)
        assert largest <= bound
        trace = sum((dense[i][i] for i in range(len(dense))), LaurentPoly.zero())
        assert max(map(abs, trace.coeffs), default=0) <= bound


def test_width_never_above_scalar_bound_width():
    narrower = 0
    for ops in itertools.chain(_seeded_products(), _deep_products()):
        width, scalar = rmatrix._packed_product(ops)[1], _scalar_width(ops)
        assert width <= scalar
        narrower += width < scalar
    assert narrower  # the column bound does narrow some products


def test_product_numerators_match_dense_product():
    zero = LaurentPoly.zero()
    for ops in _seeded_products():
        rows, den = product_numerators(ops)
        dense, dense_den = _dense_product(ops)
        assert den == dense_den
        assert all(p != zero for row in rows for p in row.values())
        assert [[row.get(c, zero) for c in range(len(rows))] for row in rows] == dense


def test_trace_product_matches_dense_trace():
    for ops in _seeded_products():
        t = trace_product(ops)
        dense, dense_den = _dense_product(ops)
        assert t.num == sum((dense[i][i] for i in range(len(dense))), LaurentPoly.zero())
        assert t.den == dense_den


def _dense_trace(ops):
    dense, dense_den = _dense_product(ops)
    return sum((dense[i][i] for i in range(len(dense))), LaurentPoly.zero()), dense_den


def test_stacked_pending_factors_match_dense_product():
    # Long runs of letter 1, which has no doublet at any vertex, stack signed
    # monomials on the columns; the letters between the runs then combine
    # columns whose factors differ.  Even and odd legs give either eigenvalue
    # the sign -1.
    zero = LaurentPoly.zero()
    rng = random.Random(20261019)
    for m in range(2, 7):
        for h in (Hook(0, 0), Hook(0, 1), Hook(1, 1), Hook(2, 1), Hook(1, 2)):
            g = HookGraph(h, m)
            letters = []
            for _ in range(3):
                letters += [rng.choice((1, -1)) for _ in range(rng.randint(4, 9))]
                letters += [rng.choice((1, -1)) * rng.randint(1, m - 1) for _ in range(2)]
            for k in range(m):
                ops = [assemble_R(g, k, abs(x), x < 0) for x in letters]
                rows, den = product_numerators(ops)
                dense, dense_den = _dense_product(ops)
                assert den == dense_den
                assert [[row.get(c, zero) for c in range(len(rows))] for row in rows] == dense
                assert tuple(trace_product(ops)) == _dense_trace(ops)


def test_doublet_free_products_keep_the_identity_columns():
    # Operators without a doublet only change the columns' pending factors:
    # the packed columns stay the identity's, and their plans pack nothing.
    rng = random.Random(5)
    for m in range(2, 7):
        for h in (Hook(0, 0), Hook(1, 0), Hook(1, 1), Hook(1, 2)):
            g = HookGraph(h, m)
            words = {0: [rng.choice((1, -1)) * rng.randint(1, m - 1) for _ in range(15)],
                     1: [rng.choice((1, -1)) for _ in range(15)]}
            for k, letters in words.items():
                ops = _fresh([assemble_R(g, k, abs(x), x < 0) for x in letters])
                assert not any(op.doublets for op in ops)
                cols = rmatrix._packed_product(ops)[0]
                assert cols == [[int(r == c) for r in range(len(cols))] for c in range(len(cols))]
                assert tuple(trace_product(ops)) == _dense_trace(ops)
                assert not any(op.numerator_rows()._widths for op in ops)


def test_packed_trace_multiplies_no_polynomials(monkeypatch):
    b = parse_braid("-1 2 -3 4 -5 3 -2 1 4 -3 2", 6)
    assert closure_is_knot(b)
    products = []
    for h in (Hook(0, 0), Hook(1, 0)):
        g = HookGraph(h, 6)
        products += [[assemble_R(g, k, abs(x), x < 0) for x in b.letters] for k in range(6)]
    expected = []
    for ops in products:
        dense, den = _dense_product(ops)
        expected.append((sum((dense[i][i] for i in range(len(dense))), LaurentPoly.zero()), den))

    mul = LaurentPoly.__mul__

    def scalar_only(self, other):
        if isinstance(other, LaurentPoly):
            raise AssertionError("LaurentPoly x LaurentPoly on the packed path")
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", scalar_only)
    monkeypatch.setattr(LaurentPoly, "__rmul__", scalar_only)
    assert [tuple(trace_product(ops)) for ops in products] == expected


# -- operator plans ------------------------------------------------------------------------

def _norm(p):
    return sum(abs(c) for c in p.coeffs)


def test_plan_matches_its_rows():
    for m in range(2, 6):
        for h in hooks_up_to_size(3):
            g = HookGraph(h, m)
            for k in range(m):
                for i in range(1, m):
                    for inverse in (False, True):
                        op = assemble_R(g, k, i, inverse)
                        plan = op.numerator_rows()
                        assert plan.norm == max(sum(_norm(p) for p in row.values())
                                                for row in plan)
                        assert plan.den_norm == _norm(op.den)
                        if op.doublets:
                            assert plan.exps is None
                        else:  # diagonal, with entries +-q**exps[c]
                            assert [dict(row) for row in plan] == [
                                {c: mono(-1 if plan.neg >> c & 1 else 1, e)}
                                for c, e in enumerate(plan.exps)]
                        it = iter(plan.col_norms)
                        norms = {(r, c): n for c, r, n in zip(it, it, it)}
                        assert norms == {(r, c): _norm(p) for r, row in enumerate(plan)
                                         for c, p in row.items()}


def _fresh(ops):
    """Copies of the operators, equal to them but with no plan built yet."""
    copies = {id(op): replace(op) for op in ops}
    return [copies[id(op)] for op in ops]


def test_repeated_product_packs_nothing(monkeypatch):
    g = HookGraph(Hook(0, 0), 4)
    ops = _fresh([assemble_R(g, 1, abs(x), x < 0) for x in (1, -2, 3, 2, -1, 3, 2)])
    counts = Counter()
    pack, shift = rmatrix.pack, LaurentPoly.shift

    def counted_pack(p, width):
        counts["pack"] += 1
        return pack(p, width)

    def counted_shift(p, k):
        counts["shift"] += 1  # how a singlet's numerator is built from den
        return shift(p, k)

    monkeypatch.setattr(rmatrix, "pack", counted_pack)
    monkeypatch.setattr(LaurentPoly, "shift", counted_shift)
    first = trace_product(ops)
    assert counts["pack"] and counts["shift"]
    counts.clear()
    assert trace_product(ops) == first
    assert not counts


def test_products_call_numerator_rows_once_per_operator(monkeypatch):
    g = HookGraph(Hook(1, 0), 4)
    ops = [assemble_R(g, 2, abs(x), x < 0) for x in (1, 2, 1, -3, 2, 2)]
    calls = []
    numerator_rows = BlockOperator.numerator_rows

    def counted(op):
        calls.append(op)
        return numerator_rows(op)

    monkeypatch.setattr(BlockOperator, "numerator_rows", counted)
    for product in (trace_product, product_numerators, trace_product):
        calls.clear()
        product(ops)
        assert calls == ops


def test_plan_width_memo_is_bounded():
    g = HookGraph(Hook(1, 0), 3)
    op, = _fresh([assemble_R(g, 1, 2)])
    widths = set()
    for n in range(1, 12 * PLAN_WIDTHS):
        ops = [op] * n
        t = trace_product(ops)
        widths.add(rmatrix._packed_product(ops)[1])
        assert len(op.numerator_rows()._widths) <= PLAN_WIDTHS
        if n % 5 == 0:
            dense, dense_den = _dense_product(ops)
            assert t.num == dense[0][0] + dense[1][1] and t.den == dense_den
    assert len(widths) > PLAN_WIDTHS


# -- operator identities --------------------------------------------------------------------

def test_yang_baxter_spot_checks():
    for h in (Hook(0, 0), Hook(1, 1), Hook(2, 1)):
        g = HookGraph(h, 3)
        for k in range(3):
            assert yang_baxter_holds(g, k, 1)


def test_far_commutativity_spot_check():
    g = HookGraph(Hook(1, 0), 4)
    for k in range(4):
        assert commutation_holds(g, k, 1, 3)


def test_transposition_identity_holds():
    # hooks up to size 4 include every transpose; 2,240 checks in all
    for h in hooks_up_to_size(4):
        for m in range(2, 8):
            g = HookGraph(h, m)
            for k in range(m):
                for i in range(1, m):
                    assert transpose_holds(g, k, i) and transpose_holds(g, k, i, inverse=True)


@pytest.mark.parametrize("hook,entry", [(Hook(1, 0), "r21"), (Hook(0, 0), "r11")])
def test_transposition_check_catches_a_flipped_doublet_sign(monkeypatch, hook, entry):
    def flipped(h, n, inverse):
        block = doublet_block(h, n, inverse)
        if h == hook and n == 2:
            return replace(block, **{entry: -getattr(block, entry)})
        return block

    assemble_R.cache_clear()
    monkeypatch.setattr(rmatrix, "doublet_block", flipped)
    try:
        g = HookGraph(hook, 3)
        assert not transpose_holds(g, 1, 2)
        assert not transpose_holds(g, 1, 2, inverse=True)
        assert transpose_holds(g, 1, 1)  # crossing 1 has no doublet
    finally:
        assemble_R.cache_clear()


def test_inverse_gives_identity():
    g = HookGraph(Hook(1, 1), 4)
    for k in range(4):
        for i in range(1, 4):
            rows, den = product_numerators([assemble_R(g, k, i, False),
                                            assemble_R(g, k, i, True)])
            zero = LaurentPoly.zero()
            for r, row in enumerate(rows):
                for c in set(row) | {r}:
                    assert row.get(c, zero) == (den if c == r else zero)


def test_rational_gauge_matches_symmetric_floats():
    # one spot check; the acceptance suite sweeps the corpus
    g = HookGraph(Hook(1, 0), 3)
    letters = [1, -2, 1, -2]
    q = Fraction(3, 2)
    for k in range(3):
        ops = [assemble_R(g, k, abs(l), l < 0) for l in letters]
        t = trace_product(ops)
        exact = float(t.num.evaluate(q) / t.den.evaluate(q))
        mats = [symmetric_operator_numeric(g, k, abs(l), float(q), l < 0) for l in letters]
        assert abs(exact - trace_product_numeric(mats)) <= 1e-9 * max(1.0, abs(exact))
