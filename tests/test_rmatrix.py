import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from hookalex import rmatrix
from hookalex.braid import closure_is_knot, parse_braid
from hookalex.laurent import (InexactDivisionError, LaurentPoly, pack, power_product, qnum,
                              qnum_bullet, unpack)
from hookalex.rmatrix import (PLAN_WIDTHS, BlockOperator, assemble_R,
                              commutation_holds, doublet_block,
                              framing_factor, hook_eigenvalues,
                              product_numerators, trace_product,
                              transpose_holds, yang_baxter_holds)
from hookalex.young import Hook, HookGraph, hooks_up_to_size

from conftest import evaluate, symmetric_operator_numeric, trace_product_numeric

mono = LaurentPoly.monomial


# -- eigenvalues and framing ------------------------------------------------------

def test_fundamental_eigenvalues():
    assert hook_eigenvalues(Hook(0, 0)) == (mono(1, 1), mono(-1, -1))


def test_row_hook_eigenvalues():
    assert hook_eigenvalues(Hook(1, 0)) == (mono(1, 6), mono(-1, 2))


def test_odd_leg_flips_signs():
    assert hook_eigenvalues(Hook(1, 1)) == (mono(-1, 3), mono(1, -3))


def test_framing_examples():
    assert framing_factor(Hook(0, 0)) == mono(1, 0)
    assert framing_factor(Hook(1, 1)) == mono(-1, 0)
    assert framing_factor(Hook(1, 0)) == mono(1, 4)


def test_framing_normalizes_eigenvalues():
    # dividing out the framing factor leaves the fundamental pair at q -> q^size
    for h in hooks_up_to_size(5):
        (arm, leg), phi = hook_eigenvalues(h), framing_factor(h)
        assert arm * phi ** -1 == mono(1, h.size)
        assert leg * phi ** -1 == mono(-1, -h.size)


# -- doublet blocks -----------------------------------------------------------------

# entries are numerators over [n]_N, so each identity carries its power of [n]_N

def test_first_doublet_fundamental():
    r11, r12, r21, r22 = doublet_block(Hook(0, 0), 2, False)
    assert r11 == mono(-1, -2)
    assert r22 == mono(1, 2)
    assert r12 * r21 == qnum(3)


def test_first_doublet_odd_leg():
    r11, _, _, r22 = doublet_block(Hook(1, 1), 2, False)
    assert r11 == mono(1, -6)
    assert r22 == mono(-1, 6)


def test_doublet_rejects_level_one():
    with pytest.raises(ValueError):
        doublet_block(Hook(0, 0), 1, False)


@pytest.mark.parametrize("h", [Hook(0, 0), Hook(2, 0), Hook(1, 2)])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_doublet_eigenvalue_constraints(h, n):
    # trace and determinant force the eigenvalue set {arm, leg}
    r11, r12, r21, r22 = doublet_block(h, n, False)
    bullet = qnum_bullet(n, h.size)
    arm, leg = hook_eigenvalues(h)
    assert r11 + r22 == (arm + leg) * bullet
    assert r11 * r22 - r12 * r21 == arm * leg * bullet * bullet
    assert r11 * r11 + r22 * r22 + 2 * r12 * r21 == (arm * arm + leg * leg) * bullet * bullet


# -- operator assembly ----------------------------------------------------------------

def test_two_strand_operators_are_singlets():
    g = HookGraph(Hook(0, 0), 2)
    for k, expected in enumerate(hook_eigenvalues(Hook(0, 0))):
        op = assemble_R(g, k, 1)
        assert op.den.is_one()
        assert list(op) == [{0: expected}]


def test_three_strand_middle_vertex_is_one_doublet():
    g = HookGraph(Hook(0, 0), 3)
    op = assemble_R(g, 1, 2)
    assert op.den == qnum_bullet(2, 1)
    r11, r12, r21, r22 = doublet_block(Hook(0, 0), 2, False)
    # paths "01", "10" in lexicographic order
    assert list(op) == [{0: r11, 1: r12}, {0: r21, 1: r22}]


def test_three_strand_corner_vertex_is_singlet():
    g = HookGraph(Hook(0, 0), 3)
    assert g.vertex(3, 0) == Hook(2, 0)
    op = assemble_R(g, 0, 1)
    assert op.den.is_one()
    assert list(op) == [{0: hook_eigenvalues(Hook(0, 0))[0]}]


def test_every_index_covered_exactly_once():
    # Each index is a singlet, its row one eigenvalue times den on the
    # diagonal, or a member of one doublet pair, whose two rows share columns.
    g = HookGraph(Hook(1, 1), 4)
    for k in range(4):
        for i in range(1, 4):
            for inverse in (False, True):
                op = assemble_R(g, k, i, inverse)
                singlets = {e ** (-1 if inverse else 1) * op.den
                            for e in hook_eigenvalues(g.base)}
                pairs = 0
                for r, row in enumerate(op):
                    assert r in row and len(row) <= 2
                    if len(row) == 1:
                        assert row[r] in singlets
                    else:
                        (c,) = set(row) - {r}
                        assert set(op[c]) == {r, c}
                        pairs += 1
                assert pairs == 0 or op.den == qnum_bullet(i, g.base.size)


def test_assemble_rejects_bad_crossing_index():
    g = HookGraph(Hook(0, 0), 3)
    with pytest.raises(ValueError):
        assemble_R(g, 0, 3)
    with pytest.raises(ValueError):
        assemble_R(g, 0, 0)


def test_operator_caches_are_bounded():
    # 144 operators stay live over the widest benchmark workload; none may be evicted
    maxsize = assemble_R.cache_info().maxsize
    assert maxsize is not None and maxsize >= 144


# -- traces ------------------------------------------------------------------------------

def test_trace_of_single_operator():
    g = HookGraph(Hook(1, 0), 2)
    t = trace_product([assemble_R(g, 0, 1)])
    assert t.num == hook_eigenvalues(Hook(1, 0))[0] * t.den


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
    dim = len(ops[0])
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
    """The width from ``dim * prod ||op||`` and ``prod ||op.den||_1`` alone.

    ``||op||`` is the largest row sum of the entries' coefficient 1-norms.
    """
    bound = len(ops[0]) * math.prod(max(sum(_norm(p) for p in row.values()) for row in op)
                                    for op in ops)
    den_bound = math.prod(_norm(op.den) for op in ops)
    return 8 * ((max(bound, den_bound).bit_length() + 8) // 8)


def test_column_bound_bounds_every_coefficient():
    for ops in itertools.chain(_seeded_products(), _deep_products()):
        bound = rmatrix._column_bound([op.numerator_rows() for op in ops])
        u = [1] * len(ops[0])
        for op in ops:  # diagonal operators included, which _column_bound skips
            u = [sum(u[r] * _norm(row[c]) for r, row in enumerate(op) if c in row)
                 for c in range(len(u))]
        assert bound == sum(u)
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


def test_a_unit_lead_term_reuses_its_column_and_carries_its_sign():
    # Each new column starts from its term of least combined exponent.  A +-1
    # one is its column of P, the very list, with the term's sign in the new
    # column's bit of the mask; any other lead takes a pass into a new list.
    # The later terms of a column add into a new list, so the reuse shows on
    # the leads alone.  At width 104 the off-diagonal q-number of this doublet
    # spreads into +-1 terms and the singlets' [2] does not.
    g, width, zero = HookGraph(Hook(0, 0), 4), 104, LaurentPoly.zero()
    op = assemble_R(g, 1, 2)
    dim, rng, leads = len(op), random.Random(7), Counter()
    terms = [list(zip(col[::3], col[1::3], col[2::3])) for col in op.packed(width)]

    def true(columns, mask, exps):
        return [[(-1 if mask >> c & 1 else 1) * unpack(columns[c][r], width, exps[c])
                 for c in range(dim)] for r in range(dim)]

    for neg in range(1 << dim):
        for exps in ([3, 0, 1], [0, 4, -1], [-2, 1, 5]):
            cols = [[pack(LaurentPoly(0, tuple(rng.randint(-5, 5) for _ in range(4))), width)
                     for _ in range(dim)] for _ in range(dim)]
            out, out_exps, out_neg = rmatrix._apply(cols, neg, exps, op.packed(width), width)
            p = true(cols, neg, exps)
            assert true(out, out_neg, out_exps) == [
                [sum((p[r][k] * op[k][c] for k in range(dim) if c in op[k]), zero)
                 for c in range(dim)] for r in range(dim)]
            # each column's lead term alone: the column of P it names, or a new list
            lead_terms, reused = [], []
            for c, col in enumerate(terms):
                found = sorted((exps[k] + e, -m if neg >> k & 1 else m, k, m, e)
                               for k, m, e in col)
                assert found[1:] == [] or found[0][0] < found[1][0]  # one lead
                base, lead, k, m, e = found[0]
                assert out_exps[c] == base and out_neg >> c & 1 == (lead == -1)
                lead_terms.append((k, m, e))
                reused.append((k, lead in (1, -1)))
                leads[lead if lead in (1, -1) else 0] += 1
            alone, _, alone_neg = rmatrix._apply(cols, neg, exps, tuple(lead_terms), width)
            assert alone_neg == out_neg
            for col, (k, unit) in zip(alone, reused):
                assert col is cols[k] if unit else all(col is not src for src in cols)
    assert leads[1] and leads[-1] and leads[0]
    for k in range(g.levels):
        ops = [assemble_R(g, k, abs(x), x < 0) for x in (1, 2, -1, 2, 3, -1, -2, 1, 2, -3)]
        rows, den = product_numerators(ops)
        dense, dense_den = _dense_product(ops)
        assert den == dense_den
        assert [[row.get(c, zero) for c in range(len(rows))] for row in rows] == dense


def _check_apply(op, width, seen):
    """_apply of ``op`` at ``width`` against the dense product, for every sign mask."""
    terms, dim, rng, zero = op.packed(width), len(op), random.Random(width), LaurentPoly.zero()
    columns = [list(zip(col[::3], col[1::3], col[2::3])) for col in terms]
    exps_cases = [[rng.randint(-6, 6) for _ in range(dim)] for _ in range(2)]
    for col in columns:
        if len(col) == 2:
            (k1, _, e1), (k2, _, e2) = col
            exps = [rng.randint(-6, 6) for _ in range(dim)]
            exps[k2] = exps[k1] + e1 - e2
            exps_cases.append(exps)
    for neg in range(1 << dim):
        for exps in exps_cases:
            cols = [[pack(LaurentPoly(0, [rng.randint(-5, 5) for _ in range(3)]), width)
                     for _ in range(dim)] for _ in range(dim)]
            out, out_exps, out_neg = rmatrix._apply(cols, neg, exps, terms, width)
            p = [[(-1 if neg >> c & 1 else 1) * unpack(cols[c][r], width, exps[c])
                  for c in range(dim)] for r in range(dim)]
            assert [[(-1 if out_neg >> c & 1 else 1) * unpack(out[c][r], width, out_exps[c])
                     for c in range(dim)] for r in range(dim)] == [
                [sum((p[r][j] * op[j][c] for j in range(dim) if c in op[j]), zero)
                 for c in range(dim)] for r in range(dim)]
            # the lead of each column: the least exponent, of two terms the first
            # on a tie, of more the least (exponent, signed multiplier, row)
            leads = []
            for col in columns:
                keys = [(exps[j] + e, -m if neg >> j & 1 else m, j, (j, m, e)) for j, m, e in col]
                leads.append(min(keys, key=lambda t: t[0]) if len(col) <= 2 else min(keys))
                seen["tie"] += len(col) == 2 and keys[0][0] == keys[1][0]
            assert out_exps == [base for base, *_ in leads]
            # alone, a +-1 lead is its column of P, the very list, its sign in the mask
            alone, _, alone_neg = rmatrix._apply(cols, neg, exps, tuple(t for *_, t in leads), width)
            assert alone_neg == out_neg
            for c, (col, (_, m, j, _)) in enumerate(zip(columns, leads)):
                if m in (1, -1):
                    assert alone[c] is cols[j] and out_neg >> c & 1 == (m < 0)
                else:
                    assert all(alone[c] is not src for src in cols) and not out_neg >> c & 1
                seen[min(len(col), 3), m if m in (1, -1) else 0] += 1


def test_apply_matches_the_dense_product_and_keeps_each_lead():
    # _apply unpacks a column of one or two terms and sorts a longer one, the
    # spread q-numbers of products at width 104 and above.  Every sign mask,
    # with exponents that also tie the two terms of each two-term column: the
    # first term then leads.
    seen = Counter()
    for hook, strands, k, letter, width in (
            (Hook(0, 0), 4, 1, 2, 8), (Hook(0, 0), 4, 1, 2, 104), (Hook(1, 0), 4, 1, 2, 104),
            (Hook(0, 1), 5, 2, 3, 128)):
        _check_apply(assemble_R(HookGraph(hook, strands), k, letter), width, seen)
    assert seen["tie"]
    # one, two and more terms; +-1 leads of both signs, and leads that take a pass
    assert {(1, 0), (2, 1), (2, -1), (2, 0), (3, 1), (3, -1)} <= set(seen)


def test_every_trace_lies_in_one_class_mod_2n():
    # The claim trace_product decodes by, checked on the trace read digit by
    # digit (the diagonal of product_numerators), which assumes no grade.
    rng = random.Random(20261020)
    for m in range(2, 8):
        for h in hooks_up_to_size(3):
            g = HookGraph(h, m)
            letters = [rng.choice((1, -1)) * rng.randint(1, m - 1) for _ in range(2 * m + 3)]
            for k in range(m):
                ops = [assemble_R(g, k, abs(x), x < 0) for x in letters]
                rows, _ = product_numerators(ops)
                num = sum((row.get(i, LaurentPoly.zero()) for i, row in enumerate(rows)),
                          LaurentPoly.zero())
                assert len(num.terms) <= 1 or num.step % (2 * h.size) == 0
                assert trace_product(ops).num == num


def test_a_digit_off_the_grade_is_an_internal_error(monkeypatch):
    # A 1x1 product packed at width 16 whose grade is 4: q^-2 (3 - 5q^4 + q^8),
    # then the same with one stray term below, between or above its terms.
    good = LaurentPoly(-2, (3, 0, 0, 0, -5, 0, 0, 0, 1))
    trace = {}

    def fake_product(ops):
        p = trace["num"]
        return [[pack(p, 16)]], 16, 0, [p.min_exp], LaurentPoly.one(), 4

    monkeypatch.setattr(rmatrix, "_packed_product", fake_product)
    trace["num"] = good
    assert trace_product([None] * 7).num == good
    for exp in (-5, -3, -1, 0, 1, 3, 5, 7, 9, 11):
        for stray in (1, -1, 2 ** 14):
            trace["num"] = good + LaurentPoly.monomial(stray, exp)
            with pytest.raises(InexactDivisionError) as exc:
                trace_product([None] * 7)
            message = str(exc.value)
            assert "7 operators on a path basis of 1" in message and len(message) < 300


def test_trace_denominator_is_the_product_of_the_operator_dens():
    # Inverse letters and repeated levels: each distinct den is raised to its count.
    for m in (3, 4, 5):
        for h in (Hook(0, 0), Hook(1, 0), Hook(1, 1), Hook(0, 2)):
            g = HookGraph(h, m)
            letters = [2, -2, m - 1, 2, -(m - 1), 1, 2, 2, -2, m - 1, -1]
            for k in range(m):
                ops = [assemble_R(g, k, abs(x), x < 0) for x in letters]
                expected = LaurentPoly.one()
                for op in ops:
                    expected = expected * op.den
                assert trace_product(ops).den == expected
                assert product_numerators(ops)[1] == expected


def test_memoized_denominator_products_match_power_product_and_dense_products():
    # den_product is keyed by the factors' values: a cold call gives
    # power_product's value, which is the dense product of the operators'
    # den, and equal factors built anew hit the same entry.
    for ops in _seeded_products():
        dense = LaurentPoly.one()
        for op in ops:
            dense = dense * op.den
        factors = tuple(Counter(op.den for op in ops if not op.den.is_one()).items())
        rmatrix.den_product.cache_clear()
        cold = rmatrix.den_product(factors)
        assert cold == power_product(factors) == dense
        copies = tuple((LaurentPoly(p.min_exp, p.coeffs), n) for p, n in factors)
        assert rmatrix.den_product(copies) is cold
        assert trace_product(ops).den == dense


def test_one_path_traces_are_read_from_their_factor():
    # Both end vertices have a basis of one path that no doublet touches: the
    # packed column stays the identity's 1, and the general decode reads the
    # trace off the column's pending signed monomial.
    rng = random.Random(20261021)
    products = []
    for m in range(2, 7):
        for h in hooks_up_to_size(3):
            g = HookGraph(h, m)
            letters = [rng.choice((1, -1)) * rng.randint(1, m - 1) for _ in range(m + 5)]
            products += [[assemble_R(g, k, abs(x), x < 0) for x in letters] for k in (0, m - 1)]
    assert all(len(ops[0]) == 1 for ops in products)
    expected = [_dense_trace(ops) for ops in products]
    assert all(len(num.terms) == 1 for num, _ in expected)
    assert [tuple(trace_product(ops)) for ops in products] == expected


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
                assert all(op.den.is_one() for op in ops)
                cols = rmatrix._packed_product(ops)[0]
                assert cols == [[int(r == c) for r in range(len(cols))] for c in range(len(cols))]
                assert tuple(trace_product(ops)) == _dense_trace(ops)
                assert not any(op._widths for op in ops)


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


# -- what products need of an operator -----------------------------------------------------

def _norm(p):
    return sum(abs(c) for c in p.coeffs)


def _exponents(p):
    return [p.min_exp + j * p.step for j, c in enumerate(p.terms) if c]


def test_plan_matches_its_rows():
    for m in range(2, 6):
        for h in hooks_up_to_size(3):
            g = HookGraph(h, m)
            for k in range(m):
                for i in range(1, m):
                    for inverse in (False, True):
                        op = assemble_R(g, k, i, inverse)
                        assert op.numerator_rows() is op
                        diagonal = [e for c, row in enumerate(op) for e in _exponents(row[c])]
                        gap = math.gcd(*[e - diagonal[0] for e in diagonal])
                        if op.den.is_one():  # diagonal, with entries +-q**exps[c]
                            assert [dict(row) for row in op] == [
                                {c: mono(-1 if op.neg >> c & 1 else 1, e)}
                                for c, e in enumerate(op.exps)]
                            assert op.grade == gap
                        else:  # every diagonal exponent in one class mod the grade, 2N
                            assert op.exps is None and op.neg == 0
                            assert op.grade == 2 * h.size and gap % op.grade == 0
                        it = iter(op.col_norms)
                        norms = {(r, c): n for c, r, n in zip(it, it, it)}
                        assert norms == {(r, c): _norm(p) for r, row in enumerate(op)
                                         for c, p in row.items()}


def _fresh(ops):
    """Copies of the operators, equal to them but with no packed terms yet."""
    copies = {id(op): BlockOperator(op, op.den) for op in ops}
    return [copies[id(op)] for op in ops]


def test_repeated_product_packs_nothing(monkeypatch):
    g = HookGraph(Hook(0, 0), 4)
    letters = (1, -2, 3, 2, -1, 3, 2)
    counts = Counter()
    pack, mul = rmatrix.pack, LaurentPoly.__mul__

    def counted_pack(p, width):
        counts["pack"] += 1
        return pack(p, width)

    def counted_mul(p, r):
        counts["mul"] += 1  # how a singlet's numerator is built from den
        return mul(p, r)

    monkeypatch.setattr(rmatrix, "pack", counted_pack)
    monkeypatch.setattr(LaurentPoly, "__mul__", counted_mul)
    built = {x: assemble_R.__wrapped__(g, 1, abs(x), x < 0) for x in set(letters)}
    ops = [built[x] for x in letters]
    assert counts["mul"] and not counts["pack"]
    counts.clear()
    first = trace_product(ops)
    assert counts["pack"] and not counts["mul"]
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
        assert len(op._widths) <= PLAN_WIDTHS
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
        block = list(doublet_block(h, n, inverse))
        if h == hook and n == 2:
            at = ("r11", "r12", "r21", "r22").index(entry)
            block[at] = -block[at]
        return tuple(block)

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
        exact = float(evaluate(t.num, q) / evaluate(t.den, q))
        mats = [symmetric_operator_numeric(g, k, abs(l), float(q), l < 0) for l in letters]
        assert abs(exact - trace_product_numeric(mats)) <= 1e-9 * max(1.0, abs(exact))
