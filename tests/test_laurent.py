import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hookalex import laurent
from hookalex.laurent import (InexactDivisionError, LaurentPoly, exact_div, pack, power_product,
                              qnum, qnum_bullet, unpack, unpack_digits)

from conftest import evaluate

polys = st.builds(LaurentPoly, st.integers(-5, 5),
                  st.lists(st.integers(-9, 9), max_size=6))
nonzero_polys = polys.filter(lambda p: not p.is_zero())

monomials = st.builds(LaurentPoly.monomial, st.integers(-9, 9).filter(bool), st.integers(-5, 5))

Q = LaurentPoly.monomial(1, 1)
QI = LaurentPoly.monomial(1, -1)


# -- ring arithmetic ------------------------------------------------------------

@given(monomials, st.integers(0, 6))
def test_monomial_power_is_repeated_multiplication(p, n):
    expected = LaurentPoly.one()
    for _ in range(n):
        expected = expected * p
    assert p ** n == expected


@given(st.sampled_from((1, -1)), st.integers(-5, 5), st.integers(-6, -1))
def test_negative_power_of_a_unit_monomial(c, e, n):
    p = LaurentPoly.monomial(c, e)
    assert p ** n * p ** -n == LaurentPoly.one()
    assert p ** n == LaurentPoly.monomial(c ** -n, e * n)


@given(monomials.filter(lambda p: abs(p.terms[0]) > 1), st.integers(-6, -1))
def test_negative_power_of_a_non_unit_monomial_raises(p, n):
    with pytest.raises(ValueError):
        p ** n


def test_difference_of_squares():
    assert (Q + QI) * (Q - QI) == LaurentPoly(-2, (-1, 0, 0, 0, 1))


def test_cancellation_gives_canonical_zero():
    z = (Q - QI) - (Q - QI)
    assert z == LaurentPoly.zero()
    assert z.min_exp == 0 and z.coeffs == ()


def test_construction_trims():
    p = LaurentPoly(-3, (0, 1, 2, 0, 0))
    assert p.min_exp == -2 and p.coeffs == (1, 2)
    assert p.coeffs[0] != 0 and p.coeffs[-1] != 0


@given(polys)
def test_additive_identity(p):
    assert p + LaurentPoly.zero() == p


@given(polys, polys)
def test_addition_commutes(p, r):
    assert p + r == r + p


@given(polys, polys, polys)
def test_addition_associates(p, r, s):
    assert (p + r) + s == p + (r + s)


@given(polys, polys)
def test_multiplication_commutes(p, r):
    assert p * r == r * p


@given(polys, polys, polys)
def test_multiplication_associates(p, r, s):
    assert (p * r) * s == p * (r * s)


@given(polys, polys, polys)
def test_distributivity(p, r, s):
    assert p * (r + s) == p * r + p * s


@given(polys)
def test_negation_cancels(p):
    assert p + (-p) == LaurentPoly.zero()


# -- q-numbers -------------------------------------------------------------------

def test_qnum_small():
    assert qnum(1) == LaurentPoly.one()
    assert qnum(2) == Q + QI
    assert qnum(4) == LaurentPoly(-3, (1, 0, 1, 0, 1, 0, 1))


def test_qnum_rejects_nonpositive():
    with pytest.raises(ValueError):
        qnum(0)
    with pytest.raises(ValueError):
        qnum(-3)


def test_qnum_bullet_values():
    assert qnum_bullet(2, 3) == LaurentPoly(-3, (1, 0, 0, 0, 0, 0, 1))
    assert qnum_bullet(3, 2) == LaurentPoly(-4, (1, 0, 0, 0, 1, 0, 0, 0, 1))
    for n in range(1, 8):
        assert qnum_bullet(n, 1) == qnum(n)


def test_qnum_bullet_rejects_bad_args():
    with pytest.raises(ValueError):
        qnum_bullet(0, 2)
    with pytest.raises(ValueError):
        qnum_bullet(2, 0)


def test_qnum_bullet_is_power_substitution():
    for n in range(1, 21):
        for base in range(1, 21):
            assert qnum_bullet(n, base) == qnum(n).substitute_power(base)


def test_qnum_product_identity():
    # [n+1][n-1] = [n]^2 - 1, the identity behind the doublet determinant
    for n in range(2, 41):
        assert qnum(n + 1) * qnum(n - 1) == qnum(n) * qnum(n) - LaurentPoly.one()


# -- substitutions ------------------------------------------------------------------

def test_substitute_power_examples():
    p = LaurentPoly(-2, (1, 0, -1, 0, 1))  # q^2 - 1 + q^-2
    assert p.substitute_power(3) == LaurentPoly(-6, (1,) + (0,) * 5 + (-1,) + (0,) * 5 + (1,))
    assert p.substitute_power(1) == p
    assert LaurentPoly.one().substitute_power(7) == LaurentPoly.one()


@given(polys, st.integers(1, 5))
def test_substitute_power_scales_exponents(p, k):
    def by_exponent(x):
        return {x.min_exp + i: c for i, c in enumerate(x.coeffs)}

    sub, before = by_exponent(p.substitute_power(k)), by_exponent(p)
    for exp in range(p.min_exp, p.degree() + 1):
        assert sub.get(exp * k, 0) == before.get(exp, 0)


# -- q -> -q^-1 ---------------------------------------------------------------------

# substitutions and shifts give every parity of step and of the exponents
strided = st.builds(lambda p, k, s: p.substitute_power(k).shift(s),
                    polys, st.integers(1, 4), st.integers(-3, 3))


@given(strided)
def test_substitute_neg_inverse_is_an_involution(p):
    assert p.substitute_neg_inverse().substitute_neg_inverse() == p


@given(strided, strided)
def test_substitute_neg_inverse_respects_ring_operations(p, r):
    w = LaurentPoly.substitute_neg_inverse
    assert w(p + r) == w(p) + w(r)
    assert w(p * r) == w(p) * w(r)


@given(strided, st.fractions(-4, 4, max_denominator=5).filter(bool))
def test_substitute_neg_inverse_evaluates_at_minus_reciprocal(p, q):
    assert evaluate(p.substitute_neg_inverse(), q) == evaluate(p, -1 / q)


@given(strided)
def test_substitute_neg_inverse_is_canonical(p):
    w = p.substitute_neg_inverse()
    assert w == LaurentPoly(w.min_exp, w.coeffs)
    assert _dense(w) == {-e: -c if e % 2 else c for e, c in _dense(p).items()}


def test_substitute_neg_inverse_of_zero():
    z = LaurentPoly.zero().substitute_neg_inverse()
    assert z == LaurentPoly.zero() and (z.min_exp, z.step, z.terms) == (0, 1, ())


# -- exact division -----------------------------------------------------------------

def test_exact_div_rechecked_by_multiplication():
    num = LaurentPoly(-3, (1, 0, 0, 0, 0, 0, 1))  # q^3 + q^-3
    den = qnum(2)
    quo = exact_div(num, den)
    assert quo * den == num
    assert quo == LaurentPoly(-2, (1, 0, -1, 0, 1))


def test_exact_div_identities():
    p = LaurentPoly(-1, (2, -1, 4))
    assert exact_div(p, LaurentPoly.one()) == p
    assert exact_div(Q * Q - QI * QI, Q - QI) == qnum(2)


def test_exact_div_failure():
    with pytest.raises(InexactDivisionError):
        exact_div(Q * Q + LaurentPoly.one(), Q + LaurentPoly.one())
    with pytest.raises(InexactDivisionError):
        exact_div(LaurentPoly.one(), LaurentPoly.constant(2))
    with pytest.raises(ZeroDivisionError):
        exact_div(Q, LaurentPoly.zero())


def test_inexact_division_message_is_bounded():
    num = LaurentPoly(-500, [10 ** 30 + i for i in range(1001)])
    with pytest.raises(InexactDivisionError) as exc:
        exact_div(num, LaurentPoly(0, (3, 1, 2)))
    message = str(exc.value)
    assert len(message) < 300
    assert "-500..500" in message and "100-bit" in message


@given(polys, nonzero_polys)
def test_exact_div_inverts_multiplication(p, d):
    assert exact_div(p * d, d) == p


@given(polys, nonzero_polys, polys, st.integers(1, 3), st.integers(1, 3), st.integers(-3, 3))
def test_packed_division_matches_the_schoolbook_loop(p, d, r, j, k, s):
    # the substitutions and the shift give operands of different steps and offsets
    den = d.substitute_power(k).shift(s)
    exact = p.substitute_power(j) * den
    for num in (exact, exact + r, exact * 3 + 1):
        if num.is_zero():  # answered before either division runs
            continue
        try:
            want = laurent._schoolbook_div(num, den)
        except InexactDivisionError:
            with pytest.raises(InexactDivisionError) as exc:
                exact_div(num, den)
            assert len(str(exc.value)) < 300
        else:
            assert exact_div(num, den) == want
            assert want * den == num
    assert exact_div(exact, den) == p.substitute_power(j)


def test_unit_monomial_division_is_a_shift():
    p = qnum_bullet(3, 4).shift(5) + LaurentPoly.monomial(-7, 2)
    for e in (-3, 0, 4):
        assert exact_div(p, LaurentPoly.monomial(1, e)) == p.shift(-e)
        assert exact_div(p, LaurentPoly.monomial(-1, e)) == -p.shift(-e)


def test_division_across_steps_and_offsets():
    a, b = qnum_bullet(6, 3).shift(7), qnum_bullet(4, 2).shift(-4)  # steps 6 and 4
    c = LaurentPoly(-1, (2, 0, 0, -1, 0, 0, 5))  # step 3
    num = a * b * c
    assert exact_div(num, a) == b * c
    assert exact_div(num, b * c) == a
    assert exact_div(num, c.shift(2)) == (a * b).shift(-2)
    with pytest.raises(InexactDivisionError):
        exact_div(num + LaurentPoly.monomial(1, 1), a)


def test_a_quotient_past_the_width_falls_back_to_the_schoolbook_loop(monkeypatch):
    # ||num||_inf * ||den||_1 = 3 * 8 fits 8 bits, but the quotient's
    # coefficients reach 1200: its packed value carries, and is not accepted.
    one, q = LaurentPoly.one(), LaurentPoly.monomial(1, 1)
    num, den = (one - q ** 40) ** 3, (one - q) ** 3
    ran = []
    schoolbook = laurent._schoolbook_div

    def spy(a, b):
        ran.append((a, b))
        return schoolbook(a, b)

    monkeypatch.setattr(laurent, "_schoolbook_div", spy)
    quo = exact_div(num, den)
    assert ran == [(num, den)]
    assert quo == LaurentPoly(0, (1,) * 40) ** 3 and quo * den == num
    assert max(quo.terms) >= 2 ** 7
    ran.clear()
    assert exact_div(num, one - q) == (one - q) ** 2 * LaurentPoly(0, (1,) * 40) ** 3
    assert not ran  # a small quotient is accepted from the packed division


def test_power_product():
    q = LaurentPoly.monomial(1, 1)
    factors = [(qnum_bullet(3, 2), 4), (qnum_bullet(2, 2), 1), (q * 5 - 3, 2)]
    expected = LaurentPoly.one()
    for p, n in factors:  # by repeated multiplication, since ** goes through power_product
        for _ in range(n):
            expected = expected * p
    assert power_product(factors) == expected
    assert power_product([]) == LaurentPoly.one()
    assert power_product([(qnum(5), 0)]) == LaurentPoly.one()


# -- strided storage ----------------------------------------------------------------------

def _dense(p):
    return {p.min_exp + i: c for i, c in enumerate(p.coeffs) if c}


@given(polys, polys, st.integers(1, 4), st.integers(1, 4), st.integers(-3, 3))
def test_strided_arithmetic_matches_dense(p, r, k, m, s):
    # substitutions and shifts give operands of different steps and offsets
    a, b = p.substitute_power(k), r.substitute_power(m).shift(s)
    da, db = _dense(a), _dense(b)
    total = {e: da.get(e, 0) + db.get(e, 0) for e in set(da) | set(db)}
    assert _dense(a + b) == {e: c for e, c in total.items() if c}
    prod = {}
    for e, c in da.items():
        for f, d in db.items():
            prod[e + f] = prod.get(e + f, 0) + c * d
    assert _dense(a * b) == {e: c for e, c in prod.items() if c}


@given(strided, st.integers(-9, 9).filter(bool), st.integers(-4, 4))
def test_monomial_product_is_a_scaled_shift(p, c, e):
    m = LaurentPoly.monomial(c, e)
    for prod in (p * m, m * p):
        assert prod == p.shift(e) * c
        assert prod == LaurentPoly(prod.min_exp, prod.coeffs)


@given(polys, st.integers(1, 4), st.integers(-3, 3))
def test_step_is_the_gcd_of_exponent_gaps(p, k, s):
    a = p.substitute_power(k).shift(s)
    exps = sorted(_dense(a))
    gaps = [e - exps[0] for e in exps[1:]]
    assert a.step == (math.gcd(*gaps) if gaps else 1)
    assert len(a.terms) == (a.degree() - a.min_exp) // a.step + 1 if exps else a.terms == ()
    assert LaurentPoly(a.min_exp, a.coeffs) == a


def test_strided_division_and_evaluation():
    num = qnum_bullet(6, 3) * qnum_bullet(2, 2)
    assert num.step == 2 and qnum_bullet(6, 3).step == 6
    assert exact_div(num, qnum_bullet(6, 3)) == qnum_bullet(2, 2)
    assert exact_div(num.shift(1), qnum_bullet(2, 2)) == qnum_bullet(6, 3).shift(1)
    with pytest.raises(InexactDivisionError):
        exact_div(num + LaurentPoly.one(), qnum_bullet(6, 3))
    q = Fraction(3, 2)
    assert evaluate(num, q) == evaluate(qnum_bullet(6, 3), q) * evaluate(qnum_bullet(2, 2), q)


# -- Kronecker packing ------------------------------------------------------------------

@pytest.mark.parametrize("width", [8, 16, 48, 72])
def test_pack_roundtrip_at_the_coefficient_bound(width):
    top = 2 ** (width - 1) - 1
    for p in (LaurentPoly.zero(), LaurentPoly.monomial(-top, -7),
              LaurentPoly(-3, (top, -top, 0, 1, -1, 0, top)),
              LaurentPoly(-5, (-top,) * 9), LaurentPoly(4, (1, 0, 0, -top))):
        assert unpack(pack(p, width), width, p.min_exp) == p


def test_pack_is_the_value_at_a_power_of_two():
    p = LaurentPoly(-2, (5, 0, -3, 1))
    assert pack(p, 16) == 5 - 3 * 2 ** 32 + 2 ** 48
    assert pack(LaurentPoly.zero(), 16) == 0


def test_pack_respects_ring_operations():
    p, r = LaurentPoly(-2, (5, 0, -3, 1)), LaurentPoly(1, (-2, 7))
    width = 24
    assert pack(p * r, width) == pack(p, width) * pack(r, width)
    s = p + r.shift(-3)  # both start at q^-2, so their packs add
    assert pack(s, width) == pack(p, width) + pack(r.shift(-3), width)


def test_unpack_bound_is_tight():
    # one past the bound lands in the next digit: the bound in the docstring is exact
    width = 8
    p = LaurentPoly(0, (2 ** (width - 1), 1))
    assert unpack(2 ** (width - 1) + 2 ** width, width, 0) != p
    with pytest.raises(OverflowError):  # and pack refuses the coefficient outright
        pack(p, width)


def test_unpack_allocates_coefficients_at_their_own_size():
    # Small coefficients decoded at a wide width are allocated no larger
    # than the same polynomial built from literal ints.
    coeffs = [(-1) ** i * (300 + i) for i in range(200)]
    value = pack(LaurentPoly(-3, coeffs), 136)

    def allocated(build):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = build()
            return tracemalloc.get_traced_memory()[0] - before, kept
        finally:
            tracemalloc.stop()

    decoded, p = allocated(lambda: unpack(value, 136, -3))
    built, r = allocated(lambda: LaurentPoly(-3, [int(text) for text in map(str, coeffs)]))
    assert p == r
    assert decoded <= built


def test_unpack_reads_a_carry_past_the_bit_length():
    # 32765 < 2**15, but its balanced base-256 digits are -3, -128, 1
    assert unpack_digits(32765, 8) == [-3, -128, 1]
    assert unpack(32765, 8, 0) == LaurentPoly(0, (-3, -128, 1))


@given(st.integers(-2 ** 70, 2 ** 70), st.sampled_from([8, 16, 24]))
def test_unpack_digits_of_any_int_are_its_balanced_digits(value, width):
    digits = unpack_digits(value, width)
    assert all(-2 ** (width - 1) <= c < 2 ** (width - 1) for c in digits)
    assert sum(c << width * i for i, c in enumerate(digits)) == value


@given(polys, st.sampled_from([8, 16, 24]), st.integers(1, 3))
def test_pack_roundtrip_in_a_power_of_q(p, width, k):
    a = p.substitute_power(k)
    assert unpack(pack(a, width, k), width, a.min_exp, k) == a
    assert pack(a, width, k) == pack(p, width)


@given(polys, st.sampled_from([8, 16, 24]))
def test_pack_roundtrip(p, width):
    assert unpack(pack(p, width), width, p.min_exp) == p


def test_evaluate_int_input_is_exact():
    value = evaluate(LaurentPoly(-2, (1, 0, -1, 0, 1)), 3)
    assert isinstance(value, Fraction) and value == Fraction(73, 9)


# -- rendering ----------------------------------------------------------------------

def test_text_rendering():
    assert LaurentPoly(-2, (1, 0, -1, 0, 1)).to_text() == "q^2 - 1 + q^-2"
    assert LaurentPoly.zero().to_text() == "0"
    assert LaurentPoly(-1, (1, 0, 2)).to_text() == "2q + q^-1"
    assert LaurentPoly(0, (-3,)).to_text() == "-3"


@given(polys)
def test_json_roundtrip_is_bit_exact(p):
    d = json.loads(json.dumps(p.to_json_dict()))
    again = LaurentPoly(d["min_exp"], d["coeffs"])
    assert again == p
    assert again.min_exp == p.min_exp and again.coeffs == p.coeffs
