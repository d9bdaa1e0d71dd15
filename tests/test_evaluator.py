import pytest

from hookalex.braid import NotAKnotError, markov_variants, parse_braid
from hookalex.evaluator import (NormalizationError, alexander, check_scaling,
                                unit_normalize)
from hookalex.laurent import LaurentPoly, RationalFunc
from hookalex.oracle import burau_alexander
from hookalex.rmatrix import framing_factor
from hookalex.young import Hook

TREFOIL = parse_braid("1 1 1", 2)
FIGURE8 = parse_braid("1 -2 1 -2", 3)


# -- unit normalization -----------------------------------------------------------

def test_unit_normalize_centers_and_signs():
    p = LaurentPoly(0, (1, -1, 1))  # q^2 - q + 1, value 1 at q=1
    n = unit_normalize(p)
    assert n == LaurentPoly(-1, (1, -1, 1))
    assert unit_normalize(-p) == n


def test_unit_normalize_rejects_nonunits():
    with pytest.raises(NormalizationError):
        unit_normalize(LaurentPoly.zero())
    with pytest.raises(NormalizationError):
        unit_normalize(LaurentPoly(0, (1, 1)))  # odd span
    with pytest.raises(NormalizationError):
        unit_normalize(LaurentPoly(-1, (1, 1, 1)))  # value 3 at q=1


def test_uncenterable_message_is_bounded():
    with pytest.raises(NormalizationError) as exc:
        unit_normalize(LaurentPoly(0, [10 ** 30] * 1000))
    assert len(str(exc.value)) < 300


# -- reference values -----------------------------------------------------------------

def test_unknot_is_one():
    for text in ("1", "-1"):
        assert alexander(Hook(0, 0), parse_braid(text, 2)).polynomial == LaurentPoly.one()


def test_trefoil_fundamental():
    assert alexander(Hook(0, 0), TREFOIL).polynomial == LaurentPoly(-2, (1, 0, -1, 0, 1))


def test_trefoil_row_hook():
    # two-strand trace: [2](q^6 + q^-6)/[4] = q^4 - 1 + q^-4
    expected = LaurentPoly(-4, (1, 0, 0, 0, -1, 0, 0, 0, 1))
    assert alexander(Hook(1, 0), TREFOIL).polynomial == expected


def test_figure8_matches_burau_oracle():
    engine = alexander(Hook(0, 0), FIGURE8).polynomial
    assert engine == burau_alexander(FIGURE8)
    # a unit multiple of q^2 - 3 + q^-2
    assert engine == -LaurentPoly(-2, (1, 0, -3, 0, 1))


def test_links_rejected():
    with pytest.raises(NotAKnotError):
        alexander(Hook(0, 0), parse_braid("1 1", 3))


# -- result structure --------------------------------------------------------------------

def test_contributions_reassemble_polynomial():
    res = alexander(Hook(1, 1), FIGURE8)
    assert len(res.contributions) == FIGURE8.strands
    total = sum((term for _, term in res.contributions), RationalFunc.zero())
    correction = (framing_factor(Hook(1, 1)) ** (-FIGURE8.writhe)).as_laurent()
    raw = (total * correction).as_laurent()
    assert unit_normalize(raw) == res.polynomial


def test_value_at_one_is_one(knots):
    for b in knots:
        for h in (Hook(0, 0), Hook(1, 1)):
            assert alexander(h, b).polynomial.at_one() == 1


def test_inversion_symmetry(knots):
    for b in knots:
        for h in (Hook(0, 0), Hook(1, 0), Hook(1, 1)):
            p = alexander(h, b).polynomial
            assert p == p.invert_variable()


# -- the scaling identity --------------------------------------------------------------------

def test_scaling_trefoil_square_hook():
    report = check_scaling(Hook(1, 1), TREFOIL)
    assert report.equal
    assert report.colored == report.scaled_fundamental
    assert report.diff == LaurentPoly.zero()


def test_scaling_fundamental_is_tautology(knots):
    for b in knots:
        assert check_scaling(Hook(0, 0), b).equal


def test_scaling_figure8_large_hook():
    assert check_scaling(Hook(2, 1), FIGURE8).equal


# -- topological invariance ---------------------------------------------------------------------

def test_markov_invariance_spot_check():
    for h in (Hook(0, 0), Hook(1, 1)):
        reference = alexander(h, FIGURE8).polynomial
        mv = markov_variants(FIGURE8, count=3, seed=5)
        for variant in mv.conjugates + (mv.stabilized_pos, mv.stabilized_neg):
            assert alexander(h, variant).polynomial == reference


def test_oracle_agreement_on_corpus(knots):
    for b in knots:
        assert alexander(Hook(0, 0), b).polynomial == burau_alexander(b)
