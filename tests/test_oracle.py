import itertools
import random

import pytest

from hookalex.braid import BraidWord, NotAKnotError, markov_variants, parse_braid
from hookalex.laurent import LaurentPoly
from hookalex.oracle import _det, burau_alexander, burau_matrix, reduced_burau

from conftest import random_knot_braids


def _matmul(a, b):
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), LaurentPoly.zero())
                       for j in range(n)) for i in range(n))


def _identity(n):
    return tuple(tuple(LaurentPoly.one() if i == j else LaurentPoly.zero()
                       for j in range(n)) for i in range(n))


# -- the representation itself ---------------------------------------------------

def test_generator_inverses_are_exact():
    for strands in (2, 3, 4, 5):
        for i in range(1, strands):
            prod = _matmul(reduced_burau(i, strands), reduced_burau(-i, strands))
            assert prod == _identity(strands - 1)


def test_braid_relation():
    for strands in (3, 4):
        for i in range(1, strands - 1):
            a, b = reduced_burau(i, strands), reduced_burau(i + 1, strands)
            assert _matmul(_matmul(a, b), a) == _matmul(_matmul(b, a), b)


def test_far_generators_commute():
    a, b = reduced_burau(1, 4), reduced_burau(3, 4)
    assert _matmul(a, b) == _matmul(b, a)


def test_word_matrix_composes():
    b = parse_braid("1 -2 1", 3)
    expected = _matmul(_matmul(reduced_burau(1, 3), reduced_burau(-2, 3)),
                       reduced_burau(1, 3))
    assert burau_matrix(b) == expected


def test_column_updates_match_dense_product():
    rng = random.Random(20241018)
    for m in range(2, 8):
        for _ in range(4):
            letters = [rng.choice((1, -1)) * rng.randint(1, m - 1)
                       for _ in range(rng.randint(1, 3 * m))]
            b = BraidWord(m, tuple(letters))
            expected = _identity(m - 1)
            for g in letters:
                expected = _matmul(expected, reduced_burau(g, m))
            assert burau_matrix(b) == expected


# -- the determinant ----------------------------------------------------------------

def _leibniz(mat):
    """Sum over permutations, each signed by its inversion count."""
    n = len(mat)
    total = LaurentPoly.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = LaurentPoly.constant(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term = term * mat[row][col]
        total = total + term
    return total


def _random_poly(rng):
    if rng.random() < 0.3:
        return LaurentPoly.zero()
    return LaurentPoly(rng.randint(-2, 2), [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])


def test_bareiss_determinant_matches_leibniz():
    rng = random.Random(20241019)
    swapped = singular = 0
    for n in range(1, 5):
        for _ in range(25):
            mat = [[_random_poly(rng) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:  # a zero pivot that needs a row swap
                mat[0][0] = LaurentPoly.zero()
                swapped += 1
            if n > 1 and rng.random() < 0.2:  # a repeated row makes the matrix singular
                mat[-1] = list(mat[0])
                singular += 1
            assert _det(mat) == _leibniz(mat)
    # a first column of zeros leaves no pivot to swap in
    assert _det([[LaurentPoly.zero(), LaurentPoly.one()],
                 [LaurentPoly.zero(), LaurentPoly.one()]]).is_zero()
    assert swapped and singular


# -- Alexander values -----------------------------------------------------------------

def test_unknot():
    assert burau_alexander(parse_braid("1", 2)) == LaurentPoly.one()


def test_trefoil():
    assert burau_alexander(parse_braid("1 1 1", 2)) == LaurentPoly(-2, (1, 0, -1, 0, 1))


def test_figure8():
    expected = LaurentPoly(-2, (-1, 0, 3, 0, -1))
    assert burau_alexander(parse_braid("1 -2 1 -2", 3)) == expected


def test_rejects_links():
    with pytest.raises(NotAKnotError):
        burau_alexander(parse_braid("1", 3))


def test_markov_invariance():
    for b in random_knot_braids(6, max_length=8, seed=77):
        reference = burau_alexander(b)
        mv = markov_variants(b, count=3, seed=3)
        for variant in mv.conjugates + (mv.stabilized_pos, mv.stabilized_neg):
            assert burau_alexander(variant) == reference
