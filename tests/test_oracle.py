import ast
import importlib
import inspect
import itertools
import random

import pytest

from hookalex import oracle
from hookalex.braid import BraidWord, NotAKnotError, parse_braid
from hookalex.laurent import (InexactDivisionError, LaurentPoly, _exact_int_div, det, exact_div,
                              pack, packing_width, unit_normalize, unpack)
from hookalex.oracle import (_column_bounds, _hadamard_bound, _letter_row, _packed_product,
                             burau_alexander)

from conftest import expected, markov_variants, random_knot, torus_braid

_ZERO, _ONE = LaurentPoly.zero(), LaurentPoly.one()


def reduced_burau(letter, strands):
    """Image of one braid letter in the reduced (m-1)-dimensional representation."""
    j, row = _letter_row(letter, strands)
    mat = [list(r) for r in _identity(strands - 1)]
    mat[j] = [LaurentPoly.monomial(*row[c]) if c in row else _ZERO
              for c in range(strands - 1)]
    return tuple(tuple(r) for r in mat)


def _matmul(a, b):
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), _ZERO)
                       for j in range(n)) for i in range(n))


def _identity(n):
    return tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))


def _dense_burau(b):
    product = _identity(b.strands - 1)
    for g in b.letters:
        product = _matmul(product, reduced_burau(g, b.strands))
    return product


def _decode(cols, width, digits, nu):
    """The columns of a packed product as lists of ``LaurentPoly``s, each times ``t**-nu``."""
    bits = width * digits
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out = []
    for value in cols:
        col = []
        for _ in cols:
            entry = ((value + half) & mask) - half
            value = (value - entry) >> bits
            low = ((entry & -entry).bit_length() - 1) // width if entry else 0
            col.append(unpack(entry >> width * low, width, low - nu))
        out.append(col)
    return out


def burau_matrix(b):
    """The oracle's product of the letters' matrices, left to right, decoded entry by entry."""
    return tuple(zip(*_decode(*_packed_product(b))))


def _seeded_knots(rng, strands, lengths):
    """One random knot word per length, the length rounded up to the parity of a knot word."""
    return [random_knot(rng, strands, n + (n - strands + 1) % 2) for n in lengths]


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


def test_invalid_letters_rejected():
    for letter in (0, 3, -3):
        with pytest.raises(ValueError):
            _letter_row(letter, 3)


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
            assert burau_matrix(b) == _dense_burau(b)


def test_negative_letters_shift_right_exactly():
    # every letter negative: each t^-1 is a right shift of a column stored over t^-nu
    for m in (2, 3, 5):
        for length in (1, 4, 9):
            b = BraidWord(m, tuple(-(1 + i % (m - 1)) for i in range(length)))
            assert burau_matrix(b) == _dense_burau(b)


# -- the determinant ----------------------------------------------------------------

def _leibniz(mat, zero, one):
    """Sum over permutations, each signed by its inversion count."""
    n = len(mat)
    total = zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = one if inversions % 2 == 0 else -one
        for row, col in enumerate(perm):
            term = term * mat[row][col]
        total = total + term
    return total


def _random_poly(rng):
    if rng.random() < 0.3:
        return _ZERO
    return LaurentPoly(rng.randint(-2, 2), [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])


def _random_int(rng):
    return 0 if rng.random() < 0.3 else rng.randint(-10 ** 6, 10 ** 6)


def _check_against_leibniz(entry, divide, zero, one):
    rng = random.Random(20241019)
    swapped = singular = 0
    for n in range(1, 5):
        for _ in range(25):
            mat = [[entry(rng) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:  # a zero pivot that needs a row swap
                mat[0][0] = zero
                swapped += 1
            if n > 1 and rng.random() < 0.2:  # a repeated row makes the matrix singular
                mat[-1] = list(mat[0])
                singular += 1
            assert det(mat, divide, zero, one) == _leibniz(mat, zero, one)
    # a first column of zeros leaves no pivot to swap in
    assert det([[zero, one], [zero, one]], divide, zero, one) == zero
    assert swapped and singular


def test_bareiss_determinant_matches_leibniz():
    _check_against_leibniz(_random_poly, exact_div, _ZERO, _ONE)


def test_integer_bareiss_matches_leibniz():
    _check_against_leibniz(_random_int, _exact_int_div, 0, 1)


def test_integer_bareiss_swaps_rows_and_finds_singular_matrices():
    swap = [[0, 2, 3], [4, 5, 6], [7, 8, 10]]  # a zero first pivot
    assert det(swap) == _leibniz(swap, 0, 1) == -5
    late = [[1, 2, 3], [2, 4, 7], [1, 5, 2]]  # the second pivot vanishes after step 0
    assert det(late) == _leibniz(late, 0, 1) == -3
    singular = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert det(singular) == _leibniz(singular, 0, 1) == 0


def test_inexact_division_names_the_step_and_the_entry():
    with pytest.raises(InexactDivisionError, match="a 3-bit integer is not divisible by a 2-bit"):
        _exact_int_div(7, 2)

    def halved(num, den):
        return _exact_int_div(num, 2 * den)

    with pytest.raises(InexactDivisionError) as exc:
        det([[1, 2, 4], [3, 5, 6], [7, 8, 9]], halved)
    message = str(exc.value)
    assert "Bareiss step 0, entry (1, 1)" in message and "-bit integer" in message


# -- width bounds -------------------------------------------------------------------

def _norm(p):
    return sum(map(abs, p.terms))


def test_entries_and_determinant_stay_within_their_bounds():
    rng = random.Random(20261018)
    wide = [BraidWord(3, (1, -2) * 40), BraidWord(6, (1, -2, 3, -4, 5) * 13)]
    for m in range(2, 9):
        for b in _seeded_knots(rng, m, (m + 3, 3 * m, 41)) + [w for w in wide if w.strands == m]:
            u = _column_bounds(b.strands, [_letter_row(g, b.strands) for g in b.letters])
            _, width, _, _ = _packed_product(b)
            burau = burau_matrix(b)
            n = m - 1
            for c in range(n):
                assert sum(_norm(burau[r][c]) for r in range(n)) <= u[c]
            delta = [[(_ONE if r == c else _ZERO) - burau[r][c] for c in range(n)]
                     for r in range(n)]
            assert max(abs(x) for row in delta for p in row for x in p.terms) < 2 ** (width - 1)
            value = det(delta, exact_div, _ZERO, _ONE)
            bound = _hadamard_bound([[_norm(p) for p in col] for col in zip(*delta)])
            assert max(abs(x) for x in value.terms) <= bound


def _reference_det_input(b):
    """The integer matrix and width the oracle passes to ``det``, from ``LaurentPoly`` entries."""
    cols, width, digits, nu = _packed_product(b)
    eye = [1 << width * (c * digits + nu) for c in range(len(cols))]
    delta = _decode([e - x for e, x in zip(eye, cols)], width, digits, nu)
    width = packing_width(_hadamard_bound([[_norm(p) for p in col] for col in delta]))
    rows = list(zip(*delta))
    row_low = [min([p.min_exp for p in row if p.terms], default=0) for row in rows]
    col_low = [min([p.min_exp - low for p, low in zip(col, row_low) if p.terms], default=0)
               for col in delta]
    mat = [[pack(p, width) << width * (p.min_exp - low - c_low) if p.terms else 0
            for p, c_low in zip(row, col_low)] for row, low in zip(rows, row_low)]
    return mat, width


def test_determinant_input_is_read_from_the_slots_digits(monkeypatch):
    # The Hadamard norms and the repacked I - B come straight from each slot's
    # balanced digits; they equal the matrix and width built from polynomials.
    seen = []
    monkeypatch.setattr(oracle, "det", lambda mat: seen.append([mat]) or det(mat))
    monkeypatch.setattr(oracle, "unpack", lambda value, width, low: seen[-1].append(width)
                        or unpack(value, width, low))
    rng = random.Random(20261022)
    wide = [BraidWord(3, (1, -2) * 40), BraidWord(6, (1, -2, 3, -4, 5) * 13)]
    for m in range(3, 11):
        for b in _seeded_knots(rng, m, (m + 3, 3 * m)) + [w for w in wide if w.strands == m]:
            seen.clear()
            burau_alexander(b)
            assert seen == [list(_reference_det_input(b))], b


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


@pytest.mark.parametrize("p", range(2, 10))
def test_torus_knots_and_their_mirrors_match_closed_form(p):
    b = torus_braid(p, p + 1)
    mirror = BraidWord(p, tuple(-g for g in b.letters))
    for word in (b, mirror):  # the mirror has only negative letters: every t^-1 is a shift
        assert burau_alexander(word).to_json_dict() == expected.torus_alexander(p, p + 1)


@pytest.mark.parametrize("k", [20, 40, 76])
def test_wide_coefficients_match_the_trace_recurrence(k):
    # B = M^k with M the image of s1 s2^-1: det M = 1 and tr M = T = 1 - t - t^-1, so
    # det(I - B) = 2 - tr(M^k) with tr(M^k) = T tr(M^(k-1)) - tr(M^(k-2)).  Its
    # coefficients grow to about 100 bits at k = 76, close to both packed widths.
    t_trace = LaurentPoly(-1, (-1, 1, -1))
    prev, trace = LaurentPoly.constant(2), t_trace
    for _ in range(k - 1):
        prev, trace = trace, t_trace * trace - prev
    reduced = exact_div(2 - trace, LaurentPoly(0, (1, 1, 1)))
    expected = unit_normalize(reduced.substitute_power(2))
    assert max(abs(c) for c in expected.terms).bit_length() > k
    assert burau_alexander(BraidWord(3, (1, -2) * k)) == expected


def _dense_alexander(b):
    """The reference: dense Laurent products and the Laurent determinant."""
    burau = _dense_burau(b)
    n = b.strands - 1
    delta = [[(_ONE if i == j else _ZERO) - burau[i][j] for j in range(n)] for i in range(n)]
    value = det(delta, exact_div, _ZERO, _ONE)
    return unit_normalize(exact_div(value, LaurentPoly(0, (1,) * b.strands)).substitute_power(2))


def test_matches_dense_laurent_reference():
    rng = random.Random(20261019)
    for m in range(2, 9):
        for b in _seeded_knots(rng, m, (m - 1, m + 5, 25)):
            assert burau_alexander(b) == _dense_alexander(b), b


def test_markov_invariance():
    rng = random.Random(77)
    for _ in range(6):
        m = rng.randint(2, 4)
        b = random_knot(rng, m, rng.randrange(m - 1, 9, 2))  # at most 8 letters
        reference = burau_alexander(b)
        mv = markov_variants(b, count=3, seed=3)
        for variant in mv.conjugates + (mv.stabilized_pos, mv.stabilized_neg):
            assert burau_alexander(variant) == reference


# -- independence -----------------------------------------------------------------------

def _package_imports(name):
    """The hookalex modules that module ``name`` imports, relatively or absolutely.

    An import of the package itself counts as ``"hookalex"``.
    """
    tree = ast.parse(inspect.getsource(importlib.import_module(f"hookalex.{name}")))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "hookalex":
                continue
            module = module.removeprefix("hookalex").lstrip(".")
            found.update([module] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("hookalex.") for alias in node.names
                         if alias.name.split(".")[0] == "hookalex")
    return found


def test_oracle_imports_nothing_from_the_engine_kernel():
    assert _package_imports("evaluator") >= {"rmatrix", "laurent"}  # the walk sees imports
    reached, todo = set(), ["oracle"]
    while todo:
        new = _package_imports(todo.pop()) - reached
        reached |= new
        todo += new
    assert reached == {"braid", "laurent"}
