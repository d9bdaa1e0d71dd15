"""Independent fundamental Alexander oracle from the reduced Burau representation.

Used only to cross-validate the trace engine in the fundamental color.  The
braid letters map to exact Laurent matrices in a variable t; the closure's
Alexander polynomial is det(I - B(braid)) / (1 + t + ... + t^(m-1)), read in
the engine's variable via t = q^2 and unit-normalized the same way.
"""

from __future__ import annotations

from .braid import BraidWord, NotAKnotError, closure_is_knot
from .evaluator import unit_normalize
from .laurent import LaurentPoly, exact_div

Matrix = tuple[tuple[LaurentPoly, ...], ...]

_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()
_T = LaurentPoly.monomial(1, 1)
_T_INV = LaurentPoly.monomial(1, -1)


def _identity(n: int) -> list[list[LaurentPoly]]:
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def _letter_row(letter: int, strands: int) -> tuple[int, dict[int, LaurentPoly]]:
    """``(j, {column: entry})`` for row ``j``, the one row of the letter's matrix not the identity's.

    Generator i sends v(i-1) -> v(i-1) + t*v(i), v(i) -> -t*v(i),
    v(i+1) -> v(i) + v(i+1); the inverse letters are exact.
    """
    if letter == 0 or abs(letter) >= strands:
        raise ValueError(f"letter {letter} invalid on {strands} strands")
    j = abs(letter) - 1
    if letter > 0:
        row = {j - 1: _T, j: -_T, j + 1: _ONE}
    else:
        row = {j - 1: _ONE, j: -_T_INV, j + 1: _T_INV}
    return j, {c: e for c, e in row.items() if 0 <= c < strands - 1}


def reduced_burau(letter: int, strands: int) -> Matrix:
    """Image of one braid letter in the reduced (m-1)-dimensional representation."""
    j, row = _letter_row(letter, strands)
    mat = _identity(strands - 1)
    mat[j] = [row.get(c, _ZERO) for c in range(strands - 1)]
    return tuple(tuple(r) for r in mat)


def burau_matrix(b: BraidWord) -> Matrix:
    """The product of the letters' matrices, left to right.

    Right multiplication by a letter's matrix, the identity but in row ``j``,
    changes only the columns ``c`` of row ``j``'s entries: column ``c`` gains
    column ``j`` times the entry (column ``j`` itself is replaced by that
    product), so each letter costs one pass over at most three columns.
    """
    mat = _identity(b.strands - 1)
    for g in b.letters:
        j, row = _letter_row(g, b.strands)
        for r in mat:
            x = r[j]
            if not x.is_zero():
                for c, e in row.items():
                    r[c] = x * e if c == j else r[c] + x * e
    return tuple(tuple(r) for r in mat)


def _det(mat: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant by fraction-free (Bareiss) elimination.

    Step k replaces each entry below and right of the pivot by the 2 x 2
    minor with the pivot row and column, divided by the previous pivot; the
    division is exact (Sylvester's identity), so every entry stays an integer
    Laurent polynomial, and the last entry is the determinant.  A zero pivot
    swaps in a lower row with a nonzero entry, flipping the sign; none means
    the determinant is zero.
    """
    a = [list(r) for r in mat]
    n = len(a)
    sign, prev = 1, _ONE
    for k in range(n - 1):
        if a[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if swap is None:
                return _ZERO
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = exact_div(a[i][j] * pivot - a[i][k] * a[k][j], prev)
        prev = pivot
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]


def burau_alexander(b: BraidWord) -> LaurentPoly:
    """Fundamental Alexander polynomial of the knot closure, in q with t = q^2.

    >>> from .braid import parse_braid
    >>> str(burau_alexander(parse_braid("1 1 1", 2)))
    'q^2 - 1 + q^-2'
    """
    if not closure_is_knot(b):
        raise NotAKnotError(f"closure of '{b}' on {b.strands} strands is not a knot")
    burau = burau_matrix(b)
    n = b.strands - 1
    delta = [[(_ONE if i == j else _ZERO) - burau[i][j] for j in range(n)] for i in range(n)]
    circular = LaurentPoly(0, (1,) * b.strands)  # 1 + t + ... + t^(m-1)
    reduced = exact_div(_det(delta), circular)
    return unit_normalize(reduced.substitute_power(2))
