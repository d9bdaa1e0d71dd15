"""Independent fundamental Alexander oracle from the reduced Burau representation.

Used only to cross-validate the trace engine in the fundamental color.  The
braid letters map to Laurent matrices in a variable t; the closure's
Alexander polynomial is det(I - B(braid)) / (1 + t + ... + t^(m-1)), read in
the engine's variable via t = q^2 and unit-normalized the same way.  It
imports only `hookalex.braid` and `hookalex.laurent`, which import nothing
else from the package, so nothing here comes from the engine's kernel
(`hookalex.rmatrix`): the packing and both width proofs below are the
oracle's own.

Both the product and the determinant run on Python ints at t = 2^w
(Kronecker substitution: evaluation is a ring homomorphism), and only the
product's entries and the determinant are decoded, each once.

Product.  A letter's matrix is the identity but in one row ``j``, whose
entries are ``1`` and ``+-t^(+-1)`` (:func:`_letter_row`), so right
multiplication adds a signed shift of column ``j`` to at most two other
columns and replaces column ``j`` by one.  With ``nu`` the number of negative
letters and ``L`` the letter count, every entry is stored times ``t^nu``.
After ``s`` negative letters the product's exponents are at least ``-s``, so
the stored exponents stay in ``0..L``; before a negative letter ``s < nu``,
so every stored entry of column ``j`` is divisible by ``t`` and multiplying
by ``t^-1`` is an exact right shift.  Nothing ever rescales the whole
matrix.  Every column is a single int: the entry in row ``r`` sits in a slot
of ``D = L + 1`` digits of ``w`` bits, ``r * D`` digits up.

Product width.  With ``||p||_1`` the sum of the absolute values of p's
coefficients, let ``u_c`` bound ``sum_r ||B_rc||_1`` over column ``c``: 1 for
the identity and, since ``(BL)_rc = sum_k B_rk L_kc`` and
``||pq||_1 <= ||p||_1 ||q||_1``, ``u_c <- sum_k u_k ||L_kc||_1`` per letter.
Each entry of ``L``'s row ``j`` has norm 1, so a letter adds ``u_j`` to the
``u_c`` of the other columns in that row.  A coefficient is at most its
polynomial's 1-norm, so every coefficient of ``B`` and of ``I - B`` is at
most ``max_c u_c + 1``, and ``w`` is the least multiple of 8 with
``2^(w-1)`` above that: the balanced base-``2^w`` digits of each slot are
then the coefficients (:func:`_decode`).

Determinant width.  For ``A = I - B``, every coefficient of ``det A`` is at
most ``max_{|t|=1} |det A(t)|`` (a coefficient is a mean of the polynomial
against ``t^-k`` over the unit circle), which Hadamard's inequality bounds
by ``prod_c sqrt(sum_r |A_rc(t)|^2) <= prod_c sqrt(sum_r ||A_rc||_1^2)``,
and likewise by rows.  The bound is taken from the decoded entries: the
a-priori ``u`` ignores cancellation and would widen long products many times
over.  Each entry is repacked at the width that holds this bound, over
``t^(a_r + b_c)`` with ``a_r`` the least exponent in its row and ``b_c`` then
in its column, and Bareiss elimination runs on the integer matrix, through
:func:`hookalex.laurent.det`, the package's one determinant routine.  It is
exact over Z with any pivot order, and evaluation is a ring homomorphism, so
the result is ``t^-(sum a + sum b) det A`` at ``t = 2^w``, and it decodes
exactly.
"""

from __future__ import annotations

import math
from typing import Sequence

from .braid import BraidWord, check_knot
from .laurent import LaurentPoly, det, exact_div, pack, packing_width, unit_normalize, unpack


def _letter_row(letter: int, strands: int) -> tuple[int, dict[int, tuple[int, int]]]:
    """``(j, {column: (sign, exponent)})``: row ``j`` of the letter's matrix, the one not the identity's.

    Each entry is ``sign * t**exponent``.  Generator i sends v(i-1) ->
    v(i-1) + t*v(i), v(i) -> -t*v(i), v(i+1) -> v(i) + v(i+1); the inverse
    letters are exact.
    """
    if letter == 0 or abs(letter) >= strands:
        raise ValueError(f"letter {letter} invalid on {strands} strands")
    j = abs(letter) - 1
    if letter > 0:
        row = {j - 1: (1, 1), j: (-1, 1), j + 1: (1, 0)}
    else:
        row = {j - 1: (1, 0), j: (-1, -1), j + 1: (1, -1)}
    return j, {c: e for c, e in row.items() if 0 <= c < strands - 1}


def _column_bounds(strands: int, rows: Sequence[tuple[int, dict]]) -> list[int]:
    """``u``: ``u[c]`` bounds the sum of the entry 1-norms in column ``c`` of the product."""
    u = [1] * (strands - 1)
    for j, row in rows:
        for c in row:
            if c != j:
                u[c] += u[j]
    return u


def _packed_product(b: BraidWord) -> tuple[list[int], int, int, int]:
    """The product as ``(columns, width, digits, nu)``, each column one int at t = 2**width.

    Entry ``(r, c)`` times ``t**nu`` sits at digit ``r * digits`` of
    ``columns[c]``; see the module docstring for why it stays in its slot.
    """
    rows = [_letter_row(g, b.strands) for g in b.letters]
    width = packing_width(max(_column_bounds(b.strands, rows)) + 1)
    digits = len(rows) + 1
    nu = sum(g < 0 for g in b.letters)
    cols = [1 << width * (c * digits + nu) for c in range(b.strands - 1)]
    for j, row in rows:
        x = cols[j]
        for c, (sign, exp) in row.items():
            y = x << width if exp > 0 else x >> width if exp < 0 else x
            if sign < 0:
                y = -y
            cols[c] = y if c == j else cols[c] + y
    return cols, width, digits, nu


def _decode(cols: Sequence[int], width: int, digits: int, nu: int) -> list[list[LaurentPoly]]:
    """The columns of a packed product as lists of entries, each times ``t**-nu``.

    A slot holds ``digits`` balanced digits, each below ``2**(width - 1)`` in
    absolute value, so the slot's value is below ``2**(width * digits - 1)``
    and is the balanced remainder of the column.  The zero digits below an
    entry are dropped before it is unpacked: the lowest set bit of a nonzero
    digit lies below the digit's top bit.
    """
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


def _hadamard_bound(cols: Sequence[Sequence[LaurentPoly]]) -> int:
    """A bound on every coefficient of ``det A``, from the entry 1-norms of ``A`` by column.

    The lesser of ``prod_c sqrt(sum_r ||A_rc||_1**2)`` and the same product
    over rows (``det A = det A^T``), rounded down.
    """
    norms = [[sum(map(abs, p.terms)) for p in col] for col in cols]
    by_col = math.prod([sum([x * x for x in col]) for col in norms])
    by_row = math.prod([sum([x * x for x in row]) for row in zip(*norms)])
    return math.isqrt(min(by_col, by_row))


def burau_alexander(b: BraidWord) -> LaurentPoly:
    """Fundamental Alexander polynomial of the knot closure, in q with t = q^2.

    >>> from .braid import parse_braid
    >>> str(burau_alexander(parse_braid("1 1 1", 2)))
    'q^2 - 1 + q^-2'
    """
    check_knot(b)
    cols, width, digits, nu = _packed_product(b)
    eye = [1 << width * (c * digits + nu) for c in range(len(cols))]
    delta = _decode([e - x for e, x in zip(eye, cols)], width, digits, nu)
    width = packing_width(_hadamard_bound(delta))
    rows = list(zip(*delta))
    row_low = [min([p.min_exp for p in row if p.terms], default=0) for row in rows]
    col_low = [min([p.min_exp - low for p, low in zip(col, row_low) if p.terms], default=0)
               for col in delta]
    mat = [[pack(p, width) << width * (p.min_exp - low - c_low) if p.terms else 0
            for p, c_low in zip(row, col_low)] for row, low in zip(rows, row_low)]
    delta_det = unpack(det(mat), width, sum(row_low) + sum(col_low))
    circular = LaurentPoly(0, (1,) * b.strands)  # 1 + t + ... + t^(m-1)
    return unit_normalize(exact_div(delta_det, circular).substitute_power(2))
