"""Quantum dimensions at the topological locus in the A -> 1 limit.

The quantum dimension of a diagram is a product over boxes: each box with
content ``c`` and hook length ``h`` contributes ``(A q^c - A^-1 q^-c)`` to the
numerator and ``(q^h - q^-h)`` to the denominator.  The number of vanishing
numerator factors at A = 1 is exactly the diagonal length, so ratios of
quantum dimensions at A = 1 reduce to cancelling literally identical zero
factors and evaluating what survives.

For a one-hook color ``(a, l)`` against a one-hook summand ``(r, s)`` of its
m-th tensor power the surviving ratio is ``(-1)^(l+s) [N] / [mN]`` with
``N = a + l + 1``, which is ``(-1)^(l+s) / [m]_N`` since ``[mN]/[N] = [m]_N``
(the q-number at q -> q^N); any summand with diagonal length two or more
contributes zero.  The evaluator takes its weights from that closed form
(:func:`hookalex.evaluator.hook_weight`); the ratio below, taken box by box
over general partitions, is the independent oracle for it, so this module
imports nothing from the evaluator or the operators, and evaluating a knot
never loads it.  A ratio is an integer pair ``(num, den)`` of Laurent
polynomials, compared by cross-multiplying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .laurent import LaurentPoly
from .young import Hook


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def diagonal_length(self) -> int:
        """Number of boxes (i, i) on the main diagonal."""
        return sum(1 for i, p in enumerate(self.parts) if p > i)

    def column_lengths(self) -> tuple[int, ...]:
        if not self.parts:
            return ()
        return tuple(sum(1 for p in self.parts if p > j) for j in range(self.parts[0]))

    def boxes(self) -> Iterator[tuple[int, int]]:
        """(row, column) pairs, 0-indexed, in reading order."""
        for i, p in enumerate(self.parts):
            for j in range(p):
                yield i, j

    def contents(self) -> tuple[int, ...]:
        """Per-box content j - i, in reading order."""
        return tuple(j - i for i, j in self.boxes())

    def hook_lengths(self) -> tuple[int, ...]:
        """Per-box hook length (arm + leg + 1), in reading order."""
        cols = self.column_lengths()
        return tuple(self.parts[i] - j + cols[j] - i - 1 for i, j in self.boxes())

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


def hook_partition(h: Hook) -> Partition:
    """The hook ``(a, l)`` as the partition ``[a+1, 1, ..., 1]`` of ``l + 1`` rows."""
    return Partition((h.arm + 1,) + (1,) * h.leg)


def _difference(exp: int) -> LaurentPoly:
    """q^exp - q^-exp as a polynomial (exp may be negative)."""
    return LaurentPoly.monomial(1, exp) - LaurentPoly.monomial(1, -exp)


def ratio_at_A1(color: Hook, mu: Partition) -> tuple[LaurentPoly, LaurentPoly]:
    """Ratio of quantum dimensions dim(mu)/dim(color) in the A -> 1 limit, as ``(num, den)``.

    Requires |mu| to be a multiple of the color size.  Zero when ``mu`` has
    diagonal length > 1; for one-hook ``mu`` the single vanishing factor of
    each side cancels and the rest evaluates at A = 1.

    The fundamental color against ``[2,1,1]``, the hook ``(1,2)`` of 4 boxes,
    gives ``(-1)^2 / [4]``:

    >>> num, den = ratio_at_A1(Hook(0, 0), Partition((2, 1, 1)))
    >>> num * LaurentPoly(-3, (1, 0, 1, 0, 1, 0, 1)) == den
    True
    """
    if mu.size % color.size != 0 or mu.size < color.size:
        raise ValueError(f"|{mu}| = {mu.size} is not a positive multiple of {color.size}")
    if mu.diagonal_length > 1:
        return LaurentPoly.zero(), LaurentPoly.one()
    num = LaurentPoly.one()
    den = LaurentPoly.one()
    for c in mu.contents():
        if c != 0:
            num = num * _difference(c)
    for h in mu.hook_lengths():
        den = den * _difference(h)
    for h in hook_partition(color).hook_lengths():
        num = num * _difference(h)
    for c in hook_partition(color).contents():
        if c != 0:
            den = den * _difference(c)
    return num, den
