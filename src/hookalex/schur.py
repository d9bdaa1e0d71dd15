"""Quantum dimensions at the topological locus and their A -> 1 limits.

The quantum dimension of a diagram is a product over boxes: each box with
content ``c`` and hook length ``h`` contributes ``(A q^c - A^-1 q^-c)`` to the
numerator and ``(q^h - q^-h)`` to the denominator.  We keep these as factor
lists rather than expanding a bivariate polynomial; the number of vanishing
numerator factors at A = 1 is exactly the diagonal length, so ratios of
quantum dimensions at A = 1 reduce to cancelling literally identical zero
factors and evaluating what survives.

For a one-hook color ``(a, l)`` against a one-hook summand ``(r, s)`` of its
m-th tensor power the surviving ratio is ``(-1)^(l+s) [N] / [mN]`` with
``N = a + l + 1``, which is ``(-1)^(l+s) / [m]_N`` since ``[mN]/[N] = [m]_N``
(the q-number at q -> q^N); any summand with diagonal length two or more
contributes zero.  The evaluator takes its weights from that closed form
(:func:`hookalex.evaluator.hook_weight`); the factor lists, and the
Jacobi-Trudi determinant over complete homogeneous functions built from the
power sums, are the independent oracle for it, so this module imports nothing
from the evaluator or the operators, and evaluating a knot never loads it.  A
ratio is an integer pair ``(num, den)`` of Laurent polynomials, compared by
cross-multiplying; the power sums, the complete homogeneous functions and the
determinant are `Fraction` values at a rational point ``(A, q)``, the
determinant taken by :func:`hookalex.laurent.det`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laurent import LaurentPoly, det
from .young import Hook, Partition


@dataclass(frozen=True)
class TopoFactorList:
    """Factorized quantum dimension: numerator contents, denominator hook lengths."""

    contents: tuple[int, ...]
    hook_lengths: tuple[int, ...]

    def zero_order_at_a1(self) -> int:
        """Vanishing order of the numerator at A = 1 (count of content-0 factors)."""
        return sum(1 for c in self.contents if c == 0)

    def evaluate(self, a: Fraction, q: Fraction) -> Fraction:
        value = Fraction(1)
        for c in self.contents:
            value *= a * q ** c - (a * q ** c) ** -1
        for h in self.hook_lengths:
            value /= q ** h - q ** -h
        return value


def topological_factors(nu: Partition) -> TopoFactorList:
    """One (content, hook length) factor pair per box of ``nu``."""
    return TopoFactorList(nu.contents(), nu.hook_lengths())


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
    for h in color.as_partition().hook_lengths():
        num = num * _difference(h)
    for c in color.as_partition().contents():
        if c != 0:
            den = den * _difference(c)
    return num, den


@dataclass(frozen=True)
class PowerSumSpec:
    """Power-sum values p_1..p_degree feeding the Jacobi-Trudi oracle."""

    values: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.values)

    def p(self, k: int) -> Fraction:
        if not 1 <= k <= self.degree:
            raise ValueError(f"power sum p_{k} outside degree bound {self.degree}")
        return self.values[k - 1]


def topological_power_sums(a: Fraction, q: Fraction, degree: int) -> PowerSumSpec:
    """p_k = (A^k - A^-k)/(q^k - q^-k) at the rational point (A, q)."""
    return PowerSumSpec(tuple([(a ** k - a ** -k) / (q ** k - q ** -k)
                               for k in range(1, degree + 1)]))


def complete_homogeneous(spec: PowerSumSpec, max_degree: int) -> list[Fraction]:
    """h_0..h_max_degree from Newton's identity n*h_n = sum_k p_k h_(n-k)."""
    if max_degree > spec.degree:
        raise ValueError(f"need power sums up to p_{max_degree}, have {spec.degree}")
    hs = [Fraction(1)]
    for n in range(1, max_degree + 1):
        hs.append(sum([spec.p(k) * hs[n - k] for k in range(1, n + 1)], Fraction(0)) / n)
    return hs


def jacobi_trudi_schur(nu: Partition, spec: PowerSumSpec) -> Fraction:
    """Schur value via det(h_(nu_i - i + j)); independent oracle for factor lists.

    >>> ps = topological_power_sums(Fraction(2), Fraction(3, 2), 2)
    >>> jacobi_trudi_schur(Partition((1,)), ps) == ps.p(1)
    True
    """
    if not nu.parts:
        return Fraction(1)
    rows = len(nu.parts)
    hs = complete_homogeneous(spec, nu.parts[0] + rows - 1)

    def h(k: int) -> Fraction:
        return Fraction(0) if k < 0 else hs[k]

    mat = [[h(nu.parts[i] - (i + 1) + (j + 1)) for j in range(rows)] for i in range(rows)]
    return det(mat, lambda x, y: x / y, Fraction(0), Fraction(1))
