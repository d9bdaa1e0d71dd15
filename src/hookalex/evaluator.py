"""Colored Alexander polynomials of knot closures via quantum traces.

For a braid on ``m`` strands colored by a hook, the invariant is assembled as

    phi^(-writhe) * sum over top-level vertices mu of
        ratio_at_A1(color, mu) * trace of the braid's crossing operators
                                 on mu's path basis

with ``phi`` the per-crossing framing factor.  The sum is a rational function
that always divides out to an integer Laurent polynomial; a failure to divide
is an internal inconsistency, never user error.  The polynomial is finally
normalized by the unit ``+-q^j`` that centers its exponent range and makes its
value at q = 1 equal to +1 (the invariant is classically defined only up to
such units, and the strict framing correction leaves a residual sign
(-1)^(leg * writhe) which this absorbs).
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, NotAKnotError, closure_is_knot
from .laurent import LaurentPoly, RationalFunc
from .rmatrix import assemble_R, framing_factor, trace_product
from .schur import ratio_at_A1
from .young import Hook, HookGraph


class NormalizationError(ArithmeticError):
    """The assembled polynomial is not a unit multiple of a centered, monic-at-1 one."""


def unit_normalize(p: LaurentPoly) -> LaurentPoly:
    """Multiply by the unit +-q^j giving a symmetric exponent range and value +1 at q=1."""
    if p.is_zero():
        raise NormalizationError("cannot normalize the zero polynomial")
    span = p.min_exp + p.degree()
    if span % 2 != 0:
        raise NormalizationError(f"exponent range of ({p.summary()}) cannot be centered")
    centered = p.shift(-span // 2)
    v = centered.at_one()
    if v == 1:
        return centered
    if v == -1:
        return -centered
    raise NormalizationError(f"value at q=1 is {v}, expected a unit")


@dataclass(frozen=True)
class AlexanderResult:
    """A colored Alexander polynomial plus its per-vertex trace contributions."""

    polynomial: LaurentPoly
    hook: Hook
    braid: BraidWord
    contributions: tuple[tuple[Hook, RationalFunc], ...]


def alexander(color: Hook, b: BraidWord) -> AlexanderResult:
    """The colored Alexander polynomial of the knot closure of ``b``.

    Rejects braids whose closure is a link.  The result is exact; its value at
    q = 1 is +1 and it is invariant under q -> q^-1.
    """
    if not closure_is_knot(b):
        raise NotAKnotError(f"closure of '{b}' on {b.strands} strands is not a knot")
    m = b.strands
    graph = HookGraph(color, m)
    contributions = []
    total = RationalFunc.zero()
    for k in range(m):
        vertex = graph.vertex(m, k)
        weight = ratio_at_A1(color, vertex.as_partition())
        ops = [assemble_R(graph, k, abs(g), g < 0) for g in b.letters]
        term = weight * trace_product(ops)
        contributions.append((vertex, term))
        total = total + term
    correction = (framing_factor(color) ** (-b.writhe)).as_laurent()
    poly = (total * correction).as_laurent()
    return AlexanderResult(unit_normalize(poly), color, b, tuple(contributions))


@dataclass(frozen=True)
class ScalingReport:
    """Outcome of checking A_color(q) == A_fundamental(q^|color|) on one braid."""

    hook: Hook
    braid: BraidWord
    colored: LaurentPoly
    scaled_fundamental: LaurentPoly
    equal: bool

    @property
    def diff(self) -> LaurentPoly:
        return self.colored - self.scaled_fundamental


def check_scaling(color: Hook, b: BraidWord) -> ScalingReport:
    """Compare the colored invariant against the substituted fundamental one."""
    colored = alexander(color, b).polynomial
    fundamental = alexander(Hook(0, 0), b).polynomial
    expected = fundamental.substitute_power(color.size)
    return ScalingReport(color, b, colored, expected, colored == expected)
