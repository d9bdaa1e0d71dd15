"""Colored Alexander polynomials of knot closures via quantum traces.

For a braid on ``m`` strands colored by a hook of size ``N``, the invariant is
assembled as

    phi^(-writhe) * sum over top-level vertices mu of
        (+-1 / [m]_N) * trace of the braid's crossing operators on mu's path basis

with ``phi`` the per-crossing framing factor, ``+-1 / [m]_N`` the closed-form
quantum-dimension weight (:func:`hookalex.schur.hook_weight`) and ``[i]_N``
the q-number at q -> q^N.  Each trace is an integer numerator over a product
of bullet q-numbers ``[i]_N``, one per operator with a doublet, so every term
of the sum has a denominator known as a multiset of bullet levels.  The terms
are lifted to the per-level maximum of those multisets and added as integer
Laurent polynomials; a single exact division by that common denominator
finishes the sum.  It always divides out to an integer Laurent polynomial; a
failure to divide is an internal inconsistency, never user error.  The
polynomial is finally normalized by the unit ``+-q^j`` that centers its
exponent range and makes its value at q = 1 equal to +1 (the invariant is
classically defined only up to such units, and the strict framing correction
leaves a residual sign (-1)^(leg * writhe) which this absorbs).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .braid import BraidWord, NotAKnotError, closure_is_knot
from .laurent import LaurentPoly, exact_div, qnum_bullet
from .rmatrix import assemble_R, framing_factor, trace_product
from .schur import hook_weight
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
    """A colored Alexander polynomial plus its per-vertex trace contributions.

    Each contribution is one top-level vertex's weighted trace as an integer
    numerator over the shared ``denominator``.  Their sum divided by it, times
    the framing correction, is the polynomial before unit normalization.
    """

    polynomial: LaurentPoly
    hook: Hook
    braid: BraidWord
    contributions: tuple[tuple[Hook, LaurentPoly], ...]
    denominator: LaurentPoly


def _bullet_product(levels: Counter, size: int) -> LaurentPoly:
    """The product of ``[i]_size ** levels[i]`` over the levels."""
    p = LaurentPoly.one()
    for i, count in levels.items():
        bullet = qnum_bullet(i, size)
        for _ in range(count):
            p = bullet * p
    return p


def alexander(color: Hook, b: BraidWord) -> AlexanderResult:
    """The colored Alexander polynomial of the knot closure of ``b``.

    Rejects braids whose closure is a link.  The result is exact; its value at
    q = 1 is +1 and it is invariant under q -> q^-1.
    """
    if not closure_is_knot(b):
        raise NotAKnotError(f"closure of '{b}' on {b.strands} strands is not a knot")
    m = b.strands
    graph = HookGraph(color, m)
    terms = []
    for k in range(m):
        vertex = graph.vertex(m, k)
        sign, _ = hook_weight(color, vertex)  # the weight is sign / [m]_N at every vertex
        ops = [assemble_R(graph, k, abs(g), g < 0) for g in b.letters]
        # the trace's denominator is the product of op.den = [|g|]_N over doublet operators
        levels = Counter(abs(g) for g, op in zip(b.letters, ops) if op.doublets)
        terms.append((vertex, sign, trace_product(ops).num, levels))
    common: Counter = Counter()
    for *_, levels in terms:
        common |= levels
    # vertices with equal deficits (the two singlet-only end vertices) share one product
    products: dict[frozenset, LaurentPoly] = {}

    def lift(deficit: Counter) -> LaurentPoly:
        key = frozenset(deficit.items())
        if key not in products:
            products[key] = _bullet_product(deficit, color.size)
        return products[key]

    contributions = tuple((vertex, lift(common - levels) * num * sign)
                          for vertex, sign, num, levels in terms)
    total = sum((num for _, num in contributions), LaurentPoly.zero())
    denominator = qnum_bullet(m, color.size) * lift(common)
    correction = framing_factor(color) ** (-b.writhe)
    poly = exact_div(total, denominator).shift(correction.exponent) * correction.sign
    return AlexanderResult(unit_normalize(poly), color, b, contributions, denominator)


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
