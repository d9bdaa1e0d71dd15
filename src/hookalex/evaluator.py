"""Colored Alexander polynomials of knot closures via quantum traces.

For a braid on ``m`` strands colored by a hook of size ``N``, the invariant is
assembled as

    phi^(-writhe) * sum over top-level vertices mu of
        (+-1 / [m]_N) * trace of the braid's crossing operators on mu's path basis

with ``phi`` the per-crossing framing factor, ``+-1 / [m]_N`` the closed-form
quantum-dimension weight (:func:`hook_weight`) and ``[i]_N`` the q-number at
q -> q^N.  What depends only on the color and the strand count is built once
into a vertex plan, kept for at most ``PLAN_CACHE_SIZE`` pairs: the graph,
each vertex's hook and weight sign, and its operators, each assembled when an
evaluation first needs its letter and then reused by every later braid.
The kernel returns each trace as an integer numerator over its own
denominator, the product of the operators' ``den``: ``[|g|]_N`` for a letter
whose operator has a doublet, else 1.  Every letter with ``|g| >= 2`` has a
doublet at every interior vertex (``0 < k < m - 1``), and no letter has one
at the two end vertices, so every interior vertex has the same denominator
``prod [|g|]_N`` over those letters, the common denominator, and an end
vertex has 1.  An end vertex's numerator is lifted to the common denominator
by multiplying by it, no other numerator needs lifting, and the terms are
added as integer Laurent polynomials; a single exact division by ``[m]_N``
times the common denominator finishes the sum.  That product comes from
:func:`hookalex.rmatrix.den_product`, memoized by value like the traces'
denominators, which repeat across vertices, hooks of one size and calls.
It always divides out to an integer Laurent polynomial; any other vertex
denominator, or a failure to divide, is an internal inconsistency, never
user error, and a denominator that cannot be lifted names its vertex.  The polynomial is finally
normalized by the unit ``+-q^j`` that centers its exponent range and makes
its value at q = 1 equal to +1 (the invariant is classically defined only up
to such units).  The framing correction ``phi^(-writhe)`` is such a unit, a
signed monomial: multiplying by ``+-q^j`` moves both ends of the exponent
range by ``j``, and the value at q = 1 fixes the sign.  So the normalization
removes it, together with the residual sign ``(-1)^(leg * writhe)`` it would
leave, and it is never multiplied in.

A self-transpose color (``arm == leg``, the fundamental color among them)
needs operator products at only the vertices ``k`` with ``2k <= m - 1``: the
trace at vertex ``m - 1 - k`` is the trace at vertex ``k`` under
``omega: q -> -q^-1``.  Proof.  ``omega`` is a ring involution of the Laurent
polynomials.  Let ``h = (a, l)``, ``h' = (l, a)`` its transpose,
``s = (-1)^l`` and ``s' = (-1)^a``.  Both have size ``N = a + l + 1``, and
``K(h') = -K(h)`` with ``K`` even (:mod:`hookalex.rmatrix`).

- Eigenvalues: ``omega(s q^(K+N)) = s (-1)^N q^(-K-N) = -s' q^(-K-N)``, since
  ``s (-1)^N = (-1)^(a+1)``.  So ``omega`` maps the arm eigenvalue of ``h``
  to the leg eigenvalue of ``h'``, and the leg one to the arm one.
- Bullet q-numbers: ``omega([n]_N) = (-1)^(N(n-1)) [n]_N``, since every
  exponent of ``[n]_N`` has the parity of ``N(n-1)``.
- Doublets: by the two facts above, ``omega(r11 / [n]_N)`` is ``r22 / [n]_N``
  of ``h'``, ``omega(r22 / [n]_N)`` is ``r11 / [n]_N`` of ``h'``, and
  ``omega(r12 r21 / [n]_N^2) = q^(-2K) [n+1]_N [n-1]_N / [n]_N^2`` is the
  doublet product ``r12 r21 / [n]_N^2`` of ``h'``.
- Paths: flipping every step (arm <-> leg) maps the paths to vertex ``k`` of
  the graph of ``h`` onto those to vertex ``m - 1 - k`` of the graph of
  ``h'`` and reverses their lexicographic order.  A path stepping arm-arm
  through level ``i`` becomes one stepping leg-leg, and the arm-side member
  of a doublet becomes the leg-side member.
- Traces: so ``omega`` of each crossing operator of ``h`` at vertex ``k`` is
  the same crossing operator of ``h'`` at vertex ``m - 1 - k``, paths
  flipped, except that the two off-diagonal entries of a doublet may be
  split differently.  A closed trace sees them only through ``r12 r21`` at
  each level (the gauge argument in :mod:`hookalex.rmatrix`), hence
  ``trace_k^h(q) = trace_(m-1-k)^h'(-q^-1)`` for every braid.

For ``a = l``, ``h' = h``, ``K = 0`` and ``N = 2a + 1`` is odd, so ``omega``
swaps the eigenvalues ``s q^N`` and ``-s q^-N``.  The two vertices also share
their trace denominator, ``prod [|g|]_N`` over the letters with a doublet
(flipping maps doublets to doublets), and ``omega`` maps it to ``+-`` itself.
So the mirrored vertex's numerator is ``omega`` of the computed one with that
sign folded in, over the same denominator, which is exactly what the
operator product there would return.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .braid import BraidWord, check_knot
from .laurent import InexactDivisionError, LaurentPoly, exact_div, qnum_bullet, unit_normalize
from .rmatrix import BlockOperator, Trace, assemble_R, den_product, trace_product
from .young import Hook, HookGraph, check_strands

# Vertex plans held by the vertex_plan cache, one per color and strand count.
# The benchmark workloads use at most six (a table run over the six hooks of
# up to 3 boxes), and each plan keeps its vertices' operators alive beside the
# assemble_R cache, so the bound stays small.
PLAN_CACHE_SIZE = 8


def hook_weight(color: Hook, mu: Hook) -> tuple[int, int]:
    """The A -> 1 weight of summand ``mu`` of a power of ``color`` as ``(sign, m)``.

    The weight is ``sign / [m]_N``: ``sign = (-1)^(l+s)`` and ``m = |mu| / N``.

    >>> hook_weight(Hook(1, 0), Hook(2, 3))
    (-1, 3)
    """
    m, rest = divmod(mu.size, color.size)
    if rest or m < 1:
        raise ValueError(f"|{mu}| = {mu.size} is not a positive multiple of {color.size}")
    return (-1 if (color.leg + mu.leg) % 2 else 1), m


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def vertex_plan(color: Hook, m: int
                 ) -> tuple[HookGraph, tuple[tuple[Hook, int, dict[int, BlockOperator]], ...]]:
    """The graph, and each top-level vertex's hook, weight sign and operators by letter.

    The operators are assembled as evaluations first need their letters.
    """
    graph = HookGraph(color, m)
    check_strands(m)  # before one slot per vertex is allocated
    vertices = []
    for k in range(m):
        vertex = graph.vertex(m, k)
        sign, _ = hook_weight(color, vertex)  # the weight is sign / [m]_N at every vertex
        vertices.append((vertex, sign, {}))
    return graph, tuple(vertices)


def _mirror(trace: Trace, k: int) -> Trace:
    """The trace at vertex ``k`` of a self-transpose color from the one at ``m - 1 - k``.

    It is ``trace`` at q -> -q^-1 over the same denominator (module docstring).
    """
    num, den = trace.num.substitute_neg_inverse(), trace.den.substitute_neg_inverse()
    if den == -trace.den:
        num = -num
    elif den != trace.den:
        raise InexactDivisionError(
            f"vertex sum: the mirrored denominator of vertex k={k} ({den.summary()}) "
            f"is not +-({trace.den.summary()})")
    return Trace(num, trace.den)


@dataclass(frozen=True)
class AlexanderResult:
    """A colored Alexander polynomial plus its per-vertex trace contributions.

    Each contribution is one top-level vertex's weighted trace as an integer
    numerator over the shared ``denominator``.  Their sum divided by it is the
    polynomial before unit normalization, which also removes the framing
    correction ``phi^(-writhe)``, a signed monomial.
    """

    polynomial: LaurentPoly
    hook: Hook
    braid: BraidWord
    contributions: tuple[tuple[Hook, LaurentPoly], ...]
    denominator: LaurentPoly


def alexander(color: Hook, b: BraidWord) -> AlexanderResult:
    """The colored Alexander polynomial of the knot closure of ``b``.

    Rejects braids whose closure is a link.  The result is exact; its value at
    q = 1 is +1 and it is invariant under q -> q^-1.
    """
    check_knot(b)
    m = b.strands
    graph, vertices = vertex_plan(color, m)
    letters = set(b.letters)
    terms = []
    for k, (vertex, sign, ops) in enumerate(vertices):
        if color.arm == color.leg and 2 * k > m - 1:
            trace = _mirror(terms[m - 1 - k][2], k)
        else:
            for g in letters.difference(ops):
                ops[g] = assemble_R(graph, k, abs(g), g < 0)
            trace = trace_product([ops[g] for g in b.letters])
        terms.append((vertex, sign, trace))
    # an interior vertex's den is the widest one, an end vertex's is 1 (module docstring)
    common = max((t.den for *_, t in terms), key=lambda den: den.degree() - den.min_exp)
    contributions = []
    for k, (vertex, sign, (num, den)) in enumerate(terms):
        if den != common:
            if not den.is_one():
                raise InexactDivisionError(
                    f"vertex sum: the trace denominator of vertex k={k} ({den.summary()}) "
                    f"is neither 1 nor the common one ({common.summary()})")
            num = common * num  # an end vertex, lifted by the common denominator itself
        contributions.append((vertex, num * sign))
    total = sum((num for _, num in contributions), LaurentPoly.zero())
    denominator = den_product(((qnum_bullet(m, color.size), 1), (common, 1)))
    try:
        quotient = exact_div(total, denominator)
    except InexactDivisionError as exc:
        raise InexactDivisionError(
            f"vertex sum: final division on m={m} strands: ({total.summary()}) is not "
            f"divisible by ({denominator.summary()})") from exc
    return AlexanderResult(unit_normalize(quotient), color, b, tuple(contributions), denominator)


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
