"""One-hook Young diagrams and the layered hook graph.

A one-hook (L-shape) diagram ``(a, l)`` has one row of ``a + 1`` boxes and one
column of ``l + 1`` boxes sharing the corner.  Tensoring two hooks and keeping
only the one-hook part gives exactly two summands, so the tower of tensor
powers of a fixed hook projects onto a triangular graph whose level ``n``
holds ``n`` vertices in closed form.  Paths down that graph index the basis in
which all braiding operators are assembled.  A path is an arm or a leg step
per level, so it is stored as a bit word, built from its leg positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator

from .braid import BraidError, excerpt_int

# The most strands the engine evaluates.  Its cost grows as 2^(m-1), the size
# of the path bases: the fundamental invariant of a random 33-letter knot takes
# 0.5-1.6 s on 10 strands and 18-29 s on 12 strands on one Xeon core, so
# larger counts are refused up front, before any path basis is built.
MAX_STRANDS = 10

# The largest hook size N the engine evaluates.  The operators' exponents, and
# with them the packed ints of every product, grow linearly in N: a random
# 161-letter 4-strand knot takes 0.8 s at N = 100 and 6.8 s at N = 700 on one
# Xeon core, and ten million boxes exhaust a 1 GB address space, so larger
# hooks are refused up front, before any operator is built.
MAX_HOOK_SIZE = 700


class StrandBudgetError(BraidError):
    """A strand count above MAX_STRANDS, whose path bases are too large to evaluate.

    Every evaluation and operator identity builds its path bases through
    :func:`enumerate_paths`, which raises it through :func:`check_strands`.
    """


def check_strands(m: int) -> None:
    """Raise :class:`StrandBudgetError` if ``m`` strands is above MAX_STRANDS."""
    if m > MAX_STRANDS:
        # The count is exact while it is cheap; past that the bound
        # comb(n, n // 2) > 2^n / (n + 1) stands in: the binomial for three
        # million strands takes 86 s on one Xeon core.
        paths = (comb(m - 1, (m - 1) // 2) if m <= 64
                 else f"over 2^{excerpt_int(m - 1 - m.bit_length())}")
        raise StrandBudgetError(
            f"{excerpt_int(m)} strands is above the limit of {MAX_STRANDS}: the largest "
            f"path basis would hold {paths} paths")


class HookBudgetError(BraidError):
    """A hook size above MAX_HOOK_SIZE, whose operators are too large to evaluate.

    Every evaluation and operator identity builds a :class:`HookGraph`, which
    raises it through :func:`check_hook_size`.
    """


def check_hook_size(n: int) -> None:
    """Raise :class:`HookBudgetError` if hook size ``n`` is above MAX_HOOK_SIZE."""
    if n > MAX_HOOK_SIZE:
        raise HookBudgetError(f"hook size {excerpt_int(n)} is above the limit of {MAX_HOOK_SIZE}")


@dataclass(frozen=True, order=True)
class Hook:
    """A one-hook diagram with ``arm`` boxes right of and ``leg`` boxes below the corner."""

    arm: int
    leg: int

    def __post_init__(self):
        if self.arm < 0 or self.leg < 0:
            raise ValueError(f"hook lengths must be nonnegative, "
                             f"got ({excerpt_int(self.arm)},{excerpt_int(self.leg)})")

    @property
    def size(self) -> int:
        return self.arm + self.leg + 1

    def __str__(self) -> str:
        return f"({self.arm},{self.leg})"


def hooks_up_to_size(max_size: int) -> Iterator[Hook]:
    """All hooks with at most ``max_size`` boxes, by size, then arm from the largest.

    Generated one at a time: there are ``max_size * (max_size + 1) / 2``.

    >>> list(hooks_up_to_size(2))
    [Hook(arm=0, leg=0), Hook(arm=1, leg=0), Hook(arm=0, leg=1)]
    """
    for size in range(1, max_size + 1):
        for arm in range(size - 1, -1, -1):
            yield Hook(arm, size - 1 - arm)


@dataclass(frozen=True)
class HookGraph:
    """The one-hook tensor-power graph of a base hook, up to ``levels`` layers.

    Level ``n`` (1-indexed) holds ``n`` vertices; vertex ``k`` is the hook
    ``(n*a + (n-1-k), n*l + k)``.  Vertex ``(n, k)`` connects upward to
    ``(n+1, k)`` (arm step) and ``(n+1, k+1)`` (leg step), so the edges never
    need to be stored.  A base hook above MAX_HOOK_SIZE raises
    :class:`HookBudgetError`.
    """

    base: Hook
    levels: int

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError(f"graph needs at least one level, got {excerpt_int(self.levels)}")
        check_hook_size(self.base.size)

    def vertex(self, n: int, k: int) -> Hook:
        if not 1 <= n <= self.levels:
            raise ValueError(f"level {n} outside 1..{self.levels}")
        if not 0 <= k <= n - 1:
            raise ValueError(f"vertex index {k} outside 0..{n - 1}")
        return Hook(n * self.base.arm + (n - 1 - k), n * self.base.leg + k)


def enumerate_paths(graph: HookGraph, target_k: int) -> tuple[int, ...]:
    """All paths ending at vertex ``target_k`` of the top level, as increasing bit words.

    A path is an int with one bit per step, 1 for a leg step, the first step
    the most significant of ``levels - 1`` bits, so increasing ints are the
    lexicographic order of the steps.  The words are built from the leg
    positions, so only the C(levels - 1, target_k) paths are visited.  A graph
    of more than MAX_STRANDS levels raises :class:`StrandBudgetError`,
    whatever the target.

    >>> [format(p, "03b") for p in enumerate_paths(HookGraph(Hook(0, 0), 4), 1)]
    ['001', '010', '100']
    """
    m = graph.levels
    check_strands(m)
    steps = m - 1
    if not 0 <= target_k <= steps:
        raise ValueError(f"target vertex {target_k} outside 0..{steps}")
    return tuple(sorted(sum(1 << j for j in legs) for legs in combinations(range(steps), target_k)))
