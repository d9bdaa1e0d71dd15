"""One-hook Young diagrams, general partitions, and the layered hook graph.

A one-hook (L-shape) diagram ``(a, l)`` has one row of ``a + 1`` boxes and one
column of ``l + 1`` boxes sharing the corner.  Tensoring two hooks and keeping
only the one-hook part gives exactly two summands, so the tower of tensor
powers of a fixed hook projects onto a triangular graph whose level ``n``
holds ``n`` vertices in closed form.  Paths down that graph index the basis in
which all braiding operators are assembled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .braid import BraidError

# The most strands the engine evaluates.  Its cost grows as 2^(m-1), the size
# of the path bases: the fundamental invariant of a random 33-letter 10-strand
# knot takes 16 s on one Xeon core, and 12 strands take minutes, so larger
# counts are refused up front, before any path basis is built.
MAX_STRANDS = 10


class StrandBudgetError(BraidError):
    """A strand count above MAX_STRANDS, whose path bases are too large to evaluate.

    Every evaluation and operator identity builds its path bases through
    :func:`enumerate_paths`, which raises it through :func:`check_strands`.
    """


def check_strands(m: int) -> None:
    """Raise :class:`StrandBudgetError` if ``m`` strands is above MAX_STRANDS."""
    if m > MAX_STRANDS:
        raise StrandBudgetError(
            f"{m} strands is above the limit of {MAX_STRANDS}: the largest path basis "
            f"would hold {comb(m - 1, (m - 1) // 2)} paths")


@dataclass(frozen=True, order=True)
class Hook:
    """A one-hook diagram with ``arm`` boxes right of and ``leg`` boxes below the corner."""

    arm: int
    leg: int

    def __post_init__(self):
        if self.arm < 0 or self.leg < 0:
            raise ValueError(f"hook lengths must be nonnegative, got ({self.arm},{self.leg})")

    @property
    def size(self) -> int:
        return self.arm + self.leg + 1

    def as_partition(self) -> Partition:
        return Partition((self.arm + 1,) + (1,) * self.leg)

    def __str__(self) -> str:
        return f"({self.arm},{self.leg})"


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

    def is_one_hook(self) -> bool:
        return bool(self.parts) and self.diagonal_length == 1

    def as_hook(self) -> Hook:
        if not self.is_one_hook():
            raise ValueError(f"{self} is not a one-hook diagram")
        return Hook(self.parts[0] - 1, len(self.parts) - 1)

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


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of ``n``, largest part first."""
    if n == 0:
        yield Partition(())
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield Partition((first,) + rest.parts)


def hooks_up_to_size(max_size: int) -> Iterator[Hook]:
    """All hooks with at most ``max_size`` boxes, by size, then arm from the largest.

    Generated one at a time: there are ``max_size * (max_size + 1) / 2``.

    >>> list(hooks_up_to_size(2))
    [Hook(arm=0, leg=0), Hook(arm=1, leg=0), Hook(arm=0, leg=1)]
    """
    for size in range(1, max_size + 1):
        for arm in range(size - 1, -1, -1):
            yield Hook(arm, size - 1 - arm)


def hook_tensor_onehook(h1: Hook, h2: Hook) -> tuple[Hook, Hook]:
    """One-hook part of the tensor product of two hooks.

    Arms merge into the arm and legs into the leg; of the two corner boxes,
    one stays put and the other lands in either the arm or the leg:

    >>> hook_tensor_onehook(Hook(1, 1), Hook(1, 1))
    (Hook(arm=3, leg=2), Hook(arm=2, leg=3))
    """
    a, l = h1.arm + h2.arm, h1.leg + h2.leg
    return Hook(a + 1, l), Hook(a, l + 1)


@dataclass(frozen=True)
class HookGraph:
    """The one-hook tensor-power graph of a base hook, up to ``levels`` layers.

    Level ``n`` (1-indexed) holds ``n`` vertices; vertex ``k`` is the hook
    ``(n*a + (n-1-k), n*l + k)``.  Vertex ``(n, k)`` connects upward to
    ``(n+1, k)`` (arm step) and ``(n+1, k+1)`` (leg step), so the edges never
    need to be stored.
    """

    base: Hook
    levels: int

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError(f"graph needs at least one level, got {self.levels}")

    def vertex(self, n: int, k: int) -> Hook:
        if not 1 <= n <= self.levels:
            raise ValueError(f"level {n} outside 1..{self.levels}")
        if not 0 <= k <= n - 1:
            raise ValueError(f"vertex index {k} outside 0..{n - 1}")
        return Hook(n * self.base.arm + (n - 1 - k), n * self.base.leg + k)

    def level(self, n: int) -> tuple[Hook, ...]:
        return tuple(self.vertex(n, k) for k in range(n))


@dataclass(frozen=True)
class Path:
    """A root-to-leaf path, encoded by one 0/1 choice per step (0 arm, 1 leg)."""

    choices: tuple[int, ...]

    @property
    def end_index(self) -> int:
        return sum(self.choices)

    def vertex_index(self, n: int) -> int:
        """Index of the path's vertex at level ``n``."""
        return sum(self.choices[: n - 1])

    def toggle(self, step: int) -> Path:
        """Swap the (arm, leg) step pair starting at 1-indexed step ``step``."""
        c = list(self.choices)
        c[step - 1], c[step] = c[step], c[step - 1]
        return Path(tuple(c))

    def __str__(self) -> str:
        return "".join(str(c) for c in self.choices)


def enumerate_paths(graph: HookGraph, target_k: int) -> tuple[Path, ...]:
    """All paths ending at vertex ``target_k`` of the top level, in lexicographic order.

    There are C(levels - 1, target_k) of them.  A graph of more than
    MAX_STRANDS levels raises :class:`StrandBudgetError`, whatever the target.
    """
    m = graph.levels
    check_strands(m)
    steps = m - 1
    if not 0 <= target_k <= steps:
        raise ValueError(f"target vertex {target_k} outside 0..{steps}")
    paths = tuple(Path(bits) for bits in itertools.product((0, 1), repeat=steps)
                  if sum(bits) == target_k)
    assert len(paths) == comb(steps, target_k)
    return paths
