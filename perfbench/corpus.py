"""Seeded knot-braid corpora for the three benchmark workloads.

Each workload draws from a fixed pool of knot braids.  The pool is generated
from a constant seed, so the reference outputs in ``reference.json`` stay
valid for every run; a run's ``--seed`` shuffles each stratum of the pool and
so fixes the order, and with it which braids a run repeats or leaves out.
Strata are spread evenly over the order, so every prefix of a schedule has
the same mix of braid sizes and the medians do not jump between size
clusters from one seed to the next.

This module imports nothing from ``hookalex``: the program receives only the
braids generated here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

MAX_ATTEMPTS = 10_000


class CorpusError(ValueError):
    """A braid with the requested shape cannot be generated."""


@dataclass(frozen=True)
class Entry:
    """One knot braid of a workload pool; ``torus`` is ``(p, r)`` for ``T(p, r)``."""

    strands: int
    letters: tuple[int, ...]
    torus: tuple[int, int] | None = None

    @property
    def text(self) -> str:
        return " ".join(str(g) for g in self.letters)

    @property
    def key(self) -> str:
        """The ``letters@strands`` form the CLI's table mode reads."""
        return f"{self.text}@{self.strands}"


def is_knot(strands: int, letters: Sequence[int]) -> bool:
    """True iff the closure's strand permutation is a single ``strands``-cycle.

    >>> is_knot(2, (1, 1, 1)), is_knot(2, (1, 1))
    (True, False)
    """
    perm = list(range(strands))
    for g in letters:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, j = 1, perm[0]
    while j != 0:
        j = perm[j]
        seen += 1
    return seen == strands


def random_knot_braid(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    """A uniformly drawn mixed-sign word of ``length`` letters whose closure is a knot.

    Every letter is a transposition and an ``m``-cycle is a product of
    ``m - 1`` of them, so a knot word has a letter count of the parity of
    ``strands - 1``.  Any other length is refused at once instead of being
    rejection-sampled forever.

    >>> random_knot_braid(random.Random(0), 4, 20)
    Traceback (most recent call last):
    ...
    corpus.CorpusError: a knot on 4 strands needs an odd letter count, got 20
    """
    if strands < 2 or length < strands - 1:
        raise CorpusError(f"no knot word of {length} letters on {strands} strands")
    if (length - strands + 1) % 2:
        parity = "odd" if strands % 2 == 0 else "even"
        raise CorpusError(
            f"a knot on {strands} strands needs an {parity} letter count, got {length}")
    gens = [g for i in range(1, strands) for g in (i, -i)]
    for _ in range(MAX_ATTEMPTS):
        letters = tuple(rng.choice(gens) for _ in range(length))
        if is_knot(strands, letters):
            return letters
    raise CorpusError(f"no knot among {MAX_ATTEMPTS} random words of {length} letters "
                      f"on {strands} strands")


def torus_entry(p: int, r: int) -> Entry:
    """The torus knot ``T(p, r)`` as the closure of ``(s1 ... s(p-1))^r``."""
    if math.gcd(p, r) != 1:
        raise CorpusError(f"T({p},{r}) is a link: gcd({p},{r}) != 1")
    return Entry(p, tuple(range(1, p)) * r, (p, r))


# -- workload pools --------------------------------------------------------------
#
# A stratum makes its entries from the pool's random generator.  The sizes
# keep each stratum's per-operation cost in one band; README.md says why each
# workload exists.

Stratum = Callable[[random.Random], list[Entry]]


def _random(count: int, strands: int, lengths: Sequence[int]) -> Stratum:
    def make(rng: random.Random) -> list[Entry]:
        entries: dict[Entry, None] = {}
        for _ in range(10 * count):
            entries[Entry(strands, random_knot_braid(rng, strands, rng.choice(lengths)))] = None
            if len(entries) == count:
                return list(entries)
        raise CorpusError(f"fewer than {count} distinct knots of {lengths} letters "
                          f"on {strands} strands")
    return make


def _torus(pairs: Sequence[tuple[int, int]]) -> Stratum:
    return lambda rng: [torus_entry(p, r) for p, r in pairs]


def _strata(workload: str) -> list[Stratum]:
    if workload == "fund-wide":
        return [_random(150, 6, (17,))]
    if workload == "colored-scaling":
        return [_random(100, 4, (9,))]
    if workload == "long-braid":
        # Letter counts on 3 strands are about three times those on 4, so
        # that both cost the same; the 3-strand braids reach the 60-80 bit
        # coefficients of deep products.
        return [
            _random(24, 3, (140, 150, 160)),
            _torus([(3, 67), (3, 70), (3, 73), (3, 76), (3, 79)]),
            _random(16, 4, (41, 45, 49)),
            _torus([(4, 15), (4, 17), (4, 19)]),
        ]
    raise KeyError(workload)


WORKLOADS = ("fund-wide", "colored-scaling", "long-braid")


def pool(workload: str) -> list[list[Entry]]:
    """The workload's fixed pool, one list per stratum; independent of any run seed."""
    rng = random.Random(f"perfbench-pool-{workload}")
    return [make(rng) for make in _strata(workload)]


def schedule(workload: str, seed: int) -> list[Entry]:
    """The run order for ``seed``: the whole pool, each stratum shuffled, spread evenly.

    The ``j``-th of a stratum's ``n`` entries sits at fraction ``(j + 1/2) / n``
    of the schedule, so every prefix holds each stratum in proportion to its
    size.  A run cycles through the schedule.
    """
    rng = random.Random(seed)
    placed = []
    for s, entries in enumerate(pool(workload)):
        entries = list(entries)
        rng.shuffle(entries)
        placed += [((j + 0.5) / len(entries), s, e) for j, e in enumerate(entries)]
    return [e for _, _, e in sorted(placed, key=lambda p: p[:2])]
