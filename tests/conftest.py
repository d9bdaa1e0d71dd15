import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

import pytest
from hypothesis import HealthCheck, settings

from hookalex.braid import BraidWord, closure_is_knot
from hookalex.cli import DEFAULT_TABLE_BRAIDS, parse_table_braids
from hookalex.evaluator import hook_weight
from hookalex.laurent import LaurentPoly, det, qnum_bullet
from hookalex.rmatrix import assemble_R, framing_exponent
from hookalex.schur import Partition
from hookalex.young import Hook, HookGraph

# The seeded knot words and the torus closed form are the benchmark's own.  Its
# modules import nothing from hookalex; appending the checkout's root reaches
# them as the namespace package ``perfbench`` without shadowing any module.
sys.path.append(str(Path(__file__).resolve().parents[1]))
from perfbench import corpus, expected  # noqa: E402

settings.register_profile(
    "ci", max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")

# Braid corpus for the scaling and invariance checks: the CLI's table corpus.
# Entries whose closure is a link are filtered out at use sites.
CORPUS = parse_table_braids(DEFAULT_TABLE_BRAIDS)


# Rational points (A, q) at which the Schur oracle compares Jacobi-Trudi with the factor lists.
SCHUR_POINTS = (
    (Fraction(2), Fraction(3, 2)),
    (Fraction(3, 2), Fraction(2)),
    (Fraction(5, 2), Fraction(3)),
    (Fraction(3), Fraction(4, 3)),
    (Fraction(7, 4), Fraction(5, 2)),
)


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


# -- the Jacobi-Trudi oracle: Schur values at a rational point (A, q) -------------------------

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


def evaluate(p: LaurentPoly, q):
    """``p`` at a nonzero number ``q``; exact when ``q`` is an int or a Fraction."""
    if isinstance(q, int):
        q = Fraction(q)
    power = q ** p.step
    acc = 0
    for c in reversed(p.terms):
        acc = acc * power + c
    return acc * q ** p.min_exp


def same_ratio(x, y) -> bool:
    """Whether the ``(num, den)`` pairs ``x`` and ``y`` are the same fraction."""
    return x[0] * y[1] == y[0] * x[1]


def ratio_closed_form(color: Hook, mu: Hook) -> tuple[LaurentPoly, LaurentPoly]:
    """The engine's vertex weight :func:`hook_weight` as the ratio ``(sign, [m]_N)``."""
    sign, m = hook_weight(color, mu)
    return LaurentPoly.constant(sign), qnum_bullet(m, color.size)


def corpus_knots() -> list[BraidWord]:
    return [b for b in CORPUS if closure_is_knot(b)]


@pytest.fixture(scope="session")
def knots() -> list[BraidWord]:
    return corpus_knots()


# -- Markov moves: variants whose closures are the same knot ---------------------------------

def conjugate(b: BraidWord, word: Sequence[int]) -> BraidWord:
    """The conjugated braid  word . b . word^-1  on the same strand count."""
    inverse = tuple(-g for g in reversed(word))
    return BraidWord(b.strands, tuple(word) + b.letters + inverse)


def stabilize(b: BraidWord, sign: int = 1) -> BraidWord:
    """Markov stabilization: add a strand and append the new generator once."""
    if sign not in (1, -1):
        raise ValueError("stabilization sign must be +1 or -1")
    return BraidWord(b.strands + 1, b.letters + (sign * b.strands,))


@dataclass(frozen=True)
class MarkovVariants:
    conjugates: tuple[BraidWord, ...]
    stabilized_pos: BraidWord
    stabilized_neg: BraidWord


def markov_variants(b: BraidWord, count: int = 5, seed: int = 0) -> MarkovVariants:
    """Sampled conjugates plus both stabilizations, for invariance testing."""
    rng = random.Random(seed)
    gens = [g for i in range(1, b.strands) for g in (i, -i)]
    conjugates = []
    for _ in range(count):
        word = [rng.choice(gens) for _ in range(rng.randint(1, 2))]
        conjugates.append(conjugate(b, word))
    return MarkovVariants(tuple(conjugates), stabilize(b, 1), stabilize(b, -1))


def random_knot(rng, strands, length):
    """The benchmark corpus's seeded knot word, :func:`corpus.random_knot_braid`, as a braid."""
    return BraidWord(strands, corpus.random_knot_braid(rng, strands, length))


def torus_braid(p, r):
    """``T(p, r)`` as the closure of ``(s1 ... s(p-1))^r``, the benchmark corpus's torus entry."""
    entry = corpus.torus_entry(p, r)
    return BraidWord(entry.strands, entry.letters)


def run_hookalex(*argv) -> subprocess.CompletedProcess:
    """Run ``python -m hookalex.cli`` on ``argv`` in a subprocess, with this checkout's ``src``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hookalex.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


# -- the symmetric gauge in floats, to check that the rational gauge changes no trace ---------

def _qnum_bullet_float(n: int, size: int, q: float) -> float:
    return (q ** (n * size) - q ** (-n * size)) / (q ** size - q ** (-size))


def symmetric_operator_numeric(graph: HookGraph, target_k: int, i: int,
                               q: float, inverse: bool = False) -> list[list[float]]:
    """Float matrix of the crossing operator with symmetric sqrt off-diagonals.

    Used only to validate that the rational gauge changes no closed trace.
    """
    h = graph.base
    op = assemble_R(graph, target_k, i, inverse=False)
    k, size, n = framing_exponent(h), h.size, i  # every doublet sits at level i
    sign = -1.0 if h.leg % 2 else 1.0
    mat = [[0.0] * len(op) for _ in op]
    singlets = [a for a, row in enumerate(op) if len(row) == 1]
    for a in singlets:  # an eigenvalue times den
        mat[a][a] = float(evaluate(op[a][a], q)) / float(evaluate(op.den, q))
    for a, b in [(a, b) for a, row in enumerate(op) for b in row if b > a]:
        bullet = _qnum_bullet_float(n, size, q)
        c = q ** k
        r11 = -sign * c * q ** (-n * size) / bullet
        r22 = sign * c * q ** (n * size) / bullet
        off = c * math.sqrt(_qnum_bullet_float(n + 1, size, q)
                            * _qnum_bullet_float(n - 1, size, q)) / bullet
        if inverse:
            det = -c * c
            r11, r22, off = r22 / det, r11 / det, -off / det
        mat[a][a], mat[a][b], mat[b][a], mat[b][b] = r11, off, off, r22
    if inverse:
        for a in singlets:
            mat[a][a] = 1.0 / mat[a][a]
    return mat


def matmul_numeric(a: list[list], b: list[list]) -> list[list]:
    n = len(a)
    return [[sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)] for r in range(n)]


def trace_product_numeric(mats: Sequence[list[list]]):
    prod = mats[0]
    for m in mats[1:]:
        prod = matmul_numeric(prod, m)
    return sum(prod[i][i] for i in range(len(prod)))
