import random

import pytest
from hypothesis import HealthCheck, settings

from hookalex.braid import BraidWord, closure_is_knot
from hookalex.cli import DEFAULT_TABLE_BRAIDS, parse_table_braids

settings.register_profile(
    "ci", max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")

# Braid corpus for the scaling and invariance checks: the CLI's table corpus.
# Entries whose closure is a link are filtered out at use sites.
CORPUS = parse_table_braids(DEFAULT_TABLE_BRAIDS)


def corpus_knots() -> list[BraidWord]:
    return [b for b in CORPUS if closure_is_knot(b)]


@pytest.fixture(scope="session")
def knots() -> list[BraidWord]:
    return corpus_knots()


def random_knot_braids(count: int, max_strands: int = 4, max_length: int = 12,
                       seed: int = 20240901) -> list[BraidWord]:
    """Deterministic sample of random braid words whose closures are knots."""
    rng = random.Random(seed)
    out: list[BraidWord] = []
    while len(out) < count:
        m = rng.randint(2, max_strands)
        gens = [g for i in range(1, m) for g in (i, -i)]
        length = rng.randint(1, max_length)
        b = BraidWord(m, tuple(rng.choice(gens) for _ in range(length)))
        if closure_is_knot(b):
            out.append(b)
    return out
