import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hookalex.braid import (BraidWord, GeneratorOutOfRangeError,
                            MalformedTokenError, ZeroLetterError,
                            closure_is_knot, parse_braid, render_braid)

from conftest import conjugate, corpus, markov_variants, stabilize


@st.composite
def braid_words(draw):
    strands = draw(st.integers(2, 5))
    gens = [g for i in range(1, strands) for g in (i, -i)]
    letters = draw(st.lists(st.sampled_from(gens), max_size=10))
    return BraidWord(strands, tuple(letters))


# -- parsing ------------------------------------------------------------------

def test_parse_simple():
    assert parse_braid("1 1 1", 2).letters == (1, 1, 1)
    assert parse_braid("1 -2 1 -2", 3).letters == (1, -2, 1, -2)


def test_parse_errors_are_distinct():
    with pytest.raises(GeneratorOutOfRangeError):
        parse_braid("3", 3)
    with pytest.raises(ZeroLetterError):
        parse_braid("1 0 1", 2)
    with pytest.raises(MalformedTokenError):
        parse_braid("1 x 1", 2)


def test_strand_minimum():
    with pytest.raises(ValueError):
        BraidWord(1, ())


@given(braid_words())
def test_render_parse_roundtrip(b):
    assert parse_braid(render_braid(b), b.strands) == b


# -- writhe ---------------------------------------------------------------------

def test_writhe():
    assert parse_braid("1 1 1", 2).writhe == 3
    assert parse_braid("1 -2 1 -2", 3).writhe == 0
    assert parse_braid("-1", 2).writhe == -1


# -- closure ---------------------------------------------------------------------

def test_closure_two_strand_knot():
    assert closure_is_knot(parse_braid("1 1 1", 2))


def test_closure_untouched_strand_is_link():
    assert not closure_is_knot(parse_braid("1 1", 3))


def test_closure_three_cycle():
    # permutation (12)(23)(12)(23) is a 3-cycle
    assert closure_is_knot(parse_braid("1 -2 1 -2", 3))


def test_closure_even_two_strand_is_link():
    assert not closure_is_knot(parse_braid("1 1", 2))


def test_corpus_knot_check_agrees_with_closure_is_knot():
    # The benchmark corpus imports nothing from hookalex, so it keeps its own
    # copy of the knot check; on every pool entry and on seeded random words,
    # knots and links both, the copy and the program agree.
    pools = [(e.strands, e.letters) for w in corpus.WORKLOADS
             for stratum in corpus.pool(w) for e in stratum]
    rng = random.Random(20261020)
    words = []
    for _ in range(600):
        m = rng.randint(2, 8)
        words.append((m, tuple([rng.choice((1, -1)) * rng.randint(1, m - 1)
                                for _ in range(rng.randint(0, 3 * m))])))
    found = [corpus.is_knot(m, letters) for m, letters in pools + words]
    assert found == [closure_is_knot(BraidWord(m, letters)) for m, letters in pools + words]
    assert all(found[:len(pools)])
    assert {True, False} <= set(found[len(pools):])


# -- Markov moves -----------------------------------------------------------------

def test_conjugation_examples():
    b = parse_braid("1 1 1", 2)
    assert conjugate(b, [1]).letters == (1, 1, 1, 1, -1)
    assert closure_is_knot(conjugate(b, [1]))


def test_stabilization():
    b = parse_braid("1 1 1", 2)
    up = stabilize(b, 1)
    down = stabilize(b, -1)
    assert (up.strands, up.letters) == (3, (1, 1, 1, 2))
    assert (down.strands, down.letters) == (3, (1, 1, 1, -2))
    with pytest.raises(ValueError):
        stabilize(b, 2)


@given(braid_words())
def test_markov_moves_preserve_closure_components(b):
    knot = closure_is_knot(b)
    mv = markov_variants(b, count=3, seed=11)
    for c in mv.conjugates:
        assert closure_is_knot(c) == knot
    assert closure_is_knot(mv.stabilized_pos) == knot
    assert closure_is_knot(mv.stabilized_neg) == knot


@given(braid_words())
def test_stabilization_writhe(b):
    assert stabilize(b, 1).writhe == b.writhe + 1
    assert stabilize(b, -1).writhe == b.writhe - 1
