import inspect
from math import comb

import pytest

from hookalex.braid import BraidError
from hookalex.schur import Partition, hook_partition
from hookalex.young import (MAX_HOOK_SIZE, MAX_STRANDS, Hook, HookBudgetError, HookGraph,
                            StrandBudgetError, check_hook_size, check_strands, enumerate_paths,
                            hooks_up_to_size)

from conftest import partitions_of


# -- hooks and tensor rule -------------------------------------------------------

def hook_tensor_onehook(h1: Hook, h2: Hook) -> tuple[Hook, Hook]:
    """One-hook part of the tensor product of two hooks.

    Arms merge into the arm and legs into the leg; of the two corner boxes,
    one stays put and the other lands in either the arm or the leg.
    """
    a, l = h1.arm + h2.arm, h1.leg + h2.leg
    return Hook(a + 1, l), Hook(a, l + 1)


def test_hook_basics():
    h = Hook(2, 1)
    assert h.size == 4
    assert str(h) == "(2,1)"
    assert hook_partition(h) == Partition((3, 1))
    with pytest.raises(ValueError):
        Hook(-1, 0)


def test_hooks_up_to_size_are_generated_lazily():
    # checked first, so that a list-building version fails here instead of
    # trying to build 5 * 10**17 hooks below
    assert inspect.isgeneratorfunction(hooks_up_to_size)
    assert next(iter(hooks_up_to_size(10**9))) == Hook(0, 0)
    assert list(hooks_up_to_size(4)) == [
        Hook(0, 0), Hook(1, 0), Hook(0, 1), Hook(2, 0), Hook(1, 1), Hook(0, 2),
        Hook(3, 0), Hook(2, 1), Hook(1, 2), Hook(0, 3)]


def test_tensor_fundamental_square():
    assert hook_tensor_onehook(Hook(0, 0), Hook(0, 0)) == (Hook(1, 0), Hook(0, 1))


def test_tensor_of_equal_hooks():
    assert hook_tensor_onehook(Hook(1, 1), Hook(1, 1)) == (Hook(3, 2), Hook(2, 3))


def test_tensor_with_single_box():
    for h in hooks_up_to_size(4):
        assert hook_tensor_onehook(h, Hook(0, 0)) == (Hook(h.arm + 1, h.leg),
                                                      Hook(h.arm, h.leg + 1))


# -- the layered graph -------------------------------------------------------------

def level(g: HookGraph, n: int) -> tuple[Hook, ...]:
    return tuple(g.vertex(n, k) for k in range(n))


def test_graph_levels_closed_form():
    g = HookGraph(Hook(0, 0), 3)
    assert level(g, 3) == (Hook(2, 0), Hook(1, 1), Hook(0, 2))
    g = HookGraph(Hook(1, 1), 2)
    assert level(g, 2) == (Hook(3, 2), Hook(2, 3))
    for base in (Hook(0, 0), Hook(2, 1)):
        assert level(HookGraph(base, 5), 1) == (base,)


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        HookGraph(Hook(0, 0), 0)
    g = HookGraph(Hook(0, 0), 3)
    with pytest.raises(ValueError):
        g.vertex(4, 0)
    with pytest.raises(ValueError):
        g.vertex(2, 2)


@pytest.mark.parametrize("base", [Hook(0, 0), Hook(1, 1), Hook(2, 1), Hook(0, 3)])
def test_graph_consistent_with_tensor_rule(base):
    # structural induction: the closed form agrees with repeated tensoring
    levels = 12
    g = HookGraph(base, levels)
    for n in range(1, levels + 1):
        for k, v in enumerate(level(g, n)):
            assert v.size == n * base.size
            if n < levels:
                arm, leg = hook_tensor_onehook(v, base)
                assert arm == g.vertex(n + 1, k)
                assert leg == g.vertex(n + 1, k + 1)


# -- paths ----------------------------------------------------------------------------

def steps(p: int, m: int) -> str:
    """Path ``p`` of an ``m``-level graph as its steps, first step first (1 a leg step)."""
    return format(p, f"0{m - 1}b")


def test_single_path():
    g = HookGraph(Hook(0, 0), 2)
    assert [steps(p, 2) for p in enumerate_paths(g, 0)] == ["0"]


def test_two_paths_to_middle_vertex():
    g = HookGraph(Hook(0, 0), 3)
    assert g.vertex(3, 1) == Hook(1, 1)
    assert [steps(p, 3) for p in enumerate_paths(g, 1)] == ["01", "10"]


def test_path_count_binomial():
    g = HookGraph(Hook(0, 0), 5)
    assert len(enumerate_paths(g, 2)) == 6


def test_paths_are_the_bit_words_with_k_legs():
    # the reference is the filter over all 2^(m-1) words that the enumerator avoids
    for m in range(2, 11):
        for k in range(m):
            expected = tuple(w for w in range(2 ** (m - 1)) if bin(w).count("1") == k)
            assert enumerate_paths(HookGraph(Hook(1, 0), m), k) == expected, (m, k)


def test_paths_are_built_from_leg_positions(monkeypatch):
    # 2^39 words: a filter over all of them would not finish
    monkeypatch.setattr("hookalex.young.MAX_STRANDS", 40)
    assert enumerate_paths(HookGraph(Hook(0, 0), 40), 1) == tuple(1 << j for j in range(39))


def test_paths_lexicographic():
    g = HookGraph(Hook(1, 0), 5)
    for k in range(5):
        strings = [steps(p, 5) for p in enumerate_paths(g, k)]
        assert strings == sorted(strings)


def test_path_out_of_range():
    g = HookGraph(Hook(0, 0), 3)
    with pytest.raises(ValueError):
        enumerate_paths(g, 3)
    with pytest.raises(ValueError):
        enumerate_paths(g, -1)


def test_strand_budget():
    assert len(enumerate_paths(HookGraph(Hook(0, 0), MAX_STRANDS), 0)) == 1
    m = MAX_STRANDS + 1
    with pytest.raises(StrandBudgetError) as exc:
        enumerate_paths(HookGraph(Hook(1, 0), m), 0)
    assert isinstance(exc.value, BraidError)
    assert f"{m} strands" in str(exc.value)
    assert str(comb(m - 1, (m - 1) // 2)) in str(exc.value)
    # a huge count is refused at once: its path count is bounded, not computed
    with pytest.raises(StrandBudgetError, match=r"would hold over 2\^999999969 paths"):
        enumerate_paths(HookGraph(Hook(0, 0), 10 ** 9), 0)
    for m in range(65, 300):  # the bound the message states for counts it does not compute
        assert comb(m - 1, (m - 1) // 2) > 2 ** (m - 1 - m.bit_length())


def test_hook_budget():
    assert MAX_HOOK_SIZE > 12  # every hook the tests evaluate stays below the limit
    assert HookGraph(Hook(MAX_HOOK_SIZE - 1, 0), 3).base.size == MAX_HOOK_SIZE
    for base in (Hook(MAX_HOOK_SIZE, 0), Hook(0, 10 ** 7), Hook(10 ** 9, 10 ** 9)):
        with pytest.raises(HookBudgetError, match=f"hook size {base.size} is above the limit"):
            HookGraph(base, 2)
    assert issubclass(HookBudgetError, BraidError)


@pytest.mark.parametrize("refuse,error", [
    (check_strands, StrandBudgetError),
    (check_hook_size, HookBudgetError),
    (lambda n: Hook(-n, 0), ValueError),
])
def test_a_huge_integer_is_refused_with_a_bounded_message(refuse, error):
    # past Python's 4,300-digit limit on int to str, so the message cannot print it whole
    with pytest.raises(error) as exc:
        refuse(10 ** 5000)
    message = str(exc.value)
    assert "(5001 digits)" in message and len(message) < 300


def test_path_counts_pascal_recurrence():
    base = Hook(1, 1)
    for levels in range(2, 9):
        big = HookGraph(base, levels + 1)
        small = HookGraph(base, levels)
        for k in range(levels + 1):
            above = len(enumerate_paths(big, k))
            left = len(enumerate_paths(small, k)) if k <= levels - 1 else 0
            right = len(enumerate_paths(small, k - 1)) if k >= 1 else 0
            assert above == left + right


def test_path_vertices_follow_tensor_rule():
    base = Hook(2, 1)
    g = HookGraph(base, 5)
    for k in range(5):
        for p in enumerate_paths(g, k):
            choices = [int(c) for c in steps(p, 5)]
            walked = base
            for n, step in enumerate(choices, start=2):
                walked = hook_tensor_onehook(walked, base)[step]
                assert walked == g.vertex(n, sum(choices[:n - 1]))
            assert walked == g.vertex(5, k)


# -- partitions ------------------------------------------------------------------------

def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_partition_stats_single_box():
    p = Partition((1,))
    assert p.diagonal_length == 1
    assert p.contents() == (0,)
    assert p.hook_lengths() == (1,)


def test_partition_stats_square():
    p = Partition((2, 2))
    assert p.diagonal_length == 2
    assert p.contents() == (0, 1, -1, 0)
    assert p.hook_lengths() == (3, 2, 2, 1)


def test_hook_corner_hook_length_is_size():
    for h in hooks_up_to_size(6):
        p = hook_partition(h)
        assert p.hook_lengths()[0] == h.size
        assert p.hook_lengths().count(h.size) == 1
        assert p.diagonal_length == 1


def test_hook_partition_roundtrip():
    for h in hooks_up_to_size(5):
        p = hook_partition(h)
        assert (p.parts[0] - 1, len(p.parts) - 1) == (h.arm, h.leg)
        assert p.diagonal_length == 1 and p.size == h.size


def test_partitions_of():
    assert sorted(p.parts for p in partitions_of(4)) == [
        (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    assert [p.parts for p in partitions_of(0)] == [()]


def test_rendering():
    assert str(Partition((3, 1, 1))) == "[3,1,1]"
    assert str(Hook(0, 2)) == "(0,2)"
