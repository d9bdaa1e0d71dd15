import inspect
from math import comb

import pytest

from hookalex.braid import BraidError
from hookalex.young import (MAX_STRANDS, Hook, HookGraph, Partition, StrandBudgetError,
                            enumerate_paths, hook_tensor_onehook, hooks_up_to_size,
                            partitions_of)


# -- hooks and tensor rule -------------------------------------------------------

def test_hook_basics():
    h = Hook(2, 1)
    assert h.size == 4
    assert str(h) == "(2,1)"
    assert h.as_partition() == Partition((3, 1))
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

def test_graph_levels_closed_form():
    g = HookGraph(Hook(0, 0), 3)
    assert g.level(3) == (Hook(2, 0), Hook(1, 1), Hook(0, 2))
    g = HookGraph(Hook(1, 1), 2)
    assert g.level(2) == (Hook(3, 2), Hook(2, 3))
    for base in (Hook(0, 0), Hook(2, 1)):
        assert HookGraph(base, 5).level(1) == (base,)


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
        for k, v in enumerate(g.level(n)):
            assert v.size == n * base.size
            if n < levels:
                arm, leg = hook_tensor_onehook(v, base)
                assert arm == g.vertex(n + 1, k)
                assert leg == g.vertex(n + 1, k + 1)


# -- paths ----------------------------------------------------------------------------

def test_single_path():
    g = HookGraph(Hook(0, 0), 2)
    assert [str(p) for p in enumerate_paths(g, 0)] == ["0"]


def test_two_paths_to_middle_vertex():
    g = HookGraph(Hook(0, 0), 3)
    assert g.vertex(3, 1) == Hook(1, 1)
    assert [str(p) for p in enumerate_paths(g, 1)] == ["01", "10"]


def test_path_count_binomial():
    g = HookGraph(Hook(0, 0), 5)
    assert len(enumerate_paths(g, 2)) == 6


def test_paths_lexicographic():
    g = HookGraph(Hook(1, 0), 5)
    for k in range(5):
        strings = [str(p) for p in enumerate_paths(g, k)]
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
            walked = base
            for n, step in enumerate(p.choices, start=2):
                walked = hook_tensor_onehook(walked, base)[step]
                assert walked == g.vertex(n, p.vertex_index(n))
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
        p = h.as_partition()
        assert p.hook_lengths()[0] == h.size
        assert p.hook_lengths().count(h.size) == 1
        assert p.diagonal_length == 1


def test_hook_partition_roundtrip():
    for h in hooks_up_to_size(5):
        assert h.as_partition().as_hook() == h


def test_partitions_of():
    assert sorted(p.parts for p in partitions_of(4)) == [
        (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    assert [p.parts for p in partitions_of(0)] == [()]


def test_rendering():
    assert str(Partition((3, 1, 1))) == "[3,1,1]"
    assert str(Hook(0, 2)) == "(0,2)"
