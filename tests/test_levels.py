"""Tests for the k-hierarchical level computation (Definition 8)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.constructions import build_lower_bound_graph, caterpillar, random_tree
from repro.lcl import compute_levels, level_paths, nodes_of_level
from repro.local import balanced_tree, cycle_graph, path_graph, star_graph


class TestComputeLevels:
    def test_path_all_level_one(self):
        g = path_graph(10)
        assert compute_levels(g, 2) == [1] * 10

    def test_star_two_levels(self):
        g = star_graph(5)
        levels = compute_levels(g, 2)
        # leaves peel at level 1; the centre then has degree 0 -> level 2
        assert levels[0] == 2
        assert levels[1:] == [1] * 5

    def test_high_degree_core_reaches_k_plus_one(self):
        # complete-ish tree: peeling k=1 leaves the internal nodes at level 2
        g = balanced_tree(3, 4)
        levels = compute_levels(g, 1)
        assert 2 in levels  # level k+1 = 2 exists
        assert levels.count(1) > levels.count(2)

    def test_caterpillar(self):
        g = caterpillar(spine=10, legs=3)
        levels = compute_levels(g, 2)
        # legs peel first; spine (degree 5 inside) peels second
        assert all(levels[v] == 1 for v in range(10, g.n))
        assert all(levels[v] == 2 for v in range(10))

    def test_restrict(self):
        g = path_graph(6)
        levels = compute_levels(g, 2, restrict=[0, 1, 2])
        assert levels[3:] == [0, 0, 0]
        assert levels[:3] == [1, 1, 1]

    def test_lower_bound_graph_levels(self):
        lb = build_lower_bound_graph([5, 5, 8])
        levels = compute_levels(lb.graph, 3)
        # every construction level is populated (up to boundary leaks,
        # the peeled level equals the intended level)
        for i in (1, 2, 3):
            assert nodes_of_level(levels, i)
        agree = sum(
            1 for v in lb.graph.nodes() if levels[v] == lb.intended_level[v]
        )
        assert agree / lb.graph.n > 0.8

    def test_level_monotone_in_k(self):
        g = balanced_tree(3, 3)
        l1 = compute_levels(g, 1)
        l3 = compute_levels(g, 3)
        # peeling longer can only refine: nodes peeled at level i for k=3
        # with i <= 1 must be peeled at level 1 for k=1
        for v in g.nodes():
            if l3[v] == 1:
                assert l1[v] == 1


class TestLevelPaths:
    def test_paths_are_ordered(self):
        lb = build_lower_bound_graph([6, 10])
        levels = compute_levels(lb.graph, 2)
        for path in level_paths(lb.graph, levels, 1):
            for a, b in zip(path, path[1:]):
                assert b in lb.graph.neighbors(a)

    def test_paths_partition_level(self):
        lb = build_lower_bound_graph([4, 6])
        levels = compute_levels(lb.graph, 2)
        covered = [v for p in level_paths(lb.graph, levels, 1) for v in p]
        assert sorted(covered) == sorted(nodes_of_level(levels, 1))

    @pytest.mark.parametrize("g", [cycle_graph(8), star_graph(3)],
                             ids=["cycle8", "star3"])
    def test_non_path_component_raises(self, g):
        # a level component that is a cycle or has a branch node has no
        # path order to colour along
        with pytest.raises(ValueError):
            level_paths(g, [1] * g.n, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10_000))
def test_levels_invariants(n, k, seed):
    g = random_tree(n, max_degree=4, rng=random.Random(seed))
    levels = compute_levels(g, k)
    assert all(1 <= lv <= k + 1 for lv in levels)
    # a level-i node (i <= k) has at most 2 neighbours of level >= i
    for v in g.nodes():
        if levels[v] <= k:
            assert sum(1 for w in g.neighbors(v) if levels[w] >= levels[v]) <= 2
    # peeling is greedy: a node with <= 2 same-or-higher neighbours at
    # level i would have been taken at level i; so any level-(i+1) node has
    # >= 3 neighbours of level >= i ... equivalently, level-(i+1) nodes had
    # degree >= 3 when level i was peeled.
    for v in g.nodes():
        lv = levels[v]
        if lv >= 2 and lv <= k:
            higher = sum(1 for w in g.neighbors(v) if levels[w] >= lv)
            assert higher <= 2
