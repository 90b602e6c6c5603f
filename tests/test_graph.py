"""Tests for the graph substrate."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.families import FAMILIES, get_family
from repro.local import (
    Graph, balanced_tree, cycle_graph, from_networkx, path_graph,
    star_graph, to_networkx,
)
from repro.shm import SharedGraphPool, shared_graph, worker_attach_specs, worker_detach


class TestGraphBasics:
    def test_empty_edges(self):
        g = Graph(3, [])
        assert g.n == 3 and g.m == 0
        assert g.degree(0) == 0

    def test_path_structure(self):
        g = path_graph(5)
        assert g.n == 5 and g.m == 4
        assert g.degree(0) == 1 and g.degree(2) == 2
        assert g.is_tree()

    def test_single_node_is_tree(self):
        assert path_graph(1).is_tree()

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_inputs_roundtrip(self):
        g = Graph(3, [(0, 1)], inputs=["a", "b", "c"])
        assert g.input_of(2) == "c"
        g2 = g.with_inputs(["x", "y", "z"])
        assert g2.input_of(0) == "x"
        assert g.input_of(0) == "a"

    def test_inputs_length_mismatch(self):
        with pytest.raises(ValueError):
            Graph(2, [], inputs=["a"])

    def test_star(self):
        g = star_graph(5)
        assert g.degree(0) == 5
        assert g.max_degree() == 5
        assert g.is_tree()

    def test_balanced_tree_counts(self):
        g = balanced_tree(fanout=2, height=3)
        assert g.n == 1 + 2 + 4 + 8
        assert g.is_tree()
        assert g.degree(0) == 2

    def test_forest_detection(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.is_forest()
        assert not g.is_tree()
        assert not g.is_connected()


class TestBallsAndComponents:
    def test_ball_radii(self):
        g = path_graph(9)
        ball = g.ball(4, 2)
        assert set(ball) == {2, 3, 4, 5, 6}
        assert ball[2] == 2 and ball[4] == 0

    def test_ball_zero(self):
        g = path_graph(3)
        assert g.ball(1, 0) == {1: 0}

    def test_components(self):
        g = Graph(5, [(0, 1), (3, 4)])
        comps = sorted(sorted(c) for c in g.connected_components())
        assert comps == [[0, 1], [2], [3, 4]]

    def test_eccentricity_path(self):
        g = path_graph(7)
        assert g.eccentricity(0) == 6
        assert g.eccentricity(3) == 3

    def test_bfs_multi_source(self):
        g = path_graph(5)
        dist = g.bfs_distances([0, 4])
        assert dist == [0, 1, 2, 1, 0]

    def test_induced_subgraph(self):
        g = path_graph(5)
        sub, remap = g.induced_subgraph([1, 2, 3])
        assert sub.n == 3 and sub.m == 2
        assert remap[2] == 1


def _max_degree_per_node(g: Graph) -> int:
    """The per-node generator ``Graph.max_degree`` replaces: the oracle."""
    return max((g.degree(v) for v in range(g.n)), default=0)


class TestMaxDegree:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_matches_per_node_on_family_corpus(self, name):
        for n in (1, 2, 9, 97, 300):
            g = get_family(name).instance(n, 3)
            assert g.max_degree() == _max_degree_per_node(g)

    def test_empty_and_edgeless(self):
        assert Graph(0, []).max_degree() == 0
        for n in (1, 2, 5):
            assert Graph(n, []).max_degree() == 0 == _max_degree_per_node(
                Graph(n, []))

    def test_returns_a_plain_int(self):
        assert type(star_graph(4).max_degree()) is int

    def test_shared_memory_attach(self):
        g = get_family("random_tree").instance(500, 2)
        with SharedGraphPool() as pool:
            pool.publish("max-degree", g)
            worker_attach_specs(pool.specs())
            try:
                attached = shared_graph("max-degree")
                assert attached.adjacency()[0].readonly
                assert attached.max_degree() == _max_degree_per_node(g)
            finally:
                worker_detach()


def _relabelled_path(order):
    """The path visiting handles in ``order``."""
    return Graph(len(order), list(zip(order, order[1:])))


def _topology_corpus():
    """Forests and graphs with cycles whose component count stresses the
    hook-and-shortcut pass: handle orders that hook in long chains, a
    star that hooks its centre last, isolated nodes."""
    rng = random.Random(11)
    graphs = [get_family(name).instance(n, 3)
              for name in sorted(FAMILIES) for n in (1, 2, 9, 97, 300)]
    for n in (2, 3, 40, 300):
        order = list(range(n))
        graphs.append(_relabelled_path(order[::-1]))
        rng.shuffle(order)
        graphs.append(_relabelled_path(order))
        graphs.append(Graph(n, [(v, n - 1) for v in range(n - 1)]))
    for n in (3, 4, 300):
        graphs.append(cycle_graph(n))
        order = list(range(n))
        rng.shuffle(order)
        graphs.append(Graph(n, list(zip(order, order[1:] + order[:1]))))
    graphs.append(Graph(4, [(u, v) for u in range(4)
                            for v in range(u + 1, 4)]))
    # two paths, a cycle and isolated nodes, in interleaved handles
    graphs.append(Graph(700, [(v, v + 3) for v in range(0, 600, 3)]
                        + [(v, v + 3) for v in range(1, 300, 3)]
                        + [(2, 5), (5, 8), (2, 8)]))
    graphs.append(Graph(600, [(v, v + 2) for v in range(0, 580, 2)]))
    graphs += [Graph(0, []), Graph(1, []), Graph(5, [])]
    return graphs


def _bfs_facts(g: Graph):
    """``(is_forest, is_tree, is_connected)`` by their BFS definitions."""
    components = len(g.connected_components())
    connected = g.n > 0 and sum(map(len, g.bfs_layers([0]))) == g.n
    return (g.m == g.n - components,
            g.n > 0 and g.m == g.n - 1 and connected,
            connected)


class TestComponentCount:
    """The numpy hook-and-shortcut count against the BFS count."""

    def test_numpy_count_matches_bfs(self):
        for g in _topology_corpus():
            assert g._component_count() == len(g.connected_components()), g

    def test_topology_facts_match_bfs(self):
        for g in _topology_corpus():
            assert (g.is_forest(), g.is_tree(), g.is_connected()) == \
                _bfs_facts(g), g

    def test_shared_memory_attach(self):
        graphs = {"tree": get_family("random_tree").instance(500, 2),
                  "edgeless": Graph(5, []), "triangle": cycle_graph(3)}
        with SharedGraphPool() as pool:
            for key, g in graphs.items():
                pool.publish(key, g)
            worker_attach_specs(pool.specs())
            try:
                for key, g in graphs.items():
                    attached = shared_graph(key)
                    assert attached._component_count() == \
                        len(g.connected_components()), key
                    assert (attached.is_forest(), attached.is_tree(),
                            attached.is_connected()) == _bfs_facts(g), key
            finally:
                worker_detach()


class TestNetworkxConversion:
    def test_roundtrip(self):
        g = balanced_tree(3, 2)
        nx_g = to_networkx(g)
        back = from_networkx(nx_g)
        assert back.n == g.n and back.m == g.m

    def test_inputs_preserved(self):
        g = Graph(2, [(0, 1)], inputs=["Active", "Weight"])
        back = from_networkx(to_networkx(g))
        assert sorted([back.input_of(0), back.input_of(1)]) == ["Active", "Weight"]


@given(st.integers(min_value=1, max_value=40))
def test_path_is_tree_property(n):
    g = path_graph(n)
    assert g.is_tree()
    assert g.m == n - 1
    assert sum(g.degree(v) for v in g.nodes()) == 2 * g.m


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=4))
def test_balanced_tree_property(fanout, height):
    g = balanced_tree(fanout, height)
    assert g.is_tree()
    expected = sum(fanout**i for i in range(height + 1))
    assert g.n == expected
