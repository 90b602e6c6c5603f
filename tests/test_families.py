"""Graph-family generators: validity, degree bounds, reproducibility.

Acceptance contract (ISSUE 2): every registered family yields graphs that
pass ``Graph`` validation, respect their declared degree bound, and are
reproducible from ``(name, n, seed)`` alone.
"""

import heapq
import random
from collections import Counter

import pytest

from repro.families import (
    FAMILIES,
    bounded_degree_tree,
    caterpillar_tree,
    get_family,
    hypercube_graph,
    prufer_decode,
    prufer_sequence,
    prufer_tree,
    random_regular,
    register_family,
    spider_tree,
    union_family,
)
from repro.local import Graph, cycle_graph, disjoint_union, grid_graph, path_graph

SIZES = (1, 2, 3, 9, 40, 97)
TREE_FAMILIES = (
    "path", "complete_binary_tree", "random_tree", "bounded_tree_d3",
    "caterpillar", "spider", "star",
)
FOREST_FAMILIES = ("random_forest", "fragmented_forest")


def _edge_set(g: Graph):
    return (g.n, sorted(g.edges()))


def _heap_decode(seq) -> Graph:
    """Reference Prüfer decode: a min-heap of current leaves, the
    textbook O(n log n) form of the smallest-leaf rule that
    :func:`repro.families.prufer_decode` replaces."""
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph(n, edges)


def _chi_square(counts: Counter, cells: int, draws: int) -> float:
    expected = draws / cells
    return sum((counts[c] - expected) ** 2 / expected for c in counts)


class TestRegistry:
    def test_expected_families_registered(self):
        expected = {
            "path", "cycle", "star", "grid", "complete_binary_tree",
            "random_tree", "bounded_tree_d3", "caterpillar", "spider",
            "random_forest", "fragmented_forest",
            "random_regular_d3", "hypercube",
        }
        assert expected <= set(FAMILIES)

    def test_get_family_unknown(self):
        with pytest.raises(KeyError):
            get_family("nope")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError):
            register_family(FAMILIES["path"])


class TestInstances:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_valid_and_degree_bounded(self, name):
        fam = get_family(name)
        for n in SIZES:
            for g in fam.instances(n, seed=11):
                assert g.n >= 1
                if fam.degree_bound is not None:
                    assert g.max_degree() <= fam.degree_bound, (name, n)
                # Graph() already validated handles/self-loops/duplicates;
                # re-round-trip the edge list to prove it stays valid
                Graph(g.n, list(g.edges()), g.inputs())

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_reproducible_from_name_n_seed(self, name):
        fam = get_family(name)
        a = [_edge_set(g) for g in fam.instances(40, seed=5)]
        b = [_edge_set(g) for g in fam.instances(40, seed=5)]
        assert a == b
        # instance(index) addresses the same draw without the prefix
        assert _edge_set(fam.instance(40, 5, len(a) - 1)) == a[-1]

    @pytest.mark.parametrize("name", ("random_tree", "bounded_tree_d3",
                                      "caterpillar", "spider"))
    def test_seeds_and_indices_vary(self, name):
        fam = get_family(name)
        draws = {
            tuple(sorted(fam.instance(60, seed, index).edges()))
            for seed in (0, 1)
            for index in (0, 1)
        }
        assert len(draws) >= 3  # genuinely random, not degenerate

    @pytest.mark.parametrize("name", TREE_FAMILIES)
    def test_tree_families_yield_trees(self, name):
        for g in get_family(name).instances(50, seed=2):
            assert g.is_tree(), name

    @pytest.mark.parametrize("name", FOREST_FAMILIES)
    def test_union_families_yield_forests(self, name):
        for g in get_family(name).instances(60, seed=2):
            assert g.is_forest(), name
            assert len(g.connected_components()) >= 2

    def test_fragmented_forest_has_single_node_components(self):
        g = get_family("fragmented_forest").instance(60, 0)
        assert any(len(c) == 1 for c in g.connected_components())

    def test_size_rejects_zero(self):
        with pytest.raises(ValueError):
            get_family("path").instance(0, 0)


class TestGenerators:
    def test_prufer_uniform_small_cases(self):
        rng = random.Random(0)
        assert prufer_tree(1, rng).n == 1
        assert list(prufer_tree(2, rng).edges()) == [(0, 1)]
        for _ in range(20):
            assert prufer_tree(12, rng).is_tree()
        # Cayley: 4^2 = 16 labeled trees on 4 nodes, each equally likely.
        # 3200 seeded draws, chi-square with 15 degrees of freedom below
        # its 0.1% critical value 37.70
        draws = 3200
        counts = Counter(tuple(sorted(prufer_tree(4, rng).edges()))
                         for _ in range(draws))
        assert len(counts) == 16
        assert _chi_square(counts, 16, draws) < 37.70

    @pytest.mark.parametrize("n", range(3, 65))
    def test_prufer_decode_matches_heap_decode(self, n):
        rng = random.Random(n)
        for _ in range(5):
            seq = prufer_sequence(n, rng)
            assert prufer_decode(seq).adjacency() == \
                _heap_decode(seq.tolist()).adjacency()

    def test_prufer_decode_matches_heap_decode_large(self):
        seq = prufer_sequence(10_000, random.Random(7))
        assert prufer_decode(seq).adjacency() == \
            _heap_decode(seq.tolist()).adjacency()

    @pytest.mark.parametrize("n", [2, 3, 10, 1000])
    def test_prufer_decode_skips_only_a_redundant_edge_scan(self, n,
                                                            monkeypatch):
        # the decode builds its CSR unvalidated; the validated build of
        # the same endpoint arrays must accept them and agree
        rng = random.Random(n)
        seqs = [prufer_sequence(n, rng) for _ in range(3)]
        seqs += [[0] * (n - 2), [n - 1] * (n - 2)]
        fast = [prufer_decode(seq) for seq in seqs]
        build = Graph.from_arrays

        def validated(nodes, edge_u, edge_v, inputs=None, validate=True):
            return build(nodes, edge_u, edge_v, inputs, validate=True)

        monkeypatch.setattr(Graph, "from_arrays", validated)
        for seq, graph in zip(seqs, fast):
            assert graph.adjacency() == prufer_decode(seq).adjacency()
            assert graph.is_tree()

    def test_prufer_decode_edge_cases(self):
        assert list(prufer_decode([]).edges()) == [(0, 1)]
        # a star's sequence repeats its centre; a path's walks its spine
        assert prufer_decode([2, 2, 2]).degree(2) == 4
        assert sorted(prufer_decode([1, 2, 3]).edges()) == [
            (0, 1), (1, 2), (2, 3), (3, 4)]
        for bad in ([4, 0], [-1, 0]):
            with pytest.raises(ValueError):
                prufer_decode(bad)
        with pytest.raises(ValueError):
            prufer_sequence(1, random.Random(0))

    def test_prufer_sequence_takes_one_draw_from_rng(self):
        # callers that share one rng across instances (union families)
        # see exactly one getrandbits(128) consumed per tree
        rng, twin = random.Random(5), random.Random(5)
        prufer_sequence(50, rng)
        twin.getrandbits(128)
        assert rng.random() == twin.random()

    def test_bounded_degree_respects_delta(self):
        rng = random.Random(3)
        for delta in (2, 3, 5):
            g = bounded_degree_tree(120, rng, delta=delta)
            assert g.is_tree()
            assert g.max_degree() <= delta
        with pytest.raises(ValueError):
            bounded_degree_tree(5, rng, delta=1)

    def test_caterpillar_and_spider_shapes(self):
        rng = random.Random(9)
        cat = caterpillar_tree(80, rng)
        assert cat.is_tree() and cat.max_degree() <= 5
        spi = spider_tree(80, rng)
        assert spi.is_tree() and spi.degree(0) <= 8

    def test_random_regular_is_regular_and_simple(self):
        rng = random.Random(5)
        for n, d in ((10, 3), (33, 4), (64, 3)):
            g = random_regular(n, rng, d=d)
            assert all(g.degree(v) == d for v in g.nodes()), (n, d)
            # Graph() rejects self-loops/duplicates at build time; round-trip
            Graph(g.n, list(g.edges()))
        with pytest.raises(ValueError):
            random_regular(10, rng, d=1)

    def test_random_regular_rounds_to_feasible_size(self):
        rng = random.Random(6)
        # n * d odd -> bumped by one; tiny n -> bumped to d + 1
        assert random_regular(9, rng, d=3).n == 10
        assert random_regular(1, rng, d=3).n == 4
        assert random_regular(7, rng, d=4).n == 7

    def test_hypercube_structure(self):
        g = hypercube_graph(4)
        assert (g.n, g.m) == (16, 32)
        assert all(g.degree(v) == 4 for v in g.nodes())
        for u, v in g.edges():
            assert bin(u ^ v).count("1") == 1
        assert hypercube_graph(0).n == 1
        with pytest.raises(ValueError):
            hypercube_graph(-1)

    def test_hypercube_family_rounds_down_to_power_of_two(self):
        fam = get_family("hypercube")
        assert fam.instance(97, 0).n == 64
        assert fam.instance(1, 0).n == 2

    def test_union_family_composition(self):
        fam = union_family(
            "test_union", [get_family("path"), get_family("cycle")]
        )
        g = fam.build(20, random.Random(0))
        assert len(g.connected_components()) == 2
        assert fam.degree_bound == 2
        with pytest.raises(ValueError):
            union_family("empty", [])


class TestGraphConstructors:
    def test_cycle_graph(self):
        g = cycle_graph(5)
        assert (g.n, g.m) == (5, 5)
        assert all(g.degree(v) == 2 for v in g.nodes())
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_grid_graph(self):
        g = grid_graph(3, 4)
        assert (g.n, g.m) == (12, 3 * 3 + 2 * 4)
        assert g.max_degree() == 4
        with pytest.raises(ValueError):
            grid_graph(0, 3)

    def test_disjoint_union_offsets_and_inputs(self):
        a = path_graph(3, inputs=["a0", "a1", "a2"])
        b = path_graph(2, inputs=["b0", "b1"])
        u = disjoint_union([a, b, Graph(1, [], inputs=["c0"])])
        assert u.n == 6 and u.m == 3
        assert sorted(u.edges()) == [(0, 1), (1, 2), (3, 4)]
        assert u.inputs() == ["a0", "a1", "a2", "b0", "b1", "c0"]
        assert [len(c) for c in u.connected_components()] == [3, 2, 1]
        with pytest.raises(ValueError):
            disjoint_union([])
