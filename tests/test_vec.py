"""Differential tests pinning the array-form solver ports to their
per-node Python twins.

Every vectorized solver (levels, generic phases, rake-and-compress, the
oriented fast decomposition) dispatches on ``vec.use_vector_path(n)``;
these tests force each path in turn by monkeypatching
``vec.VEC_MIN_NODES`` and assert the results are *identical* — outputs,
rounds, layers, iteration counts — over a corpus of families, sizes,
restrictions and pins.  The Python twins are the oracles; the numpy
sweeps must be observationally indistinguishable from them.
"""

import random

import pytest

from repro.algorithms.fast_decomposition import (
    _oriented_decomposition_np,
    _oriented_decomposition_py,
    run_fast_dfree,
)
from repro.algorithms.generic_phases import run_generic_fast_forward
from repro.algorithms.rake_compress import (
    rake_compress,
    validate_decomposition,
)
from repro.families import get_family
from repro.lcl.dfree import A_INPUT, W_INPUT
from repro.lcl.levels import compute_levels
from repro.local import Graph, cycle_graph, disjoint_union, path_graph, random_ids
from repro.local import vec

TREEISH = ("path", "random_tree", "bounded_tree_d3", "caterpillar",
           "spider", "fragmented_forest")
ALL_SHAPES = TREEISH + ("cycle", "star", "grid", "complete_binary_tree")


def force_vector(monkeypatch):
    monkeypatch.setattr(vec, "VEC_MIN_NODES", 0)


def force_python(monkeypatch):
    monkeypatch.setattr(vec, "VEC_MIN_NODES", 10**18)


def both_paths(monkeypatch, fn):
    """Run ``fn()`` once per dispatch path and return both results."""
    force_vector(monkeypatch)
    vec_result = fn()
    force_python(monkeypatch)
    py_result = fn()
    return vec_result, py_result


class TestMemberPaths:
    @pytest.mark.parametrize("family", TREEISH)
    def test_matches_degree_filtered_components(self, family):
        # member_paths must return components ascending by smallest
        # member, each ordered from its smaller endpoint
        rng = random.Random(7)
        for n in (1, 2, 17, 120):
            g = get_family(family).instance(n, 23, 0)
            for frac in (1.0, 0.5, 0.15):
                member = [rng.random() < frac for _ in range(g.n)]
                try:
                    paths = vec.member_paths(g, _np_bool(member))
                except ValueError:
                    # some member node has >2 member neighbours; verify
                    induced = _induced_degrees_py(g, member)
                    assert max(induced[v] for v in range(g.n)
                               if member[v]) > 2
                    continue
                _assert_member_paths(g, member, paths)

    def test_sparse_masks_of_a_large_tree(self):
        g = get_family("random_tree").instance(10**5, 3, 0)
        u = 4321
        v = g.neighbors(u)[0]
        picks = random.Random(11).sample(range(g.n), 32)
        for chosen in ([], [u], [u, v], picks):
            member = [False] * g.n
            for w in chosen:
                member[w] = True
            paths = vec.member_paths(g, _np_bool(member))
            _assert_member_paths(g, member, paths)
        assert vec.member_paths(g, _np_bool([False] * g.n)) == []
        assert vec.member_paths(g, _np_bool(
            [w == u for w in range(g.n)])) == [[u]]
        pair = [w in (u, v) for w in range(g.n)]
        assert vec.member_paths(g, _np_bool(pair)) == [sorted((u, v))]

    def test_raises_on_non_path_component(self):
        g = get_family("star").instance(6, 0, 0)
        with pytest.raises(ValueError):
            vec.member_paths(g, _np_bool([True] * g.n))

    @pytest.mark.parametrize("g", [
        cycle_graph(6),
        cycle_graph(3),
        disjoint_union([path_graph(3), cycle_graph(5)]),
    ], ids=["cycle6", "cycle3", "path3+cycle5"])
    def test_raises_on_cycle_component(self, g):
        # every member of a cycle has two member neighbours, so the walk
        # finds no endpoint and must notice that it came back round
        with pytest.raises(ValueError):
            vec.member_paths(g, _np_bool([True] * g.n))
        # the last node lies on the cycle: without it, all are paths
        member = [v < g.n - 1 for v in range(g.n)]
        _assert_member_paths(g, member, vec.member_paths(g, _np_bool(member)))


def _assert_member_paths(g, member, paths):
    """The checks that determine ``member_paths``' output: every member
    lies on exactly one path, each path is a maximal run of adjacent
    members ordered from its smaller endpoint, and paths ascend by their
    smallest member."""
    members = {v for v in range(g.n) if member[v]}
    seen = set()
    for path in paths:
        on_path = set(path)
        for u in path:
            assert member[u]
            assert u not in seen
            seen.add(u)
            # maximal: no member neighbour lies off the path
            assert {w for w in g.neighbors(u) if member[w]} <= on_path
        for a, b in zip(path, path[1:]):
            assert b in g.neighbors(a)
        if len(path) > 1:
            assert path[0] <= path[-1]
    assert seen == members
    firsts = [min(p) for p in paths]
    assert firsts == sorted(firsts)


def _np_bool(mask):
    return vec.np.asarray(mask, dtype=bool)


def _induced_degrees_py(g, member):
    return [
        sum(1 for w in g.neighbors(v) if member[w]) for v in range(g.n)
    ]


class TestLevelsParity:
    @pytest.mark.parametrize("family", ALL_SHAPES)
    def test_full_graph(self, family, monkeypatch):
        for n in (1, 2, 16, 90, 300):
            g = get_family(family).instance(n, 5, 0)
            for k in (1, 2, 4):
                a, b = both_paths(
                    monkeypatch, lambda: compute_levels(g, k)
                )
                assert a == b, (family, n, k)

    def test_restrict(self, monkeypatch):
        rng = random.Random(3)
        for family in TREEISH:
            g = get_family(family).instance(150, 9, 0)
            restrict = [v for v in range(g.n) if rng.random() < 0.6]
            a, b = both_paths(
                monkeypatch, lambda: compute_levels(g, 3, restrict)
            )
            assert a == b, family


class TestGenericPhasesParity:
    @pytest.mark.parametrize("variant", ["2.5", "3.5"])
    def test_full_trace(self, variant, monkeypatch):
        for family in ("path", "random_tree", "caterpillar",
                       "fragmented_forest"):
            for n in (2, 40, 250):
                g = get_family(family).instance(n, 13, 0)
                ids = random_ids(g.n, rng=random.Random(n))
                a, b = both_paths(monkeypatch, lambda: run_generic_fast_forward(
                    g, ids, 3, [3, 5], variant))
                assert a.rounds == b.rounds, (family, n, variant)
                assert a.outputs == b.outputs, (family, n, variant)

    def test_restrict_and_offset(self, monkeypatch):
        g = get_family("random_tree").instance(200, 4, 0)
        ids = random_ids(g.n, rng=random.Random(8))
        restrict = [v for v in range(g.n) if v % 3 != 0]
        a, b = both_paths(monkeypatch, lambda: run_generic_fast_forward(
            g, ids, 3, [3, 5], "2.5", restrict=restrict, time_offset=7))
        assert a.rounds == b.rounds
        assert a.outputs == b.outputs


class TestRakeCompressParity:
    @pytest.mark.parametrize("gamma,ell", [(1, 2), (1, 3), (2, 2), (3, 4)])
    def test_decomposition_identical(self, gamma, ell, monkeypatch):
        rng = random.Random(gamma * 10 + ell)
        for family in TREEISH:
            for n in (1, 2, 30, 200):
                g = get_family(family).instance(n, 2, 0)
                # pin at most one node: pinning both endpoints of a 2-node
                # component would (correctly) stall either implementation
                pinned = [rng.randrange(g.n)] if g.n > 2 else []
                a, b = both_paths(monkeypatch, lambda: rake_compress(
                    g, gamma, ell, pinned=pinned))
                assert a.layer_of == b.layer_of, (family, n)
                assert a.step.tolist() == b.step.tolist(), (family, n)
                assert a.compress_paths == b.compress_paths, (family, n)
                assert a.num_iterations == b.num_iterations, (family, n)
                assert validate_decomposition(a) == []


class TestFastDecompositionParity:
    def test_oriented_decomposition(self):
        rng = random.Random(3)
        for family in TREEISH:
            for n in (1, 2, 8, 50, 300):
                g = get_family(family).instance(n, 17, 0)
                if not g.is_forest():
                    continue
                for frac in (1.0, 0.7, 0.3):
                    members = {
                        v for v in range(g.n) if rng.random() < frac
                    }
                    a = _oriented_decomposition_py(g, set(members))
                    b = _oriented_decomposition_np(g, set(members))
                    assert a == b, (family, n, frac)

    def test_run_fast_dfree_end_to_end(self, monkeypatch):
        for seed in range(6):
            rng = random.Random(seed)
            g = get_family("bounded_tree_d3").instance(
                rng.randint(3, 400), seed, 0)
            inputs = [
                A_INPUT if rng.random() < 0.1 else W_INPUT
                for _ in range(g.n)
            ]
            gi = g.with_inputs(inputs)
            a, b = both_paths(monkeypatch, lambda: run_fast_dfree(gi, 3))
            assert a.outputs == b.outputs
            assert a.rounds == b.rounds
            assert a.copy_component_of == b.copy_component_of
            assert a.iterations == b.iterations


class TestDispatch:
    def test_use_vector_path_threshold(self, monkeypatch):
        monkeypatch.setattr(vec, "VEC_MIN_NODES", 100)
        assert vec.use_vector_path(100) is True
        assert vec.use_vector_path(99) is False

    def test_csr_arrays_zero_copy(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        indptr, indices = vec.csr_arrays(g)
        assert indptr.tolist() == list(g.adjacency()[0])
        assert indices.tolist() == list(g.adjacency()[1])
        for arr in (indptr, indices):
            with pytest.raises(ValueError):
                arr[0] = 7
        assert list(g.adjacency()[1])[0] == 1
