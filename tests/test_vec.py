"""Differential tests pinning the array-form solver passes to per-node
Python oracles.

Each centralized solver pass (levels, the generic phases'
E-propagation, rake-and-compress, the oriented fast decomposition) has
one production body: a numpy sweep over the graph's CSR arrays, run at
every size.  This module keeps the per-node Python form of each pass as
its oracle and asserts the two are *identical* — outputs, rounds,
layers, iteration counts — over a corpus of families, sizes (the empty
graph included), restrictions and pins.  The two passes that only a
public entry reaches, ``generic_phases._propagate_exempt`` and
``fast_decomposition._oriented_decomposition``, are also swapped for
their oracle with ``monkeypatch.setattr`` on the module attribute and
compared end to end.
"""

import random

import numpy as np
import pytest

from repro.algorithms import fast_decomposition, generic_phases
from repro.algorithms.fast_decomposition import (
    _oriented_decomposition,
    run_fast_dfree,
)
from repro.algorithms.generic_phases import _commit, run_generic_fast_forward
from repro.algorithms.rake_compress import (
    Decomposition,
    _split_run,
    rake_compress,
    validate_decomposition,
)
from repro.families import get_family
from repro.lcl.dfree import A_INPUT, W_INPUT
from repro.lcl.hierarchical import B, D, E, W
from repro.lcl.levels import compute_levels
from repro.local import Graph, cycle_graph, disjoint_union, path_graph, random_ids
from repro.local import vec

TREEISH = ("path", "random_tree", "bounded_tree_d3", "caterpillar",
           "spider", "fragmented_forest")
ALL_SHAPES = TREEISH + ("cycle", "star", "grid", "complete_binary_tree")


def _instance(family, n, seed):
    """``family``'s instance, or the empty graph at ``n = 0``, which no
    family builds."""
    if n == 0:
        return Graph(0, [])
    return get_family(family).instance(n, seed, 0)


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


# ----------------------------------------------------------------------
# per-node oracles of the four solver passes
# ----------------------------------------------------------------------
def _compute_levels_py(graph, k, restrict=None):
    """``levels.compute_levels`` as a per-node peeling."""
    n = graph.n
    indptr, indices = graph.adjacency()
    if restrict is None:
        active = bytearray([1]) * n
    else:
        active = bytearray(n)
        for v in restrict:
            active[v] = 1

    level = [0] * n
    alive = bytearray(active)
    deg = [0] * n
    for v in range(n):
        if active[v]:
            deg[v] = sum(
                1 for i in range(indptr[v], indptr[v + 1]) if active[indices[i]]
            )

    remaining = [v for v in range(n) if active[v]]
    for i in range(1, k + 1):
        peel = [v for v in remaining if deg[v] <= 2]
        for v in peel:
            level[v] = i
            alive[v] = 0
        for v in peel:
            for j in range(indptr[v], indptr[v + 1]):
                w = indices[j]
                if alive[w]:
                    deg[w] -= 1
        remaining = [v for v in remaining if alive[v]]
    for v in remaining:
        level[v] = k + 1
    return level


def _propagate_exempt_py(graph, levels, alive, rounds, outputs, labeled, k,
                         start_time):
    """``generic_phases._propagate_exempt`` as a per-node scan of
    ``outputs``, which checks the caller's ``labeled`` list against it."""
    assert sorted(labeled) == [v for v in graph.nodes()
                               if outputs[v] in (W, B, E)]
    indptr, indices = graph.adjacency()
    step = 0
    while True:
        newly = []
        for v in graph.nodes():
            if not alive[v]:
                continue
            lv = levels[v]
            if lv < 2 or lv > k:
                continue
            for i in range(indptr[v], indptr[v + 1]):
                w = indices[i]
                if 0 < levels[w] < lv and outputs[w] in (W, B, E):
                    newly.append(v)
                    break
        if not newly:
            break
        for v in newly:
            _commit(v, E, start_time + step, rounds, outputs, alive)
        labeled.extend(newly)
        step += 1
        assert step <= k + 1, "E-propagation exceeded its window"


def _rake_compress_py(graph, gamma, ell, max_iterations=None, pinned=()):
    """``rake_compress.rake_compress`` as a sequential per-node removal."""
    n = graph.n
    budget = max_iterations if max_iterations is not None else n + 2

    pinned_set = set(pinned)
    alive = [True] * n
    deg = [
        graph.degree(v) + (1 if v in pinned_set else 0) for v in graph.nodes()
    ]
    step = np.full(n, -1, dtype=np.int64)
    compress_paths = {}
    remaining = n

    def remove(nodes, s):
        nonlocal remaining
        for v in nodes:
            alive[v] = False
            remaining -= 1
            for w in graph.neighbors(v):
                if alive[w]:
                    deg[w] -= 1
        step[nodes] = s

    i = 0
    while remaining > 0:
        i += 1
        if i > budget:
            raise RuntimeError("rake-and-compress exceeded its iteration budget")
        base = (i - 1) * (gamma + 1)
        # ---- gamma rake sublayers --------------------------------------
        for j in range(1, gamma + 1):
            low = [v for v in range(n) if alive[v] and deg[v] <= 1]
            # keep sublayers independent: drop the larger-handle endpoint
            # of any edge between two removable nodes
            chosen = set(low)
            for v in low:
                if v not in chosen:
                    continue
                for w in graph.neighbors(v):
                    if w in chosen and w > v:
                        chosen.discard(w)
            remove(sorted(chosen), base + j - 1)
            if remaining == 0:
                break
        if remaining == 0:
            break
        # ---- compress ---------------------------------------------------
        runs = vec.member_paths(graph, np.array(
            [alive[v] and deg[v] == 2 and v not in pinned_set
             for v in range(n)], dtype=bool,
        ))
        paths_here = []
        promoted = []
        for run in runs:
            if len(run) < ell:
                continue
            chunks, seps = _split_run(run, ell)
            paths_here.extend(chunks)
            promoted.extend(seps)
        remove([v for path in paths_here for v in path], base + gamma)
        remove(promoted, base + gamma + 1)
        if paths_here:
            compress_paths[i] = paths_here
        if not paths_here and not promoted and not any(
                alive[v] and deg[v] <= 1 for v in range(n)):
            raise RuntimeError(
                "decomposition stalled (neither rake nor compress applies)"
            )

    return Decomposition(
        graph=graph,
        gamma=gamma,
        ell=ell,
        step=step,
        compress_paths=compress_paths,
        num_iterations=i,
    )


def _oriented_decomposition_py(graph, members):
    """``fast_decomposition._oriented_decomposition`` as a per-node
    peeling."""
    alive = set(members)
    deg = {
        v: sum(1 for w in graph.neighbors(v) if w in members) for v in members
    }
    parent = {}
    iter_of = {}
    i = 0
    while alive:
        i += 1
        if i > graph.n + 2:
            raise RuntimeError("oriented decomposition exceeded budget")
        # rake
        low = [v for v in sorted(alive) if deg[v] <= 1]
        chosen = set(low)
        for v in low:
            if v not in chosen:
                continue
            for w in graph.neighbors(v):
                if w in chosen and w > v:
                    chosen.discard(w)
        for v in sorted(chosen):
            alive_nbrs = [w for w in graph.neighbors(v) if w in alive and w != v]
            alive_nbrs = [w for w in alive_nbrs if w not in chosen]
            parent[v] = alive_nbrs[0] if alive_nbrs else None
            iter_of[v] = i
            alive.discard(v)
            for w in graph.neighbors(v):
                if w in alive:
                    deg[w] -= 1
        if not alive:
            break
        # compress: runs of >= 3 degree-2 nodes; interiors unoriented
        run_mask = np.zeros(graph.n, dtype=bool)
        run_mask[sorted(v for v in alive if deg[v] == 2)] = True
        for run in vec.member_paths(graph, run_mask):
            if len(run) < 3:
                continue
            for v in run:
                parent[v] = None
                iter_of[v] = i
                alive.discard(v)
            for v in run:
                for w in graph.neighbors(v):
                    if w in alive:
                        deg[w] -= 1
    return parent, iter_of, i


class TestLevelsParity:
    @pytest.mark.parametrize("family", ALL_SHAPES)
    def test_full_graph(self, family):
        for n in (0, 1, 2, 16, 90, 300):
            g = _instance(family, n, 5)
            for k in (1, 2, 4):
                assert compute_levels(g, k) == _compute_levels_py(g, k), (
                    family, n, k)

    def test_restrict(self):
        rng = random.Random(3)
        for family in TREEISH:
            g = get_family(family).instance(150, 9, 0)
            restrict = [v for v in range(g.n) if rng.random() < 0.6]
            assert compute_levels(g, 3, restrict) == _compute_levels_py(
                g, 3, restrict), family


def _with_oracle(monkeypatch, module, name, oracle, fn):
    """``fn()`` run as is, then with ``module.name`` swapped for
    ``oracle``: both results."""
    result = fn()
    with monkeypatch.context() as patch:
        patch.setattr(module, name, oracle)
        return result, fn()


class TestGenericPhasesParity:
    @pytest.mark.parametrize("variant", ["2.5", "3.5"])
    def test_full_trace(self, variant, monkeypatch):
        # at k = 2 some trees keep level-2 paths alive into phase k, so
        # the traces also compare which level-k nodes the E-propagation
        # before phase k left for it to colour
        phase_k_coloured = 0
        for k, gammas in ((3, [3, 5]), (2, [3])):
            for family in ("path", "random_tree", "caterpillar",
                           "fragmented_forest"):
                for n in (0, 2, 40, 250):
                    g = _instance(family, n, 13)
                    ids = random_ids(g.n, rng=random.Random(n)) if g.n else []
                    a, b = _with_oracle(
                        monkeypatch, generic_phases, "_propagate_exempt",
                        _propagate_exempt_py,
                        lambda: run_generic_fast_forward(
                            g, ids, k, gammas, variant))
                    assert a.rounds == b.rounds, (family, n, k, variant)
                    assert a.outputs == b.outputs, (family, n, k, variant)
                    levels = compute_levels(g, k)
                    phase_k_coloured += sum(
                        levels[v] == k and a.outputs[v] not in (D, E)
                        for v in g.nodes())
        assert phase_k_coloured > 0

    def test_restrict_and_offset(self, monkeypatch):
        g = get_family("random_tree").instance(200, 4, 0)
        ids = random_ids(g.n, rng=random.Random(8))
        restrict = [v for v in range(g.n) if v % 3 != 0]
        a, b = _with_oracle(
            monkeypatch, generic_phases, "_propagate_exempt",
            _propagate_exempt_py,
            lambda: run_generic_fast_forward(
                g, ids, 3, [3, 5], "2.5", restrict=restrict, time_offset=7))
        assert a.rounds == b.rounds
        assert a.outputs == b.outputs


class TestRakeCompressParity:
    @pytest.mark.parametrize("gamma,ell", [(1, 2), (1, 3), (2, 2), (3, 4)])
    def test_decomposition_identical(self, gamma, ell):
        rng = random.Random(gamma * 10 + ell)
        for family in TREEISH:
            for n in (0, 1, 2, 30, 200):
                g = _instance(family, n, 2)
                # pin at most one node: pinning both endpoints of a 2-node
                # component would (correctly) stall either implementation
                pinned = [rng.randrange(g.n)] if g.n > 2 else []
                a = rake_compress(g, gamma, ell, pinned=pinned)
                b = _rake_compress_py(g, gamma, ell, pinned=pinned)
                assert a.layer_of == b.layer_of, (family, n)
                assert a.step.tolist() == b.step.tolist(), (family, n)
                assert a.compress_paths == b.compress_paths, (family, n)
                assert a.num_iterations == b.num_iterations, (family, n)
                assert validate_decomposition(a) == []


class TestFastDecompositionParity:
    def test_oriented_decomposition(self):
        rng = random.Random(3)
        for family in TREEISH:
            for n in (0, 1, 2, 8, 50, 300):
                g = _instance(family, n, 17)
                if not g.is_forest():
                    continue
                for frac in (1.0, 0.7, 0.3):
                    members = {
                        v for v in range(g.n) if rng.random() < frac
                    }
                    a = _oriented_decomposition(g, set(members))
                    b = _oriented_decomposition_py(g, set(members))
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
            a, b = _with_oracle(
                monkeypatch, fast_decomposition, "_oriented_decomposition",
                _oriented_decomposition_py, lambda: run_fast_dfree(gi, 3))
            assert a.outputs == b.outputs
            assert a.rounds == b.rounds
            assert a.copy_component_of == b.copy_component_of
            assert a.iterations == b.iterations


class TestCsrArrays:
    def test_csr_arrays_zero_copy(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        indptr, indices = vec.csr_arrays(g)
        assert indptr.tolist() == list(g.adjacency()[0])
        assert indices.tolist() == list(g.adjacency()[1])
        for arr in (indptr, indices):
            with pytest.raises(ValueError):
                arr[0] = 7
        assert list(g.adjacency()[1])[0] == 1
