"""Engine equivalence: ``batched`` vs its ``reference`` oracle.

The contract (see :class:`repro.local.simulator.LocalSimulator`) is that
both engines are observationally identical: same ``(T_v, output)`` maps
on every graph, algorithm and ID assignment.  This suite pins it over a
seeded corpus covering all algorithm formulations — view-based (native
``decide_batch``; with only ``decide``, both engines run the reference
loop), message-passing (vectorized ``decide_batch`` and global dynamics
vs the causal-cone oracle) and pure batched — plus the one dispatch
both engines share and the CSR substrate invariants the batched engine
leans on (ball equality with a naive BFS, networkx round-trips).
"""

import random
from collections import deque

import numpy as np
import pytest

from repro.algorithms import (
    CanonicalTwoColoring,
    ColeVishkin3Coloring,
    DFreeAlgorithmA,
    GenericPhaseColoring,
    RakeCompressLayering,
    WaitForWholeGraph,
    default_gammas_25,
    default_gammas_35,
)
from repro.lcl.dfree import A_INPUT, W_INPUT
from repro.local import (
    CONTINUE,
    ENGINES,
    BatchedAlgorithm,
    Graph,
    LocalAlgorithm,
    LocalSimulator,
    MessageAlgorithm,
    balanced_tree,
    cycle_graph,
    from_networkx,
    path_graph,
    random_ids,
    star_graph,
    to_networkx,
)


def corpus():
    """Seeded (name, graph) instances: paths, cycles, stars, trees."""
    rng = random.Random(20240722)
    cases = [
        ("path2", path_graph(2)),
        ("path9", path_graph(9)),
        ("path24", path_graph(24)),
        ("cycle11", cycle_graph(11)),
        ("star6", star_graph(6)),
        ("btree2x3", balanced_tree(2, 3)),
        ("btree3x2", balanced_tree(3, 2)),
        ("forest", Graph(10, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8)])),
    ]
    return [(name, g, random_ids(g.n, rng=rng)) for name, g in cases]


CORPUS = corpus()
PATH_CORPUS = [(name, g, ids) for name, g, ids in CORPUS if g.max_degree() <= 2]
FOREST_CORPUS = [(name, g, ids) for name, g, ids in CORPUS if g.is_forest()]


class FirstVisibleOutput(LocalAlgorithm):
    """Causality probe: min-ID node commits at round 0; everyone else
    commits the round some output becomes causally visible."""

    name = "first-visible-output"

    def decide(self, view, n):
        me = view.center
        if view.id_of(me) == min(view.id_of(u) for u in view.nodes()):
            if view.sees_whole_component() or len(view.nodes()) == n:
                return "root"
            return CONTINUE
        for u in view.nodes():
            if u != me and view.output_of(u) is not None:
                return view.round
        return CONTINUE


def _solve_degrees(graph, ids):
    return [graph.degree(v) for v in graph.nodes()]


def view_algorithms():
    return [
        CanonicalTwoColoring(),
        WaitForWholeGraph(_solve_degrees),
        FirstVisibleOutput(),
    ]


def per_node(algorithm):
    """``algorithm`` with ``decide_batch`` hidden: the batched engine then
    runs its per-node form — ``decide`` through the reference loop, or
    the message hooks through the global dynamics."""
    algorithm.decide_batch = None
    return algorithm


def assert_equivalent(graph, make_algorithm, ids):
    """Run the batched engine — natively and, for a message algorithm
    with ``decide_batch``, with it hidden, so that the global message
    dynamics run — and require (T_v, output) maps identical to the
    reference oracle; returns the reference and native batched traces.
    A view algorithm with ``decide_batch`` hidden would run the
    reference loop itself, so it gets no second run."""
    ref = LocalSimulator(engine="reference").run(graph, make_algorithm(), ids)
    bat = LocalSimulator(engine="batched").run(graph, make_algorithm(), ids)
    runs = [("batched", bat)]
    algorithm = make_algorithm()
    if isinstance(algorithm, MessageAlgorithm) and callable(
        getattr(algorithm, "decide_batch", None)
    ):
        runs.append(("per-node", LocalSimulator(engine="batched").run(
            graph, per_node(algorithm), ids)))
    for form, tr in runs:
        assert tr.rounds == ref.rounds, form
        assert tr.outputs == ref.outputs, form
        assert tr.meta["engine"] == "batched"
    return ref, bat


class TestViewEngineEquivalence:
    @pytest.mark.parametrize("name,graph,ids", CORPUS, ids=[c[0] for c in CORPUS])
    def test_view_algorithms(self, name, graph, ids):
        for algo in view_algorithms():
            assert_equivalent(graph, lambda a=algo: a, ids)

    def test_engine_recorded_in_meta(self):
        g = path_graph(5)
        tr = LocalSimulator(engine="reference").run(g, CanonicalTwoColoring())
        assert tr.meta["engine"] == "reference"
        tr = LocalSimulator().run(g, CanonicalTwoColoring())
        assert tr.meta["engine"] == "batched"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            LocalSimulator(engine="warp")

    def test_batched_is_the_default_and_incremental_is_gone(self):
        from repro.sweep import SweepRunner, main

        assert ENGINES == ("batched", "reference")
        assert LocalSimulator().engine == "batched"
        with pytest.raises(ValueError):
            LocalSimulator(engine="incremental")
        with pytest.raises(ValueError):
            SweepRunner(engine="incremental")
        with pytest.raises(SystemExit) as err:
            main(["--family", "path", "--sizes", "8", "--engine",
                  "incremental"])
        assert err.value.code == 2  # an argparse usage error

    @pytest.mark.parametrize(
        "make", [lambda: per_node(CanonicalTwoColoring()), FirstVisibleOutput],
        ids=["two-coloring-per-node", "first-visible-output"])
    def test_adapter_never_sweeps_the_shared_frontier(self, make, monkeypatch):
        # a view algorithm without decide_batch runs the reference loop
        # on the batched engine too: no frontier scheduler is built
        from repro.local import frontier

        schedulers = []
        init = frontier.FrontierScheduler.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            schedulers.append(self)

        monkeypatch.setattr(frontier.FrontierScheduler, "__init__",
                            recording_init)
        name, graph, ids = CORPUS[2]  # path24
        tr = LocalSimulator().run(graph, make(), ids)
        ref = LocalSimulator(engine="reference").run(graph, make(), ids)
        assert tr.rounds == ref.rounds and tr.outputs == ref.outputs
        assert max(tr.rounds) > 1
        assert schedulers == []

    def test_no_hook_raises_the_same_type_error_on_both_engines(self):
        class Hookless(BatchedAlgorithm):
            name = "hookless"
            decide_batch = None

        messages = set()
        for engine in ENGINES:
            with pytest.raises(TypeError) as err:
                LocalSimulator(engine=engine).run(path_graph(3), Hookless())
            messages.add(str(err.value))
        assert messages == {
            "hookless implements neither decide nor decide_batch"}


class TestMessageEngineEquivalence:
    @pytest.mark.parametrize(
        "name,graph,ids", PATH_CORPUS, ids=[c[0] for c in PATH_CORPUS]
    )
    def test_cole_vishkin(self, name, graph, ids):
        assert_equivalent(graph, ColeVishkin3Coloring, ids)

    @pytest.mark.parametrize("variant", ["2.5", "3.5"])
    def test_generic_phases(self, variant):
        k = 2
        for name, graph, ids in [CORPUS[1], CORPUS[4]]:
            gammas = (
                default_gammas_25(graph.n, k)
                if variant == "2.5"
                else default_gammas_35(graph.n, k)
            )
            assert_equivalent(
                graph, lambda: GenericPhaseColoring(k, gammas, variant), ids
            )


def _dfree_instance(n, seed, frac=0.2):
    """Random tree with A/W inputs — a d-free weight instance."""
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    inputs = [A_INPUT if rng.random() < frac else W_INPUT for _ in range(n)]
    return Graph(n, edges, inputs)


class _AllAtRoundOne(BatchedAlgorithm):
    """Pure batched algorithm (no per-node form): everyone commits its
    ball size at round 1 — exercises the native decide_batch dispatch."""

    name = "all-at-round-one"

    def decide_batch(self, views, live, t):
        if t < 1:
            return (), ()
        return live, views.ball_sizes()[live]


class _DoubleCommitter(BatchedAlgorithm):
    name = "double-committer"

    def decide_batch(self, views, live, t):
        return [live[0], live[0]], [0, 1]


class _OutOfRangeCommitter(BatchedAlgorithm):
    name = "out-of-range-committer"

    def __init__(self, v):
        self._v = v

    def decide_batch(self, views, live, t):
        return [self._v], [0]


class _Returns(BatchedAlgorithm):
    """Returns ``decided[t]`` in round ``t`` (the last entry from then
    on): drives the engine's commit validation with arbitrary returns."""

    name = "returns"

    def __init__(self, *decided):
        self._decided = decided

    def decide_batch(self, views, live, t):
        return self._decided[min(t, len(self._decided) - 1)]


class TestBatchedEngine:
    """Batched-engine specifics beyond the shared corpus."""

    @pytest.mark.parametrize(
        "name,graph,ids", FOREST_CORPUS, ids=[c[0] for c in FOREST_CORPUS]
    )
    def test_rake_compress_layering(self, name, graph, ids):
        for gamma, ell in ((1, 2), (2, 3)):
            assert_equivalent(
                graph, lambda: RakeCompressLayering(gamma=gamma, ell=ell), ids
            )

    @pytest.mark.parametrize("n,seed", [(12, 0), (25, 3), (40, 7)])
    def test_dfree_algorithm_a(self, n, seed):
        graph = _dfree_instance(n, seed)
        ids = random_ids(n, rng=random.Random(seed))
        ref, bat = assert_equivalent(graph, lambda: DFreeAlgorithmA(d=1), ids)
        # the whole network commits at the common round R = 3L + 3
        assert len(set(ref.rounds)) == 1

    def test_decide_batch_is_used_not_the_adapter(self):
        class Probe(CanonicalTwoColoring):
            def decide(self, view, n):  # pragma: no cover - must not run
                raise AssertionError("batched engine fell back to decide()")

        g = balanced_tree(2, 3)
        tr = LocalSimulator(engine="batched").run(g, Probe())
        ref = LocalSimulator(engine="reference").run(g, CanonicalTwoColoring())
        assert tr.rounds == ref.rounds and tr.outputs == ref.outputs

    def test_pure_batched_algorithm_runs_on_batched_only(self):
        g = path_graph(5)
        tr = LocalSimulator(engine="batched").run(g, _AllAtRoundOne())
        assert tr.rounds == [1] * 5
        # ball sizes at round 1 on a path: 2 at the ends, 3 inside
        assert tr.outputs == [2, 3, 3, 3, 2]
        with pytest.raises(TypeError):
            LocalSimulator(engine="reference").run(g, _AllAtRoundOne())

    def test_double_commit_raises(self):
        from repro.local import SimulationError

        with pytest.raises(SimulationError):
            LocalSimulator(engine="batched").run(path_graph(4), _DoubleCommitter())

    def test_commit_in_a_later_round_raises(self):
        # node 0 commits in round 0 and again in round 1
        from repro.local import SimulationError

        algo = _Returns(([0], ["x"]), ([0, 1], ["y", "z"]))
        with pytest.raises(SimulationError,
                           match=r"node 0 committed twice \(round 1\)"):
            LocalSimulator(engine="batched").run(path_graph(4), algo)

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]])
    def test_misaligned_labels_raise(self, labels):
        from repro.local import SimulationError

        algo = _Returns((np.array([0, 1]), labels))
        with pytest.raises(SimulationError, match="labels"):
            LocalSimulator(engine="batched").run(path_graph(4), algo)

    @pytest.mark.parametrize(
        "nodes", [[1.0], np.array([1.0]), np.array([True]), [[0, 1]]],
        ids=["float-list", "float-array", "bool-array", "2-d"])
    def test_non_integer_handles_raise(self, nodes):
        # a float handle must be rejected, never truncated to node 1
        from repro.local import SimulationError

        algo = _Returns((nodes, ["a"]))
        with pytest.raises(SimulationError, match="integer"):
            LocalSimulator(engine="batched").run(path_graph(4), algo)

    @pytest.mark.parametrize("decided", [[], [(0, "a")], ((0, 1, 2), "ab", "c")],
                             ids=["empty-list", "one-pair", "triple"])
    def test_non_pair_return_raises(self, decided):
        from repro.local import SimulationError

        with pytest.raises(SimulationError, match="pair"):
            LocalSimulator(engine="batched").run(
                path_graph(4), _Returns(decided))

    @pytest.mark.parametrize(
        "empty", [((), ()), ([], []), (np.empty(0, dtype=np.int64), [])],
        ids=["tuples", "lists", "array"])
    def test_empty_return_continues(self, empty):
        # every round but the third commits nothing; the whole graph
        # commits at round 2
        everyone = (np.arange(4), np.array([7, 8, 9, 10]))
        tr = LocalSimulator(engine="batched").run(
            path_graph(4), _Returns(empty, empty, everyone))
        assert tr.rounds == [2, 2, 2, 2]
        assert tr.outputs == [7, 8, 9, 10]
        assert all(type(x) is int for x in tr.outputs)

    def test_any_two_sequence_is_a_pair(self):
        # a traced decide_batch hands the engine a 2-list, not a tuple
        tr = LocalSimulator(engine="batched").run(
            path_graph(3), _Returns([np.array([2, 0, 1]), ["c", "a", "b"]]))
        assert tr.rounds == [0, 0, 0] and tr.outputs == ["a", "b", "c"]

    def test_live_is_a_sealed_sorted_int64_array(self):
        seen = []

        class Probe(BatchedAlgorithm):
            name = "probe"

            def decide_batch(self, views, live, t):
                seen.append(live)
                with pytest.raises(ValueError):
                    live[0] = 0
                return live[::2], [t] * len(live[::2])

        tr = LocalSimulator(engine="batched").run(path_graph(5), Probe())
        assert [s.tolist() for s in seen] == [[0, 1, 2, 3, 4], [1, 3], [3]]
        assert all(s.dtype == np.int64 for s in seen)
        assert tr.rounds == [0, 1, 0, 2, 0]

    @pytest.mark.parametrize("v", [-1, 4, 99])
    def test_out_of_range_commit_raises(self, v):
        # a negative index must not silently alias node n-1
        from repro.local import SimulationError

        with pytest.raises(SimulationError):
            LocalSimulator(engine="batched").run(
                path_graph(4), _OutOfRangeCommitter(v))

    def test_budget_error_identical_on_dynamics_fallback(self):
        # a caller-supplied max_rounds must produce the exact same
        # SimulationError on every engine, including the batched engine's
        # inner-dynamics schedule derivation on non-forest inputs
        from repro.local import SimulationError, disjoint_union

        g = disjoint_union([path_graph(7), cycle_graph(6)])
        ids = random_ids(g.n, rng=random.Random(1))
        gammas = default_gammas_25(g.n, 2)
        messages = set()
        for engine in ENGINES:
            with pytest.raises(SimulationError) as err:
                LocalSimulator(max_rounds=3, engine=engine).run(
                    g, GenericPhaseColoring(2, gammas, "2.5"), ids)
            messages.add(str(err.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("variant", ["2.5", "3.5"])
    def test_generic_phases_on_cycle_components(self, variant):
        # the fast-forward replay is undefined on cycles; the batched
        # engine must fall back to the global dynamics and stay identical
        # to the other engines on the full input domain
        from repro.local import disjoint_union

        g = disjoint_union([path_graph(7), cycle_graph(6), Graph(1, [])])
        ids = random_ids(g.n, rng=random.Random(13))
        k = 2
        gammas = (default_gammas_25(g.n, k) if variant == "2.5"
                  else default_gammas_35(g.n, k))
        assert_equivalent(
            g, lambda: GenericPhaseColoring(k, gammas, variant), ids
        )

    @pytest.mark.parametrize("g", [path_graph(4), cycle_graph(5)],
                             ids=["path4", "cycle5"])
    def test_cole_vishkin_ids_beyond_int64(self, g):
        # no int64 array of these IDs exists: decide_batch streams the
        # global message dynamics, also between small-ID samples
        big = [2**63, 5, 7, 2**64 + 3, 9][:g.n]
        samples = [big, random_ids(g.n, rng=random.Random(3)), big]
        ref = LocalSimulator(engine="reference").run_batch(
            g, ColeVishkin3Coloring(), samples)
        for engine in ENGINES:
            tr = LocalSimulator(engine=engine).run(
                g, ColeVishkin3Coloring(), big)
            assert (tr.rounds, tr.outputs) == (ref[0].rounds, ref[0].outputs)
            batch = LocalSimulator(engine=engine).run_batch(
                g, ColeVishkin3Coloring(), samples)
            assert [(t.rounds, t.outputs) for t in batch] == [
                (t.rounds, t.outputs) for t in ref]

    def test_message_algorithm_without_decide_batch_falls_back(self):
        g = path_graph(11)
        ids = random_ids(11, rng=random.Random(2))
        ref = LocalSimulator(engine="reference").run(g, ColeVishkin3Coloring(), ids)
        tr = LocalSimulator(engine="batched").run(
            g, per_node(ColeVishkin3Coloring()), ids)
        assert tr.rounds == ref.rounds and tr.outputs == ref.outputs


class TestIdValidation:
    def test_non_integer_ids_raise_the_same_error_on_every_engine(self):
        # the batched engine's int64 arrays would truncate these to
        # [2, 2, 3, 3] and return an improper colouring
        messages = set()
        for engine in ENGINES:
            with pytest.raises(ValueError) as err:
                LocalSimulator(engine=engine).run(
                    path_graph(4), ColeVishkin3Coloring(),
                    [2.2, 2.7, 3.1, 3.9])
            messages.add(str(err.value))
        assert messages == {"IDs must be integers, got 2.2"}


class TestRunBatch:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_batch_matches_individual_runs(self, engine):
        g = balanced_tree(2, 3)
        rng = random.Random(7)
        samples = [random_ids(g.n, rng=rng) for _ in range(4)]
        batch = LocalSimulator(engine=engine).run_batch(
            g, CanonicalTwoColoring(), samples)
        for ids, tr in zip(samples, batch):
            solo = LocalSimulator().run(g, CanonicalTwoColoring(), ids)
            assert tr.rounds == solo.rounds and tr.outputs == solo.outputs

    @pytest.mark.parametrize("engine", ENGINES)
    def test_batch_resets_per_run_caches(self, engine):
        g = path_graph(6)
        samples = [[6, 5, 4, 3, 2, 1], [1, 2, 3, 4, 5, 6]]
        batch = LocalSimulator(engine=engine).run_batch(
            g, WaitForWholeGraph(_ids_as_outputs), samples)
        assert batch[0].outputs == samples[0]
        assert batch[1].outputs == samples[1]


def _ids_as_outputs(graph, ids):
    return list(ids)


class TestWaitForWholeGraphComponents:
    def test_each_component_solves_with_own_ids(self):
        # regression: the centralized-solve memo must be per component —
        # a shared memo would hand component {3,4} outputs computed from
        # component {0,1,2}'s zero-padded ID vector
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        ids = [10, 11, 12, 13, 14]
        for engine in ENGINES:
            tr = LocalSimulator(engine=engine).run(
                g, WaitForWholeGraph(_ids_as_outputs), ids
            )
            assert tr.outputs == ids, engine

    def test_view_ball_is_read_only_on_both_engines(self):
        class Mutator(LocalAlgorithm):
            name = "mutator"

            def decide(self, view, n):
                view.nodes()[view.center] = 99
                return 0

        for engine in ENGINES:
            with pytest.raises(TypeError):
                LocalSimulator(engine=engine).run(path_graph(3), Mutator())


def naive_ball(graph, v, radius):
    """Dict/deque BFS ball — the pre-CSR implementation, kept as oracle."""
    dist = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du == radius:
            continue
        for w in graph.neighbors(u):
            if w not in dist:
                dist[w] = du + 1
                queue.append(w)
    return dist


class TestCSRSubstrate:
    @pytest.mark.parametrize("name,graph,ids", CORPUS, ids=[c[0] for c in CORPUS])
    def test_ball_matches_naive_bfs(self, name, graph, ids):
        for v in range(0, graph.n, 2):
            for radius in (0, 1, 2, graph.n):
                assert graph.ball(v, radius) == naive_ball(graph, v, radius)

    def test_networkx_roundtrip_preserves_csr(self):
        g = balanced_tree(3, 2).with_inputs(
            [f"in{v}" for v in range(balanced_tree(3, 2).n)]
        )
        back = from_networkx(to_networkx(g))
        assert back.n == g.n and back.m == g.m
        assert sorted(map(tuple, back.edges())) == sorted(map(tuple, g.edges()))
        assert back.inputs() == g.inputs()
        for v in range(g.n):
            assert back.ball(v, 2) == g.ball(v, 2)

    def test_adjacency_slices_match_neighbors(self):
        g = balanced_tree(2, 4)
        indptr, indices = g.adjacency()
        for v in range(g.n):
            assert tuple(indices[indptr[v]:indptr[v + 1]]) == g.neighbors(v)
            assert indptr[v + 1] - indptr[v] == g.degree(v)

    def test_bfs_layers(self):
        g = path_graph(5)
        layers = list(g.bfs_layers([2]))
        assert layers == [[2], [1, 3], [0, 4]]
        assert list(g.bfs_layers([0, 4])) == [[0, 4], [1, 3], [2]]


class TestScheduleReplay:
    """``ScheduleReplay`` wraps a fast-forward solver as a batched
    algorithm: the batched engine's trace must equal the fast-forward
    trace exactly, with no other engine accepting the wrapper."""

    def _weighted25(self):
        from repro.families import weighted_construction_graph

        return weighted_construction_graph(60, 5, 2, 2, "poly")

    def test_apoly_replay_matches_fast_forward(self):
        from repro.algorithms import replay_apoly, run_apoly

        g = self._weighted25()
        ids = random_ids(g.n, rng=random.Random(11))
        ff = run_apoly(g, list(ids), 5, 2, 2)
        tr = LocalSimulator(engine="batched").run(
            g, replay_apoly(5, 2, 2), ids=ids)
        assert tr.rounds == ff.rounds
        assert tr.outputs == ff.outputs

    def test_weighted35_replay_matches_fast_forward(self):
        from repro.algorithms import replay_weighted35, run_weighted35
        from repro.families import weighted_construction_graph

        g = weighted_construction_graph(60, 6, 3, 2, "logstar")
        ids = random_ids(g.n, rng=random.Random(12))
        ff = run_weighted35(g, list(ids), 6, 3, 2)
        tr = LocalSimulator(engine="batched").run(
            g, replay_weighted35(6, 3, 2), ids=ids)
        assert tr.rounds == ff.rounds
        assert tr.outputs == ff.outputs

    def test_replay_rejects_per_node_engines(self):
        from repro.algorithms import replay_apoly

        g = self._weighted25()
        with pytest.raises(TypeError):
            LocalSimulator(engine="reference").run(g, replay_apoly(5, 2, 2))

    def test_run_batch_recomputes_per_sample(self):
        # run_batch reuses one algorithm instance across ID samples; the
        # cached trace must be invalidated when the IDs change
        from repro.algorithms import replay_apoly, run_apoly

        g = self._weighted25()
        samples = [random_ids(g.n, rng=random.Random(s)) for s in (1, 2, 3)]
        traces = LocalSimulator(engine="batched").run_batch(
            g, replay_apoly(5, 2, 2), samples)
        for ids, tr in zip(samples, traces):
            ff = run_apoly(g, list(ids), 5, 2, 2)
            assert tr.rounds == ff.rounds
            assert tr.outputs == ff.outputs
