"""Batched-engine internals and the satellite APIs that ride with them.

The observational batched-vs-reference engine contract is pinned in
``tests/test_engine_equivalence.py``; this module goes one level down:
the :class:`~repro.local.frontier.FrontierScheduler` must grow the
layers of the reference's own per-node BFS,
:meth:`~repro.local.graph.Graph.bfs_layers` (same sets, in ascending
order).
Plus coverage for the adversarial ID modes, the cached trace
percentiles, the sweep's auto-engine / id-mode axes, and
:class:`~repro.local.algorithm.CommitSchedule` against the live-set
filter it replaced.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.families import get_family
from repro.local import (
    CONTINUE,
    ID_MODES,
    BatchedAlgorithm,
    BatchedViews,
    CommitSchedule,
    FrontierScheduler,
    Graph,
    LocalAlgorithm,
    LocalSimulator,
    View,
    balanced_tree,
    bit_reversal_ids,
    boundary_clustered_ids,
    cycle_graph,
    descending_ids,
    disjoint_union,
    make_ids,
    path_graph,
    random_ids,
    sequential_ids,
    validate_ids,
)
from repro.local.metrics import ExecutionTrace


def _scheduler_corpus():
    """Bipartite shapes, plus non-bipartite ones — an odd cycle, K5, a
    random 3-regular graph, a hypercube — whose same-layer edges and
    candidates reached from two parents are what the dedup exists for."""
    cases = [
        ("path7", path_graph(7)),
        ("cycle8", cycle_graph(8)),
        ("btree", balanced_tree(2, 3)),
        ("forest", Graph(9, [(0, 1), (1, 2), (3, 4), (6, 7), (7, 8)])),
        ("singleton", Graph(1, [])),
        ("cycle7", cycle_graph(7)),
        ("complete5", Graph(5, [(u, v) for u in range(5)
                                for v in range(u + 1, 5)])),
    ]
    for i, g in enumerate(get_family("caterpillar").instances(14, seed=5, count=2)):
        cases.append((f"caterpillar{i}", g))
    for family, n in (("random_regular_d3", 12), ("hypercube", 16)):
        (g,) = get_family(family).instances(n, seed=5, count=1)
        cases.append((family, g))
    return cases


SCHED_CORPUS = _scheduler_corpus()


def _random_graph(seed):
    """A seeded ``Graph`` of at most 60 nodes made of one to five pieces
    (isolated nodes, trees, cycles of either parity, dense random
    blocks), a few random edges bridging some of them, and the node
    numbers shuffled so that the pieces interleave."""
    rng = random.Random(seed)
    edges = set()
    n = 0
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(("isolated", "tree", "cycle", "dense"))
        size = 1 if kind == "isolated" else rng.randint(3, 12)
        if kind == "tree":
            edges |= {(n + rng.randrange(j), n + j) for j in range(1, size)}
        elif kind == "cycle":
            edges |= {(n + j, n + (j + 1) % size) for j in range(size)}
        elif kind == "dense":
            edges |= {(n + i, n + j) for j in range(size) for i in range(j)
                      if rng.random() < 0.6}
        n += size
    for _ in range(rng.randint(0, 2)):
        if n > 1:
            edges.add(tuple(rng.sample(range(n), 2)))
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, sorted({(min(perm[u], perm[v]), max(perm[u], perm[v]))
                            for u, v in edges}))


RANDOM_SEEDS = range(30)


def _key_bits(n):
    """The node field's width in the cache's ``(center << b) | node``
    keys."""
    return max(1, (n - 1).bit_length())


def _cached_layers(atlas, v, n):
    """Centre ``v``'s layers as the scheduler's flat cache (the atlas's
    ``"frontier"`` entry) holds them: layer 0, then layer ``r`` of every
    radius whose entry grew ``v``, up to the first that did not."""
    b = _key_bits(n)
    layers = [[v]]
    for grown, keys in atlas["frontier"][1:]:
        if v not in grown:
            break
        layers.append((keys[(keys >> b) == v] & ((1 << b) - 1)).tolist())
    return layers


def _sorted_bfs_layers(graph, v):
    """:meth:`Graph.bfs_layers` of centre ``v`` alone, each layer in
    ascending order, as the cache holds it."""
    return [sorted(layer) for layer in graph.bfs_layers([v])]


class TestFrontierScheduler:
    @pytest.mark.parametrize(
        "name,graph", SCHED_CORPUS, ids=[c[0] for c in SCHED_CORPUS]
    )
    def test_layers_match_bfs(self, name, graph):
        n = graph.n
        atlas = {}
        sched = FrontierScheduler(graph, bytearray(n), atlas=atlas)
        sched.grow_to(n + 1)
        for v in range(n):
            bfs = _sorted_bfs_layers(graph, v)
            # identical layers in ascending order, then the empty layer
            # at which the ball completed
            assert _cached_layers(atlas, v, n) == bfs + [[]], (name, v)
            assert bool(sched.complete[v]), (name, v)
            assert int(sched.ball_size[v]) == sum(map(len, bfs)), (name, v)

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_random_graphs_match_bfs_under_random_commits(self, seed):
        g = _random_graph(seed)
        n, b = g.n, _key_bits(g.n)
        oracle = [_sorted_bfs_layers(g, v) for v in range(n)]
        rng = random.Random(1000 + seed)
        atlas = {}
        for rate in (rng.choice((0.05, 0.2)), rng.choice((0.0, 0.1))):
            # the second run shares the first's atlas: with other commits
            # it re-reads some radii and expands others again
            committed = bytearray(n)
            sched = FrontierScheduler(g, committed, atlas=atlas)
            frozen = [None] * n  # the radius a centre committed at
            for r in range(1, n + 2):
                sched.grow_to(r)
                for v in range(n):
                    rho = r if frozen[v] is None else frozen[v]
                    assert int(sched.ball_size[v]) == sum(
                        map(len, oracle[v][:rho + 1])), (seed, r, v)
                    assert bool(sched.complete[v]) == (
                        len(oracle[v]) <= rho), (seed, r, v)
                # the centres this step grew: neither committed nor
                # complete before it
                growing = [v for v in range(n)
                           if frozen[v] is None and len(oracle[v]) >= r]
                if not growing:
                    break
                # a step writes or reads radius r's entry only, so this
                # checks every cached layer after every step
                grown, keys = atlas["frontier"][r]
                assert set(growing) <= set(grown.tolist()), (seed, r)
                assert np.all(keys[1:] > keys[:-1]), (seed, r)
                layers = {int(c): [] for c in grown}
                for key in keys.tolist():
                    layers[key >> b].append(key & ((1 << b) - 1))
                assert len(layers) == len(grown), (seed, r)
                for c, layer in layers.items():
                    want = oracle[c][r] if r < len(oracle[c]) else []
                    assert layer == want, (seed, r, c)
                for v in range(n):
                    if frozen[v] is None and rng.random() < rate:
                        committed[v] = 1
                        frozen[v] = r

    def test_random_corpus_covers_every_shape(self):
        # isolated nodes, several components, odd cycles, dense pieces
        shapes = set()
        for seed in RANDOM_SEEDS:
            g = _random_graph(seed)
            assert 1 <= g.n <= 60
            components = {min(sum(_sorted_bfs_layers(g, v), []))
                          for v in range(g.n)}
            degrees = [len(g.neighbors(v)) for v in range(g.n)]
            # an edge inside a BFS layer closes an odd cycle
            odd_cycle = any(set(g.neighbors(u)) & set(layer)
                            for v in range(g.n)
                            for layer in g.bfs_layers([v]) for u in layer)
            shapes |= {("isolated", 0 in degrees),
                       ("components", len(components) > 1),
                       ("odd cycle", odd_cycle),
                       ("dense", max(degrees, default=0) >= 5)}
        assert {s for s, present in shapes if present} == {
            "isolated", "components", "odd cycle", "dense"}

    def test_more_than_2_pow_31_nodes_rejected_before_any_array(self):
        # keys take 2b + 1 bits, 63 at n = 2**31; the stub is just a
        # node count, so the guard must raise before the scheduler reads
        # the graph's CSR arrays
        with pytest.raises(ValueError, match="2147483648"):
            FrontierScheduler(SimpleNamespace(n=2 ** 31 + 1), bytearray())
        # n = 2**31 passes the guard and fails only at the stub's
        # missing adjacency
        with pytest.raises(AttributeError):
            FrontierScheduler(SimpleNamespace(n=2 ** 31), bytearray())

    def test_committed_centers_stop_growing(self):
        g = path_graph(9)
        committed = bytearray(9)
        atlas = {}
        sched = FrontierScheduler(g, committed, atlas=atlas)
        sched.grow_to(2)
        committed[4] = 1
        sched.grow_to(4)
        # node 4's layers froze at radius 2; its neighbours kept growing
        assert len(_cached_layers(atlas, 4, 9)) == 3
        assert len(_cached_layers(atlas, 3, 9)) == 5
        assert int(sched.ball_size[4]) == 5

    def test_lazy_growth(self):
        g = path_graph(50)
        sched = FrontierScheduler(g, bytearray(50))
        assert sched.radius == 0  # nothing queried, nothing swept
        sched.grow_to(0)
        assert sched.radius == 0

    def test_state_arrays_allocated_on_first_use(self):
        # a run that never asks for ball facts allocates no per-node
        # array; the ball facts read as radius 0 before any sweep
        g = path_graph(50)
        sched = FrontierScheduler(g, bytearray(50))
        sched.grow_to(0)
        assert sched._cur is None
        assert sched._complete is None and sched._ball_size is None
        assert int(sched.ball_size.sum()) == 50
        assert not sched.complete.any()

    def test_ball_fact_arrays_are_read_only(self):
        # mutating shared engine state must raise, not silently corrupt
        # later rounds (same sealing philosophy as the read-only View ball)
        g = path_graph(5)
        views = BatchedViews(g, [1, 2, 3, 4, 5], np.full(5, -1, dtype=np.int64),
                             np.empty(5, dtype=object),
                             FrontierScheduler(g, bytearray(5)))
        views.round = 1
        import pytest as _pytest
        with _pytest.raises(ValueError):
            views.complete_mask()[0] = True
        with _pytest.raises(ValueError):
            views.ball_sizes()[0] = 99


class _PacedByIds(BatchedAlgorithm):
    """Commits a live node once it is ready or at round ``ids[v] % 5``,
    whichever comes first, so the commit set depends on the IDs and a
    later ID sample grows some centres past the radius an earlier sample
    cached while re-reading others.  Each round it checks the ball facts
    against a fresh scheduler without an atlas, fed the same commits."""

    name = "paced-by-ids"

    def setup(self, graph, n):
        self._flags = bytearray(n)
        self._fresh = FrontierScheduler(graph, self._flags)

    def decide_batch(self, views, live, t):
        np.frombuffer(self._flags, dtype=np.uint8)[views.commit_round >= 0] = 1
        self._fresh.grow_to(t)
        assert np.array_equal(views.complete_mask(), self._fresh.complete), t
        assert np.array_equal(views.ball_sizes(), self._fresh.ball_size), t
        ids = np.asarray(views.ids)
        due = np.union1d(views.ready(live), live[ids[live] % 5 <= t])
        return due, [t] * len(due)


class _MinIdWaits(BatchedAlgorithm):
    """Every node but the min-ID one commits at round 0; that one waits
    until its ball covers the whole graph."""

    name = "min-id-waits"

    def decide_batch(self, views, live, t):
        if t == 0:
            rest = live[live != int(np.argmin(views.ids))]
            return rest, [0] * len(rest)
        ready = views.ready(live)
        return ready, [1] * len(ready)


class TestLayerCache:
    @pytest.mark.parametrize("family,n", [
        ("bounded_tree_d3", 40), ("random_regular_d3", 40),
        ("fragmented_forest", 40),
    ])
    def test_mixed_rounds_match_a_fresh_scheduler(self, family, n):
        (g,) = get_family(family).instances(n, seed=3, count=1)
        full = [_sorted_bfs_layers(g, v) + [[]] for v in range(g.n)]
        rng = random.Random(8)
        atlas = {}
        traces = []
        for _ in range(3):
            # run_batch's loop, with the shared atlas in reach
            trace = LocalSimulator()._run(
                g, _PacedByIds(), random_ids(g.n, rng=rng), atlas=atlas)
            traces.append(trace)
            # the cache holds every centre's BFS layers, through the
            # radius this sample grew it to at least
            for v in range(g.n):
                layers = _cached_layers(atlas, v, g.n)
                assert layers == full[v][:len(layers)], v
                assert len(layers) > trace.rounds[v], v
        # a node is grown to radius r in a run iff it commits at round
        # >= r: some round of a later sample re-reads centres an earlier
        # sample grew and expands centres none did
        mixed = False
        for later in range(1, len(traces)):
            for r in range(1, max(traces[later].rounds) + 1):
                grown = [v for v in range(g.n)
                         if traces[later].rounds[v] >= r]
                seen = [any(traces[e].rounds[v] >= r for e in range(later))
                        for v in grown]
                mixed |= any(seen) and not all(seen)
        assert mixed

    def test_cache_holds_no_per_radius_mask(self):
        # one ball grows to the whole path: ~n radii with a node or two
        # each; an n-length array per radius would hold ~n^2 bytes
        g = path_graph(4000)
        atlas = {}
        shuffled = list(range(2, g.n + 1))
        random.Random(2).shuffle(shuffled)
        sizes = []
        for ids in (sequential_ids(g.n), [1] + shuffled):
            trace = LocalSimulator()._run(g, _MinIdWaits(), ids, atlas=atlas)
            assert trace.rounds[0] == g.n - 1
            sizes.append(sum(arr.nbytes for entry in atlas["frontier"][1:]
                             for arr in entry))
        # the second sample re-reads node 0's layers without storing more
        assert sizes[0] == sizes[1] <= 16 * g.n


def _filter_oracle(rounds, labels):
    """The schedule streaming :class:`CommitSchedule` replaced: every
    round, filter the live list by ``rounds[v] <= t`` and drop the
    committed nodes — one ``(nodes, labels)`` pair per round until no
    node is live, as the engine calls it."""
    live = list(range(len(rounds)))
    out = []
    t = 0
    while live:
        due = [v for v in live if rounds[v] <= t]
        out.append((due, [labels[v] for v in due]))
        live = [v for v in live if rounds[v] > t]
        t += 1
    return out


#: the label shapes ``weighted35_replay`` emits: strings and tuples of
#: one and two strings (equal-length tuples must stay tuples)
_MIXED_LABELS = ("D", "R", ("Copy", "D"), ("Decline",), ("Copy", "R"), "G")


class TestCommitSchedule:
    @pytest.mark.parametrize("seed", range(12))
    def test_due_matches_live_filter(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 60)
        # round 0, gaps between the occupied rounds, repeated rounds
        occupied = sorted(rng.sample(range(0, 3 * n + 5), rng.randint(1, 6)))
        if seed % 2:
            occupied[0] = 0
        rounds = [rng.choice(occupied) for _ in range(n)]
        labels = [rng.choice(_MIXED_LABELS) for _ in range(n)]
        schedule = CommitSchedule(rounds, labels)
        for t, (nodes, labs) in enumerate(_filter_oracle(rounds, labels)):
            got_nodes, got_labels = schedule.due(t)
            assert got_nodes.dtype == np.int64
            assert got_nodes.tolist() == nodes
            assert got_labels == labs
            assert [type(x) for x in got_labels] == [type(x) for x in labs]

    def test_negative_rounds_fall_due_at_round_zero(self):
        schedule = CommitSchedule([-3, 2, 0, -1], ["a", "b", "c", "d"])

        def due(t):
            nodes, labels = schedule.due(t)
            return nodes.tolist(), labels

        assert due(0) == ([0, 2, 3], ["a", "c", "d"])
        assert due(1) == ([], [])
        assert due(2) == ([1], ["b"])
        assert due(3) == ([], [])

    def test_due_nodes_are_read_only(self):
        nodes, _ = CommitSchedule([0, 0, 1], "abc").due(0)
        with pytest.raises(ValueError):
            nodes[0] = 2

    def test_misaligned_schedule_rejected(self):
        with pytest.raises(ValueError):
            CommitSchedule([0, 1, 2], ["a", "b"])

    def test_engine_replays_a_schedule_exactly(self):
        rng = random.Random(5)
        g = path_graph(40)
        rounds = [rng.choice((0, 2, 3, 7)) for _ in range(g.n)]
        labels = [rng.choice(_MIXED_LABELS) for _ in range(g.n)]

        class Replay(BatchedAlgorithm):
            name = "replay"

            def setup(self, graph, n):
                self._schedule = CommitSchedule(rounds, labels)

            def decide_batch(self, views, live, t):
                return self._schedule.due(t)

        tr = LocalSimulator(engine="batched").run(g, Replay())
        assert tr.rounds == rounds
        assert tr.outputs == labels
        assert [type(x) for x in tr.outputs] == [type(x) for x in labels]


class TestBatchedOutputTypes:
    """Array-form commits must reach the trace as plain Python values."""

    def test_cole_vishkin_outputs_are_plain_ints(self):
        from repro.algorithms import ColeVishkin3Coloring

        g = path_graph(300)
        ids = random_ids(g.n, rng=random.Random(4))
        tr = LocalSimulator(engine="batched").run(g, ColeVishkin3Coloring(), ids)
        ref = LocalSimulator(engine="reference").run(g, ColeVishkin3Coloring(), ids)
        assert all(type(x) is int for x in tr.outputs)
        assert all(type(r) is int for r in tr.rounds)
        assert tr.outputs == ref.outputs and tr.rounds == ref.rounds

    def test_rake_outputs_are_plain_strs(self):
        from repro.algorithms import RakeCompressLayering

        g = get_family("random_tree").instance(200, 3, 0)
        tr = LocalSimulator(engine="batched").run(g, RakeCompressLayering())
        ref = LocalSimulator(engine="reference").run(g, RakeCompressLayering())
        assert all(type(x) is str for x in tr.outputs)
        assert all(type(r) is int for r in tr.rounds)
        assert tr.outputs == ref.outputs and tr.rounds == ref.rounds

    def test_two_coloring_outputs_are_plain_ints(self):
        from repro.algorithms import CanonicalTwoColoring

        g = balanced_tree(3, 3)
        ids = random_ids(g.n, rng=random.Random(8))
        tr = LocalSimulator(engine="batched").run(g, CanonicalTwoColoring(), ids)
        ref = LocalSimulator(engine="reference").run(g, CanonicalTwoColoring(), ids)
        assert all(type(x) is int for x in tr.outputs)
        assert tr.outputs == ref.outputs and tr.rounds == ref.rounds


class _LabelsByRound(LocalAlgorithm):
    """Node ``v`` commits ``labels[v]`` at round ``v % 3``.
    ``decide_batch`` returns each round's slice of the numpy array
    ``labels``; ``decide`` returns the matching item of its
    ``tolist``, which the reference engine commits node by node."""

    name = "labels-by-round"

    def __init__(self, labels) -> None:
        self._labels = labels
        self._plain = labels.tolist() if isinstance(labels, np.ndarray) \
            else list(labels)

    def decide(self, view, n):
        v = view.center
        return self._plain[v] if v % 3 <= view.round else CONTINUE

    def decide_batch(self, views, live, t):
        due = live[live % 3 <= t]
        if isinstance(self._labels, np.ndarray):
            return due, self._labels[due]
        return due, [self._plain[v] for v in due.tolist()]


class _NoBatch(_LabelsByRound):
    """The same algorithm with ``decide_batch`` hidden: the batched
    engine runs ``decide`` through the reference loop."""

    decide_batch = None


class _ReadsOutputs(LocalAlgorithm):
    """Node ``v`` commits at round ``v`` the outputs it sees of the other
    nodes of its ball, by handle: the output of a node that has not
    committed yet reads None."""

    name = "reads-outputs"

    def decide(self, view, n):
        v = view.center
        if view.round < v:
            return CONTINUE
        return tuple(view.output_of(u) for u in sorted(view.nodes()) if u != v)


#: each engine form a ``_LabelsByRound`` run takes: the batched engine
#: with ``decide_batch`` and without it, and the reference
_SCATTER_FORMS = [("batched", _LabelsByRound), ("batched", _NoBatch),
                  ("reference", _LabelsByRound)]


class TestCommitScatter:
    """One scatter per commit batch stores every label exactly as the
    per-node loop it replaced did, on every engine form."""

    @pytest.mark.parametrize("engine,form", _SCATTER_FORMS)
    def test_equal_length_tuples_stay_one_label(self, engine, form):
        # np.asarray would read these as one 2-D array
        labels = [("Copy", "D")] * 12
        tr = LocalSimulator(engine=engine).run(path_graph(12), form(labels))
        assert tr.outputs == labels
        assert all(type(x) is tuple for x in tr.outputs)
        assert tr.rounds == [v % 3 for v in range(12)]

    @pytest.mark.parametrize("engine,form", _SCATTER_FORMS)
    @pytest.mark.parametrize("labels", [
        np.arange(10, 22, dtype=np.int64),
        np.linspace(0.5, 6.0, 12),
        np.arange(12) % 2 == 0,
        np.array(list("abcdefghijkl")),
        np.arange(24, dtype=np.int64).reshape(12, 2),
    ], ids=["int64", "float64", "bool", "str", "int64-2d"])
    def test_numpy_labels_land_as_tolist(self, engine, form, labels):
        tr = LocalSimulator(engine=engine).run(path_graph(12), form(labels))
        expected = labels.tolist()
        assert tr.outputs == expected
        assert [type(x) for x in tr.outputs] == [type(x) for x in expected]

    @pytest.mark.parametrize("engine", ["batched", "reference"])
    def test_uncommitted_node_reads_none(self, engine):
        tr = LocalSimulator(engine=engine).run(path_graph(3), _ReadsOutputs())
        # round 1: node 2 has not committed; round 2: node 0's round-0
        # commit has reached distance 2 and node 1's distance 1
        assert tr.outputs == [(), ((), None), ((), ((), None))]
        assert tr.rounds == [0, 1, 2]

    def test_view_reads_the_state_arrays(self):
        g = path_graph(4)
        commit_round = np.array([0, 2, -1, 1], dtype=np.int64)
        outputs = np.empty(4, dtype=object)
        outputs[[0, 1, 3]] = ["a", ("b", "c"), "d"]
        view = View(g, 2, 2, sequential_ids(4), commit_round, outputs)
        assert view.output_of(0) == "a"       # round 0 + distance 2
        assert view.output_of(1) is None      # round 2 + distance 1 > 2
        assert view.output_of(2) is None      # not committed
        assert view.output_of(3) == "d"
        assert not view.has_output(2)

    def test_views_hand_out_state_read_only(self):
        seen = {}

        class Probe(BatchedAlgorithm):
            name = "probe"

            def decide_batch(self, views, live, t):
                seen["views"] = views
                return live, [0] * len(live)

        ids = random_ids(30, rng=random.Random(6))
        LocalSimulator().run(path_graph(30), Probe(), ids)
        views = seen["views"]
        assert views.id_array.tolist() == ids
        for arr in (views.id_array, views.commit_round, views.outputs):
            with pytest.raises(ValueError):
                arr[0] = arr[1]
        # beyond int64 only the per-ID loop accepts the IDs: no array
        LocalSimulator().run(path_graph(3), Probe(), [2**63, 5, 7])
        assert seen["views"].id_array is None


class TestAdversarialIds:
    @pytest.mark.parametrize("mode", sorted(ID_MODES))
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 33])
    def test_modes_produce_valid_assignments(self, mode, n):
        ids = make_ids(mode, n, rng=random.Random(0))
        assert len(ids) == n
        validate_ids(ids)

    def test_descending(self):
        assert descending_ids(5) == [5, 4, 3, 2, 1]

    def test_boundary_clustered(self):
        assert boundary_clustered_ids(6) == [1, 3, 5, 6, 4, 2]
        assert boundary_clustered_ids(5) == [1, 3, 5, 4, 2]
        assert boundary_clustered_ids(1) == [1]

    def test_bit_reversal_is_permutation(self):
        for n in (1, 2, 8, 12, 16):
            ids = bit_reversal_ids(n)
            assert sorted(ids) == list(range(1, n + 1))
        # n=8, 3 bits: reversed values 0,4,2,6,1,5,3,7 -> ranks
        assert bit_reversal_ids(8) == [1, 5, 3, 7, 2, 6, 4, 8]

    def test_deterministic_modes_ignore_rng(self):
        for mode in ("sequential", "descending", "bit_reversal",
                     "boundary_clustered"):
            a = make_ids(mode, 9, rng=random.Random(1))
            b = make_ids(mode, 9, rng=random.Random(2))
            assert a == b

    def test_registry_declares_determinism(self):
        # the declared flag is what the sweep's sample-collapse relies on:
        # it must match each mode's actual rng behaviour
        for name, entry in ID_MODES.items():
            a = entry.fn(9, random.Random(1))
            b = entry.fn(9, random.Random(2))
            assert entry.deterministic == (a == b), name

    def test_unknown_mode_rejected(self):
        with pytest.raises(KeyError):
            make_ids("nope", 5)

    def test_adversarial_ids_run_through_all_engines(self):
        from repro.algorithms import ColeVishkin3Coloring
        from repro.local import ENGINES

        g = cycle_graph(12)
        for mode in ("descending", "bit_reversal", "boundary_clustered"):
            ids = make_ids(mode, 12)
            ref = LocalSimulator(engine="reference").run(
                g, ColeVishkin3Coloring(), ids)
            for engine in ENGINES:
                tr = LocalSimulator(engine=engine).run(
                    g, ColeVishkin3Coloring(), ids)
                assert tr.rounds == ref.rounds and tr.outputs == ref.outputs


class TestPercentileCache:
    def test_percentiles_bulk_matches_scalar(self):
        tr = ExecutionTrace(rounds=[5, 1, 4, 2, 3], outputs=[0] * 5)
        qs = (0, 25, 50, 75, 99, 100)
        assert tr.percentiles(qs) == [tr.percentile(q) for q in qs]

    def test_sort_is_cached(self):
        tr = ExecutionTrace(rounds=[3, 1, 2], outputs=[0] * 3)
        assert tr.percentile(50) == 2
        assert tr._ordered == [1, 2, 3]
        assert tr.percentile(100) == 3

    def test_summary_uses_bulk_accessor(self):
        tr = ExecutionTrace(rounds=[1, 2, 3, 4], outputs=[0] * 4)
        s = tr.summary()
        assert s["median"] == 2.0 and s["p99"] == 4.0

    def test_bounds_still_enforced(self):
        tr = ExecutionTrace(rounds=[1], outputs=[0])
        with pytest.raises(ValueError):
            tr.percentile(101)
        with pytest.raises(ValueError):
            tr.percentiles([50, -1])


class TestSweepAxes:
    def test_auto_engine_and_id_mode_recorded_in_spec(self):
        from repro.sweep import SweepRunner

        payload = SweepRunner(samples=1, instances=1, id_mode="descending").run(
            ["random_tree"], [12], ["two_coloring"])
        assert payload["spec"]["engine"] == "auto"
        assert payload["spec"]["id_mode"] == "descending"

    def test_auto_matches_explicit_engines(self):
        from repro.sweep import SweepRunner

        args = (["spider"], [12], ["two_coloring", "rake_layering"])
        auto = SweepRunner(samples=2, engine="auto").run(*args, seed=5)
        ref = SweepRunner(samples=2, engine="reference").run(*args, seed=5)
        bat = SweepRunner(samples=2, engine="batched").run(*args, seed=5)
        for a, r, b in zip(auto["cells"], ref["cells"], bat["cells"]):
            assert a["node_averaged"] == r["node_averaged"] == b["node_averaged"]
            assert a["worst_case"] == r["worst_case"] == b["worst_case"]

    def test_id_mode_reaches_the_simulator(self):
        # the sweep hands the mode's exact assignment to every run: with
        # id_mode="sequential" on the canonical path family, outputs are
        # the parity coloring rooted at handle 0
        from repro.algorithms import CanonicalTwoColoring
        from repro.sweep import SweepRunner

        payload = SweepRunner(samples=1, instances=1,
                              id_mode="sequential").run(
            ["path"], [8], ["two_coloring"], seed=0)
        cell = payload["cells"][0]
        assert cell["validity"] == {"valid": 1, "violations": 0}
        tr = LocalSimulator(engine="batched").run(
            path_graph(8), CanonicalTwoColoring(), sequential_ids(8))
        assert cell["node_averaged"]["max"] == tr.node_averaged()

    def test_invalid_axes_rejected(self):
        from repro.sweep import SweepRunner

        with pytest.raises(ValueError):
            SweepRunner(id_mode="nope")
        with pytest.raises(ValueError):
            SweepRunner(engine="warp")

    def test_cli_id_mode_axis(self, capsys):
        import json

        from repro.sweep import main

        rc = main(["--family", "path", "--sizes", "9", "--samples", "1",
                   "--instances", "1", "--id-mode", "bit_reversal"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["id_mode"] == "bit_reversal"
        assert payload["spec"]["engine"] == "auto"
