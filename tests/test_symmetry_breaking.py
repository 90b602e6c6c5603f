"""Tests for Cole-Vishkin 3-coloring and canonical 2-coloring."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.symmetry_breaking import (
    CanonicalTwoColoring,
    ColeVishkin3Coloring,
    cv_iterations,
    cv_step,
    cv_total_rounds,
    three_color_path,
    two_coloring_fast_forward,
)
from repro.local import (
    Graph,
    LocalSimulator,
    cycle_graph,
    path_graph,
    random_ids,
)
from repro.local.ids import id_space_size, make_ids, validate_ids
from repro.analysis import log_star


class TestCvPrimitives:
    def test_cv_step_root(self):
        assert cv_step(6, None) == 0
        assert cv_step(7, None) == 1

    def test_cv_step_reduces_and_separates(self):
        for a in range(1, 64):
            for b in range(1, 64):
                if a == b:
                    continue
                # child a with parent b: differs from parent's next value
                # whenever the parent also steps against some c != a
                va = cv_step(a, b)
                assert va < 2 * 6  # labels < 64 have <= 6 bits

    def test_iterations_schedule_monotone(self):
        assert cv_iterations(5) == 0  # labels 0..5 are already 6 colours
        assert cv_iterations(100) >= 1
        assert cv_iterations(10**9) <= 6
        assert cv_total_rounds(100) == cv_iterations(100) + 9

    def test_iterations_logstar_shape(self):
        # the schedule grows like log*: enormous spaces still need few rounds
        assert cv_iterations(2 ** (2**16)) <= 8


class TestThreeColorPath:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=120), st.integers(min_value=0, max_value=10**6))
    def test_proper_and_in_palette(self, m, seed):
        rng = random.Random(seed)
        ids = random_ids(m, rng=rng)
        colors, rounds = three_color_path(ids, (10 * m) ** 3)
        assert len(colors) == m
        assert all(c in (0, 1, 2) for c in colors)
        assert all(colors[i] != colors[i + 1] for i in range(m - 1))
        assert rounds == cv_total_rounds((10 * m) ** 3)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            three_color_path([3, 3], 100)

    def test_empty(self):
        assert three_color_path([], 10) == ([], 0)


class _MessageCV(ColeVishkin3Coloring):
    """Cole–Vishkin through its message hooks: with ``decide_batch``
    hidden, the batched engine runs the global message dynamics."""

    decide_batch = None


class TestDistributedCV:
    def test_matches_fast_forward(self):
        rng = random.Random(5)
        for m in (1, 2, 3, 17, 64):
            g = path_graph(m)
            ids = random_ids(m, rng=rng)
            trace = LocalSimulator().run(g, _MessageCV(), ids)
            colors, rounds = three_color_path(ids, m**3)
            assert trace.outputs == colors
            assert all(r == rounds for r in trace.rounds)

    def test_rejects_high_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(ValueError):
            LocalSimulator().run(g, ColeVishkin3Coloring(), [1, 2, 3, 4])

    def test_rounds_scale_like_log_star(self):
        # E13 shape: node-averaged 3-coloring cost ~ log* n, far below n
        rng = random.Random(0)
        for m in (64, 512):
            ids = random_ids(m, rng=rng)
            _, rounds = three_color_path(ids, m**3)
            assert rounds <= 4 * (log_star(m**3) + 9)
            assert rounds < m or m < rounds  # trivially true; keep shape check below
            assert rounds <= 20


class _RoundViews:
    """The four fields of ``BatchedViews`` that Cole–Vishkin's
    ``decide_batch`` reads on int64 IDs, so a test can step it round by
    round; ``id_array`` is the int64 array the engine hands it."""

    def __init__(self, graph, ids):
        self.graph, self.ids, self.n = graph, ids, graph.n
        self.id_array = validate_ids(ids)


class TestBatchedCVAtScale:
    """Batched Cole–Vishkin against the per-node state machine, run as
    the global message dynamics, on instances large enough that the
    uint8 iterations run and the shedding rounds have nodes to
    recolour."""

    N = 5000

    @pytest.mark.parametrize("mode", ("random", "descending", "bit_reversal"))
    @pytest.mark.parametrize("family", ("path", "cycle"))
    def test_matches_message_dynamics(self, family, mode):
        g = path_graph(self.N) if family == "path" else cycle_graph(self.N)
        ids = make_ids(mode, self.N, rng=random.Random(13))
        batched = LocalSimulator().run(g, ColeVishkin3Coloring(), ids)
        message = LocalSimulator().run(g, _MessageCV(), ids)
        assert batched.outputs == message.outputs
        assert batched.rounds == message.rounds
        if family == "path":
            assert batched.outputs == three_color_path(ids, self.N**3)[0]

    @pytest.mark.parametrize("family", ("path", "cycle"))
    def test_shedding_rounds_recolour_exactly_their_colour(self, family):
        """Step ``decide_batch`` by hand: the later iterations run on
        uint8, and each shedding round clears its colour by recolouring
        only the nodes that held it — with random IDs, every forest
        shedding colour is held somewhere, and so are most composite
        ones."""
        g = path_graph(self.N) if family == "path" else cycle_graph(self.N)
        alg = ColeVishkin3Coloring()
        alg.setup(g, self.N)
        iters = cv_iterations(id_space_size(self.N))
        assert iters >= 2  # at least one uint8 iteration
        views = _RoundViews(g, random_ids(self.N, rng=random.Random(4)))
        live = np.arange(self.N)
        for t in range(iters):
            alg.decide_batch(views, live, t)
        st = alg._bstate
        assert st["l1"].dtype == st["l2"].dtype == np.uint8
        held = set(st["l1"].tolist()) | set(st["l2"].tolist())
        assert {3, 4, 5} <= held <= set(range(6))
        recoloured = 0
        for t in range(iters, alg._total):
            keys = ("l1", "l2") if t < iters + 3 else ("comp",)
            color = 5 - (t - iters) if t < iters + 3 else 8 - (t - iters - 3)
            before = {key: st[key].copy() for key in keys}
            alg.decide_batch(views, live, t)
            for key in keys:
                changed = before[key] != st[key]
                assert (before[key][changed] == color).all()
                assert not (st[key] == color).any()
                if key == "comp":
                    recoloured += int(changed.sum())
        assert recoloured > 0
        assert set(st["comp"].tolist()) <= {0, 1, 2}


class TestTwoColoring:
    def test_simulator_matches_fast_forward(self):
        rng = random.Random(9)
        for m in (1, 2, 9, 24):
            g = path_graph(m)
            ids = random_ids(m, rng=rng)
            trace = LocalSimulator().run(g, CanonicalTwoColoring(), ids)
            colors, rounds = two_coloring_fast_forward(g, ids)
            assert trace.outputs == colors
            assert trace.rounds == rounds

    def test_proper(self):
        g = path_graph(12)
        colors, _ = two_coloring_fast_forward(g, list(range(1, 13)))
        assert all(colors[i] != colors[i + 1] for i in range(11))

    def test_linear_node_average(self):
        # E12 / Corollary 60 shape: node-averaged Theta(n)
        for m in (32, 64, 128):
            g = path_graph(m)
            _, rounds = two_coloring_fast_forward(g, list(range(1, m + 1)))
            avg = sum(rounds) / m
            assert avg >= m / 2  # ecc(v) >= (m-1)/2 always

    def test_forest_components_independent(self):
        g = Graph(5, [(0, 1), (3, 4)])
        colors, rounds = two_coloring_fast_forward(g, [5, 4, 3, 2, 1])
        assert colors[0] != colors[1] and colors[3] != colors[4]
        assert rounds[2] == 1  # singleton: ecc 0, +1 certification round
