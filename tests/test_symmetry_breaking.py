"""Tests for Cole-Vishkin 3-coloring and canonical 2-coloring."""

import random

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
    path_graph,
    random_ids,
)
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
