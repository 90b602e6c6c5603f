"""Tests for the generic phase algorithm (Section 4.1): fast-forward vs
faithful message-passing execution, output validity, and Lemma 13/14."""

import random

import pytest

from repro.algorithms.generic_message import GenericPhaseColoring
from repro.algorithms.generic_phases import (
    default_gammas_25,
    default_gammas_35,
    phase_schedule,
    run_generic_fast_forward,
)
from repro.constructions import build_lower_bound_graph
from repro.lcl import Coloring25, Coloring35, compute_levels
from repro.local import LocalSimulator, cycle_graph, random_ids

CASES = [
    (1, [12]),
    (2, [5, 12]),
    (2, [9, 9]),
    (3, [3, 4, 10]),
]


class TestFastForwardValidity:
    @pytest.mark.parametrize("k,lengths", CASES)
    def test_25_valid(self, k, lengths):
        lb = build_lower_bound_graph(lengths)
        ids = random_ids(lb.graph.n, rng=random.Random(1))
        tr = run_generic_fast_forward(
            lb.graph, ids, k, default_gammas_25(lb.graph.n, k), "2.5"
        )
        assert Coloring25(k).verify(lb.graph, tr.outputs).valid

    @pytest.mark.parametrize("k,lengths", CASES)
    def test_35_valid(self, k, lengths):
        lb = build_lower_bound_graph(lengths)
        ids = random_ids(lb.graph.n, rng=random.Random(2))
        tr = run_generic_fast_forward(
            lb.graph, ids, k, default_gammas_35(lb.graph.n, k), "3.5"
        )
        assert Coloring35(k).verify(lb.graph, tr.outputs).valid

    def test_bad_variant_rejected(self):
        lb = build_lower_bound_graph([4, 4])
        with pytest.raises(ValueError):
            run_generic_fast_forward(lb.graph, random_ids(lb.graph.n), 2, [3], "4.5")

    @pytest.mark.parametrize("n", [100, 300])
    def test_cycle_is_not_a_level_path(self, n):
        # every node of a cycle is level 1 and the component closes on
        # itself; before path tracing raised on a cycle, n = 100 met an
        # unrelated ValueError and n = 300 hung
        with pytest.raises(AssertionError,
                           match="level-1 alive component is not a path"):
            run_generic_fast_forward(cycle_graph(n), random_ids(n), 2, [3])


class _MessageForm(GenericPhaseColoring):
    """The phase algorithm through its message hooks: with
    ``decide_batch`` (which replays the fast-forward) hidden, the batched
    engine runs the global message dynamics."""

    decide_batch = None


class TestMessageAgreement:
    """The distributed execution must equal the fast-forward exactly."""

    @pytest.mark.parametrize("k,lengths", CASES)
    @pytest.mark.parametrize("variant", ["2.5", "3.5"])
    def test_agreement(self, k, lengths, variant):
        lb = build_lower_bound_graph(lengths)
        g = lb.graph
        ids = random_ids(g.n, rng=random.Random(k * 100 + len(lengths)))
        gammas = (
            default_gammas_25(g.n, k) if variant == "2.5" else default_gammas_35(g.n, k)
        )
        ff = run_generic_fast_forward(g, ids, k, gammas, variant)
        tr = LocalSimulator().run(g, _MessageForm(k, gammas, variant), ids)
        assert tr.outputs == ff.outputs
        assert tr.rounds == ff.rounds


class TestLemma13Decay:
    """Lemma 13: after phase i with parameter gamma_i, at most O(n'/gamma_i)
    nodes remain."""

    def test_remaining_counts_shrink(self):
        lb = build_lower_bound_graph([8, 8, 12])
        g = lb.graph
        ids = random_ids(g.n, rng=random.Random(3))
        gammas = [4, 6]
        tr = run_generic_fast_forward(g, ids, 3, gammas, "2.5")
        remaining = tr.meta["remaining_after_phase"]
        n = g.n
        # the charged constant in Lemma 13 is small; allow factor 8
        assert remaining[1] <= 8 * n / gammas[0]
        assert remaining[2] <= 8 * remaining[1] / gammas[1]
        assert remaining[3] == 0

    def test_declined_paths_reach_gamma(self):
        lb = build_lower_bound_graph([10, 10])
        g = lb.graph
        ids = random_ids(g.n, rng=random.Random(4))
        gamma = 5
        tr = run_generic_fast_forward(g, ids, 2, [gamma], "2.5")
        levels = compute_levels(g, 2)
        from repro.lcl import D, level_paths

        for path in level_paths(g, levels, 1):
            labels = {tr.outputs[v] for v in path}
            if "D" in labels:
                # maximal D-runs within a level-1 path must have >= gamma nodes
                run = 0
                for v in path:
                    if tr.outputs[v] == D:
                        run += 1
                    else:
                        if run:
                            assert run >= gamma
                        run = 0
                if run:
                    assert run >= gamma


class TestSchedule:
    def test_phase_schedule(self):
        starts = phase_schedule(3, [4, 8])
        assert starts[0] == 5
        assert starts[1] == 5 + 8 + 5
        assert starts[2] == starts[1] + 16 + 5

    def test_gamma_count_enforced(self):
        with pytest.raises(ValueError):
            phase_schedule(3, [4])

    def test_default_gammas_monotone(self):
        g25 = default_gammas_25(10_000, 4)
        assert g25 == sorted(g25)
        g35 = default_gammas_35(10_000, 3)
        assert g35 == sorted(g35)


class TestRestrictAndOffset:
    def test_restrict_subset(self):
        lb = build_lower_bound_graph([6, 8])
        g = lb.graph
        ids = random_ids(g.n, rng=random.Random(5))
        # restrict to a sub-forest: drop one attached path entirely
        drop = set(lb.paths_by_level[1][0])
        keep = [v for v in g.nodes() if v not in drop]
        tr = run_generic_fast_forward(
            g, ids, 2, [4], "2.5", restrict=keep, time_offset=7
        )
        for v in drop:
            assert tr.outputs[v] is None and tr.rounds[v] == 0
        assert all(tr.rounds[v] >= 7 for v in keep)
