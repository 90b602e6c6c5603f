"""Regression tests for LOCAL-model soundness fixes.

The headline bug: ``View.id_of`` / ``View.input_of`` used to answer for
nodes *outside* the radius-``t`` ball (a silent information leak that let
a buggy algorithm cheat the LOCAL model); they must raise ``KeyError``
exactly like ``distance`` — identically on both engines.  ``output_of``
had a subtler variant (None before the out-of-ball node commits, KeyError
after — a distinguishable out-of-horizon signal) and now raises always.
Also pinned here: negative-radius validation in ``Graph.ball``, and
message algorithms run by ``LocalSimulator``
carrying the ``"engine"`` trace meta key that shared tooling reads and
the caller's ``max_rounds``.
"""

import numpy as np
import pytest

from repro.algorithms import ColeVishkin3Coloring
from repro.local import (
    CONTINUE,
    ENGINES,
    LocalAlgorithm,
    LocalSimulator,
    View,
    path_graph,
    random_ids,
    sequential_ids,
    validate_ids,
)


class _ProbeOutOfBall(LocalAlgorithm):
    """Queries a node far outside the round-0 ball via the given accessor."""

    name = "probe-out-of-ball"

    def __init__(self, accessor: str) -> None:
        self.accessor = accessor

    def decide(self, view, n):
        target = (view.center + n // 2) % n  # distance >= 2 at round 0 on a path
        return getattr(view, self.accessor)(target)


class TestViewOutOfBallAccess:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "accessor", ["id_of", "input_of", "distance", "output_of", "has_output"]
    )
    def test_accessors_raise_keyerror_on_both_engines(self, engine, accessor):
        g = path_graph(8, inputs=list("abcdefgh"))
        with pytest.raises(KeyError):
            LocalSimulator(engine=engine).run(g, _ProbeOutOfBall(accessor))

    @pytest.mark.parametrize("accessor", ["id_of", "input_of", "output_of"])
    def test_direct_view_raises_outside_its_ball(self, accessor):
        g = path_graph(6)
        ids = sequential_ids(6)
        commit = np.full(6, -1, dtype=np.int64)
        outputs = np.empty(6, dtype=object)

        view = View(g, 0, 1, ids, commit, outputs)
        assert view.contains(1)
        getattr(view, accessor)(1)  # in-ball: fine
        with pytest.raises(KeyError):
            getattr(view, accessor)(5)  # distance 5 > radius 1

    def test_in_ball_answers_unchanged(self):
        g = path_graph(5, inputs=[10, 11, 12, 13, 14])
        ids = [7, 3, 9, 1, 5]
        view = View(g, 2, 2, ids, np.full(5, -1, dtype=np.int64),
                    np.empty(5, dtype=object))
        assert [view.id_of(u) for u in sorted(view.nodes())] == ids
        assert view.input_of(0) == 10


class TestNegativeRadius:
    def test_graph_ball_rejects_negative_radius(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            g.ball(0, -1)
        assert g.ball(0, 0) == {0: 0}


class TestMessageSimulatorDelegation:
    """``LocalSimulator`` delegating message algorithms to its engines."""

    def test_meta_carries_engine_key(self):
        g = path_graph(7)
        ids = random_ids(7)
        for engine in ENGINES:
            trace = LocalSimulator(engine=engine).run(
                g, ColeVishkin3Coloring(), ids)
            assert trace.meta["engine"] == engine
            assert trace.meta["ids"] == ids

    def test_max_rounds_forwarded(self):
        from repro.local import MessageAlgorithm, SimulationError

        class Never(MessageAlgorithm):
            name = "never"

            def init_state(self, info, n):
                return None

            def message(self, state, t):
                return None

            def transition(self, state, incoming, t):
                return None

            def decide(self, state, t):
                return CONTINUE

        for engine in ENGINES:
            with pytest.raises(SimulationError, match="round budget 3 "):
                LocalSimulator(max_rounds=3, engine=engine).run(
                    path_graph(3), Never())


def test_validate_ids_exported():
    # the actually-used validator is part of the public ids API now
    from repro.local import ids as ids_module

    assert "validate_ids" in ids_module.__all__
    with pytest.raises(ValueError):
        validate_ids([1, 1, 2])
