"""Tests for the LOCAL simulator on both algorithm formulations
(view-based and message-passing)."""

import pytest

from repro.local import (
    CONTINUE,
    ExecutionTrace,
    Graph,
    LocalAlgorithm,
    LocalSimulator,
    MessageAlgorithm,
    SimulationError,
    path_graph,
    random_ids,
    sequential_ids,
)


class OutputDegree(LocalAlgorithm):
    """Round-1 algorithm: output own degree (needs radius 1 to certify)."""

    name = "output-degree"

    def decide(self, view, n):
        if view.round < 1:
            return CONTINUE
        return len(view.neighbors(view.center))


class WaitForNeighborOutput(LocalAlgorithm):
    """The node with ID 1 outputs at round 0; every other node copies as
    soon as some committed output becomes causally visible."""

    name = "wait-chain"

    def decide(self, view, n):
        me = view.center
        if view.id_of(me) == 1:
            return "root"
        for u in view.nodes():
            if u != me and view.output_of(u) is not None:
                return "copy"
        return CONTINUE


class TestViewSimulator:
    def test_degree_outputs(self):
        g = path_graph(4)
        trace = LocalSimulator().run(g, OutputDegree())
        assert trace.outputs == [1, 2, 2, 1]
        assert trace.rounds == [1, 1, 1, 1]

    def test_output_causality(self):
        # node 0 has min ID and outputs at round 0; node at distance d can
        # only see that at round >= d, and then needs its own decision round
        g = path_graph(6)
        trace = LocalSimulator().run(g, WaitForNeighborOutput(), sequential_ids(6))
        assert trace.outputs[0] == "root"
        assert trace.rounds[0] == 0
        for v in range(1, 6):
            assert trace.rounds[v] == v, trace.rounds

    def test_budget_enforced(self):
        class Never(LocalAlgorithm):
            name = "never"

            def decide(self, view, n):
                return CONTINUE

        with pytest.raises(SimulationError):
            LocalSimulator(max_rounds=5).run(path_graph(3), Never())

    def test_rejects_bad_ids(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            LocalSimulator().run(g, OutputDegree(), ids=[1, 1, 2])

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            LocalSimulator().run(Graph(0, []), OutputDegree())


class EchoSum(MessageAlgorithm):
    """Two-round message algorithm: output sum of neighbor IDs."""

    name = "echo-sum"

    def init_state(self, info, n):
        return {"vid": info.vid, "sum": None}

    def message(self, state, t):
        return state["vid"]

    def transition(self, state, incoming, t):
        if state["sum"] is None:
            state["sum"] = sum(incoming)
        return state

    def decide(self, state, t):
        if t >= 1:
            return state["sum"]
        return CONTINUE


class TestMessageSimulator:
    """``LocalSimulator`` running message-passing algorithms."""

    def test_neighbor_sum(self):
        g = path_graph(3)
        trace = LocalSimulator().run(g, EchoSum(), [10, 20, 30])
        assert trace.outputs == [20, 40, 20]
        assert trace.rounds == [1, 1, 1]

    def test_terminated_nodes_keep_relaying(self):
        class Relay(MessageAlgorithm):
            """Node with ID 1 emits a token at round 0 and halts; everyone
            else commits when the token reaches them — which requires the
            terminated nodes to keep forwarding."""

            name = "relay"

            def init_state(self, info, n):
                return {"vid": info.vid, "token": info.vid == 1, "seen_at": 0 if info.vid == 1 else None}

            def message(self, state, t):
                return state["token"]

            def transition(self, state, incoming, t):
                if not state["token"] and any(incoming):
                    state["token"] = True
                    state["seen_at"] = t + 1
                return state

            def decide(self, state, t):
                if state["vid"] == 1:
                    return "src"
                if state["token"]:
                    return state["seen_at"]
                return CONTINUE

        g = path_graph(5)
        trace = LocalSimulator().run(g, Relay(), [1, 2, 3, 4, 5])
        assert trace.outputs[0] == "src"
        assert trace.outputs[1:] == [1, 2, 3, 4]
        assert trace.rounds == [0, 1, 2, 3, 4]

    def test_budget(self):
        class Never(MessageAlgorithm):
            name = "never"

            def init_state(self, info, n):
                return None

            def message(self, state, t):
                return None

            def transition(self, state, incoming, t):
                return state

            def decide(self, state, t):
                return CONTINUE

        with pytest.raises(SimulationError):
            LocalSimulator(max_rounds=3).run(path_graph(2), Never())


class TestExecutionTrace:
    def test_metrics(self):
        tr = ExecutionTrace(rounds=[0, 1, 2, 3], outputs=list("abcd"))
        assert tr.node_averaged() == 1.5
        assert tr.worst_case() == 3
        assert tr.total_rounds() == 6
        assert tr.percentile(50) == 1
        assert tr.averaged_over([2, 3]) == 2.5

    def test_summary_keys(self):
        tr = ExecutionTrace(rounds=[5], outputs=["x"])
        s = tr.summary()
        assert s["n"] == 1 and s["worst_case"] == 5

    def test_percentile_bounds(self):
        tr = ExecutionTrace(rounds=[1, 2], outputs=["a", "b"])
        with pytest.raises(ValueError):
            tr.percentile(101)
