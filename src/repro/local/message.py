"""Message-passing formulation of the LOCAL model.

Complements the full-information view formulation: algorithms are
synchronous state machines that broadcast one (unbounded) message per
round, executed by :class:`repro.local.simulator.LocalSimulator` like
every other algorithm.  Round semantics match the view formulation
exactly:

* at round ``t`` a node has processed ``t`` message exchanges and may commit
  (``T_v = t``); a round-0 commit uses only the node's own initial state;
* committed nodes *keep relaying* (their state machine continues to run,
  its committed output frozen) — in LOCAL, information flows through
  terminated nodes, and several of the paper's algorithms rely on that.

Traces of either formulation are :class:`repro.local.metrics.ExecutionTrace`
objects, so metrics and benchmarks are agnostic to the formulation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .algorithm import CONTINUE
from .graph import Graph
from .simulator import SimulationError

__all__ = [
    "MessageAlgorithm",
    "NodeInfo",
    "run_message_dynamics",
]


class NodeInfo:
    """Static per-node information available at initialization."""

    __slots__ = ("handle", "vid", "degree", "input", "neighbors")

    def __init__(self, handle: int, vid: int, degree: int, input_label,
                 neighbors: Tuple[int, ...]) -> None:
        self.handle = handle
        self.vid = vid
        self.degree = degree
        self.input = input_label
        #: global handles of neighbours, aligned with incoming-message order
        self.neighbors = neighbors


class MessageAlgorithm:
    """Synchronous message-passing LOCAL algorithm.

    Subclasses implement the four hooks below.  States are arbitrary
    objects; messages are arbitrary (the LOCAL model does not bound them).
    """

    name: str = "message-algorithm"

    def setup(self, graph: Graph, n: int) -> None:
        """Global precomputation from ``n`` alone (round schedules etc.)."""

    def init_state(self, info: NodeInfo, n: int):
        raise NotImplementedError

    def message(self, state, t: int):
        """The broadcast message of a node in state ``state`` at round ``t``."""
        raise NotImplementedError

    def transition(self, state, incoming: Sequence, t: int):
        """New state after receiving ``incoming`` (one message per neighbour,
        aligned with ``NodeInfo.neighbors``) at round ``t``."""
        raise NotImplementedError

    def decide(self, state, t: int):
        """Output label to commit at round ``t``, or :data:`CONTINUE`."""
        raise NotImplementedError

    def max_rounds_hint(self, n: int) -> int:
        return 4 * n + 64


def run_message_dynamics(
    graph: Graph,
    algorithm: MessageAlgorithm,
    id_list: Sequence[int],
    budget: int,
    neighbor_lists: Optional[List[Tuple[int, ...]]] = None,
) -> Tuple[List[Optional[int]], List]:
    """Advance the global message state machine until every node commits.

    How :class:`repro.local.simulator.LocalSimulator`'s batched engine
    runs a message algorithm without ``decide_batch``, and the inner
    simulation of ``decide_batch`` implementations that derive a
    schedule from the dynamics.
    Assumes ``algorithm.setup`` has already run and the IDs are valid;
    returns ``(commit_round, outputs)`` or raises :class:`SimulationError`
    past ``budget`` rounds.  ``neighbor_lists`` lets batched callers
    reuse the per-node adjacency tuples across runs.
    """
    n = graph.n
    if neighbor_lists is None:
        neighbor_lists = [graph.neighbors(v) for v in graph.nodes()]
    states = [
        algorithm.init_state(
            NodeInfo(v, id_list[v], graph.degree(v), graph.input_of(v),
                     neighbor_lists[v]),
            n,
        )
        for v in graph.nodes()
    ]
    commit_round: List[Optional[int]] = [None] * n
    outputs: List = [None] * n
    # commit-flag array + sorted live list: flag writes during the decide
    # scan, one flag-filter rebuild per deciding round — no per-round set
    # churn
    committed = bytearray(n)
    live = list(range(n))

    t = 0
    while live:
        if t > budget:
            raise SimulationError(
                f"{algorithm.name}: exceeded round budget {budget} "
                f"with {len(live)} nodes still running"
            )
        decided = False
        for v in live:
            decision = algorithm.decide(states[v], t)
            if decision is not CONTINUE:
                commit_round[v] = t
                outputs[v] = decision
                committed[v] = 1
                decided = True
        if decided:
            live = [v for v in live if not committed[v]]
        if not live:
            break
        msgs = [algorithm.message(states[v], t) for v in graph.nodes()]
        states = [
            algorithm.transition(
                states[v], [msgs[w] for w in neighbor_lists[v]], t
            )
            for v in graph.nodes()
        ]
        t += 1

    return commit_round, outputs
