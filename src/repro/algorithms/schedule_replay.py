"""Batched-engine wrappers that replay a centralized fast-forward schedule.

The weighted solvers (E4/E5 and their building blocks) are implemented as
centralized fast-forwards: one call computes the full ``ExecutionTrace`` —
per-node commit rounds and outputs — that the distributed algorithm would
produce.  :class:`ScheduleReplay` turns any such fast-forward into a
:class:`~repro.local.algorithm.BatchedAlgorithm`: the trace is computed
once on the first round and then committed incrementally, node ``v`` at
round ``rounds[v]``.  Because the engine starts at ``t = 0`` and commit
rounds are non-negative, the engine trace equals the fast-forward trace
exactly, which the engine-equivalence tests pin.

The wrappers never ask the :class:`~repro.local.frontier.BatchedViews`
for ball facts, so the lazy frontier scheduler performs **zero** BFS
steps — a replayed execution costs one centralized solve plus one flat
commit sweep per round, independent of the radius the underlying
algorithm would have needed.  This is what lets the ``10^6``-node sweeps
run the paper solvers under the engine contract (live-set bookkeeping,
double-commit detection, round budgets) at array speed.

Replay wrappers have no per-node ``decide``; running one on the
reference engine raises ``TypeError`` as for every decide_batch-only
algorithm.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..local.algorithm import BatchedAlgorithm, CommitSchedule
from ..local.graph import Graph
from ..local.metrics import ExecutionTrace

__all__ = [
    "ScheduleReplay",
    "replay_apoly",
    "replay_weighted35",
]

FastForward = Callable[[Graph, List[int]], ExecutionTrace]


class ScheduleReplay(BatchedAlgorithm):
    """Replay a fast-forward schedule through the batched engine.

    ``fast_forward(graph, ids) -> ExecutionTrace`` is invoked lazily on
    the first ``decide_batch`` of each execution (``setup`` clears the
    cache, and the ids-identity check guards ``run_batch``'s
    one-instance-many-samples reuse); each round then commits exactly the
    nodes whose scheduled round has arrived, streamed from a
    :class:`~repro.local.algorithm.CommitSchedule`.
    """

    def __init__(self, name: str, fast_forward: FastForward) -> None:
        self.name = name
        self._fast_forward = fast_forward
        self._ids: Optional[List[int]] = None
        self._schedule: Optional[CommitSchedule] = None

    def setup(self, graph: Graph, n: int) -> None:
        self._ids = None
        self._schedule = None

    def _ensure(self, views) -> CommitSchedule:
        if self._schedule is None or self._ids is not views.ids:
            trace = self._fast_forward(views.graph, list(views.ids))
            self._schedule = CommitSchedule(trace.rounds, trace.outputs)
            self._ids = views.ids
        return self._schedule

    def decide_batch(self, views, live, t: int):
        return self._ensure(views).due(t)

    def max_rounds_hint(self, n: int) -> int:
        # worst-case commit rounds of the wrapped solvers are O(n); leave
        # generous slack so the budget never truncates a valid schedule
        return 16 * n + 64


def replay_apoly(delta: int, d: int, k: int, **kw) -> ScheduleReplay:
    """Theorem 2's ``Pi^{2.5}`` solver as a batched algorithm."""
    from .weighted25 import run_apoly

    return ScheduleReplay(
        f"apoly-replay(delta={delta},d={d},k={k})",
        lambda graph, ids: run_apoly(graph, ids, delta, d, k, **kw),
    )


def replay_weighted35(delta: int, d: int, k: int, **kw) -> ScheduleReplay:
    """Theorem 5's ``Pi^{3.5}`` solver (fast d-free weight side) as a
    batched algorithm."""
    from .weighted35 import run_weighted35

    return ScheduleReplay(
        f"weighted35-replay(delta={delta},d={d},k={k})",
        lambda graph, ids: run_weighted35(graph, ids, delta, d, k, **kw),
    )
