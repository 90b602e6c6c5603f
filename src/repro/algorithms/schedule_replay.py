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

from typing import Callable, List, Optional, Sequence

from ..local.algorithm import BatchedAlgorithm, CommitSchedule
from ..local.graph import Graph
from ..local.metrics import ExecutionTrace

__all__ = [
    "ScheduleReplay",
    "replay_apoly",
    "replay_a35",
    "replay_weighted35",
    "replay_weight_augmented",
    "replay_fast_dfree",
    "replay_generic_phases",
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


def replay_a35(delta: int, d: int, k: int, **kw) -> ScheduleReplay:
    """The Algorithm-A-weighted ``Pi^{3.5}`` baseline as a batched
    algorithm."""
    from .weighted25 import run_a35

    return ScheduleReplay(
        f"a35-replay(delta={delta},d={d},k={k})",
        lambda graph, ids: run_a35(graph, ids, delta, d, k, **kw),
    )


def replay_weighted35(delta: int, d: int, k: int, **kw) -> ScheduleReplay:
    """Theorem 5's ``Pi^{3.5}`` solver (fast d-free weight side) as a
    batched algorithm."""
    from .weighted35 import run_weighted35

    return ScheduleReplay(
        f"weighted35-replay(delta={delta},d={d},k={k})",
        lambda graph, ids: run_weighted35(graph, ids, delta, d, k, **kw),
    )


def replay_weight_augmented(k: int, **kw) -> ScheduleReplay:
    """Lemma 69's weight-augmented 2½-coloring solver as a batched
    algorithm."""
    from .labeling_solver import run_weight_augmented_solver

    return ScheduleReplay(
        f"weight-augmented-replay(k={k})",
        lambda graph, ids: run_weight_augmented_solver(graph, ids, k, **kw),
    )


def replay_fast_dfree(d: int) -> ScheduleReplay:
    """Corollary 49's d-free weight solver as a batched algorithm (the
    IDs are unused by the decomposition, as in the paper)."""
    from .fast_decomposition import run_fast_dfree

    def fast_forward(graph: Graph, ids: List[int]) -> ExecutionTrace:
        sol = run_fast_dfree(graph, d)
        return ExecutionTrace(
            rounds=sol.rounds,
            outputs=sol.outputs,
            algorithm="fast-dfree",
            meta={"iterations": sol.iterations},
        )

    return ScheduleReplay(f"fast-dfree-replay(d={d})", fast_forward)


def replay_generic_phases(
    k: int,
    variant: str = "2.5",
    gammas: Optional[Sequence[int]] = None,
    **kw,
) -> ScheduleReplay:
    """The generic phase algorithm as a batched algorithm.  With
    ``gammas=None`` the phase schedule defaults per instance from
    ``graph.n`` (Lemma 14's choices for the variant)."""
    from .generic_phases import (
        default_gammas_25,
        default_gammas_35,
        run_generic_fast_forward,
    )

    def fast_forward(graph: Graph, ids: List[int]) -> ExecutionTrace:
        gs = gammas
        if gs is None:
            gs = (
                default_gammas_25(graph.n, k)
                if variant == "2.5"
                else default_gammas_35(graph.n, k)
            )
        return run_generic_fast_forward(graph, ids, k, gs, variant, **kw)

    return ScheduleReplay(f"generic-phases-replay(k={k},{variant})", fast_forward)
