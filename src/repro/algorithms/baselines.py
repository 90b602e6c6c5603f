"""Baseline algorithms for comparisons.

* :class:`WaitForWholeGraph` — the trivial worst-case-optimal solver:
  every node gathers the entire graph and computes a canonical solution
  centrally (``T_v = ecc(v) + 1``).  Every LCL admits it; its
  node-averaged complexity is Theta(diameter), the upper anchor against
  which the paper's algorithms are compared.
* :func:`run_naive_weighted25` — solves ``Pi^{2.5}`` by having every
  weight node wait for the full active solution before copying:
  node-averaged Theta(worst case), the "no Decline" strawman from the
  paper's introduction (Section 1.2).  It shares the active side and the
  Copy flood of :mod:`repro.algorithms.weighted25`'s ``Pi^Z``
  composition; each whole weight component is one Copy component, so it
  raises ``ValueError`` on a component with several active-adjacent
  nodes, where one copied output cannot match every active neighbour.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..lcl.weighted import decline
from ..local.algorithm import CONTINUE, LocalAlgorithm, View
from ..local.graph import Graph
from ..local.metrics import ExecutionTrace
from .weighted25 import (
    active_root,
    apoly_gammas,
    flood_copy,
    run_active_side,
    weight_components,
)

__all__ = ["WaitForWholeGraph", "run_naive_weighted25"]


class WaitForWholeGraph(LocalAlgorithm):
    """Gather everything, then apply a canonical centralized solver."""

    name = "wait-for-whole-graph"

    def __init__(self, solve: Callable[[Graph, Sequence[int]], list]) -> None:
        """``solve(graph, ids) -> outputs`` is the centralized rule; it is
        evaluated identically by every node once it sees the whole
        component."""
        self._solve = solve
        self._cache: dict = {}
        self._comp_of: Optional[List[int]] = None
        self._comp_graph: Optional[Graph] = None

    def setup(self, graph: Graph, n: int) -> None:
        # the solve memo depends on the IDs, so it resets every run; the
        # component map is topology-only and survives across the ID
        # samples of a run_batch, dropping only on a new graph
        self._cache = {}
        if self._comp_graph is not graph:
            self._comp_of = None
            self._comp_graph = graph

    def decide(self, view: View, n: int):
        if len(view.nodes()) < n and not view.sees_whole_component():
            return CONTINUE
        # memoize per component (keyed by its smallest handle): every node
        # of a component masks IDs outside it identically, but distinct
        # components see distinct ID vectors and need their own solve
        key = min(view.nodes())
        if key not in self._cache:
            ids = [view.id_of(u) if view.contains(u) else 0 for u in range(n)]
            self._cache[key] = self._solve(view.graph, ids)
        return self._cache[key][view.center]

    def decide_batch(self, views, live, t: int):
        """Batched form: readiness comes straight from the scheduler's flat
        completeness/size arrays, and the per-component solve memo is
        shared with :meth:`decide` (a node commits exactly when its ball
        provably covers its component, so the masked ID vector the
        per-node path builds from its ball equals the component mask)."""
        n = views.n
        ready = views.ready(live)
        if not len(ready):
            return (), ()
        if self._comp_of is None:
            self._comp_of = [0] * n
            for comp in views.graph.connected_components():
                # comp[0] is the smallest handle in the component — the
                # same key min(view.nodes()) yields in the per-node path
                for u in comp:
                    self._comp_of[u] = comp[0]
        comp_of, ids = self._comp_of, views.ids
        labels = []
        for v in ready.tolist():
            key = comp_of[v]
            if key not in self._cache:
                masked = [ids[u] if comp_of[u] == key else 0 for u in range(n)]
                self._cache[key] = self._solve(views.graph, masked)
            labels.append(self._cache[key][v])
        return ready, labels

    def max_rounds_hint(self, n: int) -> int:
        return n + 2


def run_naive_weighted25(
    graph: Graph, ids: Sequence[int], delta: int, d: int, k: int,
    gammas=None,
) -> ExecutionTrace:
    """Strawman for ``Pi^{2.5}``: every weight node copies (no Declines),
    so outputs must flood through entire weight trees — per-node times are
    active-time + distance, which drags the average up to the worst case
    (this is the 'grave error' discussed in Section 1.2).

    Each weight component copies one active output, which P5 accepts only
    if every active-adjacent node sees it on an active neighbour, so a
    component with several active-adjacent nodes raises ``ValueError``
    (:func:`~repro.algorithms.weighted25.active_root`), as Lemma 69's
    solver does."""
    if gammas is None:
        gammas = apoly_gammas(graph.n, delta, d, k, "poly")
    active, rounds, outputs = run_active_side(graph, ids, k, gammas, "2.5")

    # flood every weight component from its one active attachment
    active_set = set(active)
    weight = set(graph.nodes()) - active_set
    for comp in weight_components(graph, weight):
        root = active_root(graph, comp, active_set, "the naive baseline")
        if root is None:
            for u in comp:
                outputs[u] = decline()
                rounds[u] = 1
            continue
        flood_copy(graph, ids, rounds, outputs, active_set, root, comp, 0)
    return ExecutionTrace(
        rounds=rounds, outputs=outputs, algorithm="naive-weighted25", meta={}
    )
