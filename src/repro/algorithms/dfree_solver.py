"""Algorithm A for the d-free weight problem (Section 7).

Given a forest with inputs ``A`` (weight nodes touching an active node) and
``W``, with ``L = ceil(log_{d+1} n)``:

* every node on a path of length <= ``2L + 2`` between two ``A``-nodes
  outputs ``Connect``;
* every remaining ``A``-node ``v`` takes its radius-``(L+1)`` ball
  ``U^_v``, forces the frontier (distance exactly ``L+1``) to ``Decline``,
  and assigns ``Copy``/``Decline`` inside so that ``v`` copies, every
  ``Copy`` node has at most ``d`` ``Decline`` neighbours, and the number
  of ``Copy`` nodes is minimum (paper property 5);
* everything else declines.

All nodes decide after ``R = 3L + 3`` rounds (worst case O(log n),
Corollary 38).  :class:`DFreeSolution` is the one solution shape of both
d-free solvers (this one and
:func:`repro.algorithms.fast_decomposition.run_fast_dfree`): per-node
labels and rounds, and each Copy root's component, which the ``Pi^Z``
composition floods.  Two assignment procedures are provided:

* :func:`astar_assignment` — the sequential ``A*`` of Lemma 37's proof
  (decline the ``d`` heaviest subtrees under every Copy node), which
  witnesses feasibility and the Lemma 40 bound
  ``|U^_Copy| <= 6 |U^|^x`` with ``x = log(D-1-d)/log(D-1)``;
* :func:`optimal_copy_assignment` — an exact tree DP minimizing the Copy
  count (never worse than ``A*``, so the Lemma 40 bound transfers).
  The DP minimum is also the quantity Lemma 23 lower-bounds by ``w^x``
  on balanced trees — bench E8 measures exactly this.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..lcl.dfree import A_INPUT, CONNECT, COPY, DECLINE, W_INPUT
from ..local.algorithm import CONTINUE, LocalAlgorithm, View
from ..local.graph import Graph

__all__ = [
    "dfree_radius",
    "run_algorithm_a",
    "astar_assignment",
    "optimal_copy_assignment",
    "DFreeSolution",
    "DFreeAlgorithmA",
]

_INF = float("inf")


def dfree_radius(n: int, d: int) -> Tuple[int, int]:
    """``(L, R) = (ceil(log_{d+1} n), 3L + 3)``."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    L = max(1, math.ceil(math.log(max(2, n), d + 1)))
    return L, 3 * L + 3


@dataclass
class DFreeSolution:
    """A d-free weight solution, as both solvers return it: Algorithm A
    here and the fast decomposition of
    :mod:`repro.algorithms.fast_decomposition`."""

    outputs: List[str]
    rounds: List[int]
    # per-node termination round; Algorithm A's is R = 3L + 3 everywhere
    copy_component_of: Dict[int, List[int]]
    # for each A-node v taken as a Copy root: the connected Copy component
    # around it (Observation 39, Lemma 50), empty if v does not copy
    iterations: int = 0
    # the fast solver's decomposition iterations (0 for Algorithm A)


def run_algorithm_a(
    graph: Graph,
    d: int,
    n_global: Optional[int] = None,
    optimal: bool = True,
) -> DFreeSolution:
    """Run Algorithm A on a d-free instance (inputs ``A``/``W``).

    ``n_global`` is the network size used for the radius schedule (defaults
    to ``graph.n``; the Pi^Z solvers pass the full network size).
    ``optimal=True`` uses the exact DP; ``False`` uses the sequential A*.
    """
    n = n_global if n_global is not None else graph.n
    L, R = dfree_radius(n, d)
    outputs: List[Optional[str]] = [None] * graph.n
    a_nodes = [v for v in graph.nodes() if graph.input_of(v) == A_INPUT]
    for v in graph.nodes():
        if graph.input_of(v) not in (A_INPUT, W_INPUT):
            raise ValueError(f"node {v} has input {graph.input_of(v)!r}")

    _mark_connect_paths(graph, a_nodes, 2 * L + 2, outputs)

    copy_component_of: Dict[int, List[int]] = {}
    for v in a_nodes:
        if outputs[v] == CONNECT:
            continue
        ball = graph.ball(v, L + 1)
        frontier = {u for u, dist in ball.items() if dist == L + 1}
        assign = (optimal_copy_assignment if optimal else astar_assignment)(
            graph, v, set(ball), frontier, d
        )
        for u, lab in assign.items():
            if outputs[u] is None:
                outputs[u] = lab
        copy_component_of[v] = _copy_component(graph, v, assign)

    for v in graph.nodes():
        if outputs[v] is None:
            outputs[v] = DECLINE
    return DFreeSolution(
        outputs=[o for o in outputs],  # type: ignore[misc]
        rounds=[R] * graph.n,
        copy_component_of=copy_component_of,
    )


def _mark_connect_paths(
    graph: Graph, a_nodes: Sequence[int], max_len: int, outputs: List[Optional[str]]
) -> None:
    """Mark every node on a path of length <= max_len between two A-nodes."""
    a_set = set(a_nodes)
    indptr, indices = graph.adjacency()
    for src in a_nodes:
        dist = {src: 0}
        parent: Dict[int, Optional[int]] = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            if dist[u] == max_len:
                continue
            for i in range(indptr[u], indptr[u + 1]):
                w = indices[i]
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
        for other in dist:
            if other != src and other in a_set:
                node: Optional[int] = other
                while node is not None:
                    outputs[node] = CONNECT
                    node = parent[node]


def _copy_component(graph: Graph, v: int, assign: Dict[int, str]) -> List[int]:
    """The connected component of Copy nodes containing ``v``."""
    if assign.get(v) != COPY:
        return []
    comp = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for w in graph.neighbors(u):
            if w not in comp and assign.get(w) == COPY:
                comp.add(w)
                stack.append(w)
    return sorted(comp)


class DFreeAlgorithmA(LocalAlgorithm):
    """Algorithm A as a simulator algorithm: every node commits its
    ``Copy``/``Decline``/``Connect`` label at the common round
    ``R = 3L + 3``.

    The per-round behaviour (``CONTINUE`` until ``R``, commit at ``R``)
    is what the engines execute and compare; the decision rule itself
    uses the standard simulation shortcut — the paper proves every output
    of Algorithm A is a function of the radius-``R`` ball (Corollary 38:
    Connect paths have length ``<= 2L + 2``, assignment balls radius
    ``L + 1``), so the wrapper computes the centralized solution once per
    execution and reads each node's label out of it instead of re-deriving
    it ball by ball.  Deterministic in the IDs-free sense: the solution
    depends only on the topology and inputs, never on the ID assignment.
    """

    def __init__(self, d: int, optimal: bool = True) -> None:
        self.d = d
        self.optimal = optimal
        self.name = f"dfree-algorithm-a-d{d}"
        self._R = 0
        self._solution: Optional[DFreeSolution] = None
        self._solution_graph: Optional[Graph] = None

    def setup(self, graph: Graph, n: int) -> None:
        self._R = dfree_radius(n, self.d)[1]
        # the solution is a pure function of the (immutable) topology and
        # inputs — never of the IDs — so the memo survives across the ID
        # samples of a run_batch and only drops on a new graph
        if self._solution_graph is not graph:
            self._solution = None
            self._solution_graph = graph

    def _solve(self, graph: Graph, n: int) -> DFreeSolution:
        if self._solution is None:
            self._solution = run_algorithm_a(
                graph, self.d, n_global=n, optimal=self.optimal
            )
        return self._solution

    def decide(self, view: View, n: int):
        if view.round < self._R:
            return CONTINUE
        return self._solve(view.graph, n).outputs[view.center]

    def decide_batch(self, views, live, t: int):
        """Batched form: one centralized solve, then the whole live set
        commits at once when the schedule fires."""
        if t < self._R:
            return (), ()
        outputs = self._solve(views.graph, views.n).outputs
        return live, [outputs[v] for v in live.tolist()]

    def max_rounds_hint(self, n: int) -> int:
        return dfree_radius(n, self.d)[1] + 4


# ----------------------------------------------------------------------
# sequential A* (Lemma 37)
# ----------------------------------------------------------------------
def astar_assignment(
    graph: Graph, root: int, ball: Set[int], frontier: Set[int], d: int
) -> Dict[int, str]:
    """The Lemma-37 procedure: root copies; every Copy node declines its
    ``min(d, #children)`` heaviest child subtrees and copies the rest."""
    children, order = _rooted(graph, root, ball)
    subtree_size = {u: 1 for u in ball}
    for u in reversed(order):
        for c in children[u]:
            subtree_size[u] += subtree_size[c]

    assign: Dict[int, str] = {}

    def decline_subtree(u: int) -> None:
        stack = [u]
        while stack:
            x = stack.pop()
            assign[x] = DECLINE
            stack.extend(children[x])

    assign[root] = COPY
    queue = deque([root])
    while queue:
        u = queue.popleft()
        kids = sorted(children[u], key=lambda c: -subtree_size[c])
        budget = min(d, len(kids))
        for c in kids[:budget]:
            decline_subtree(c)
        for c in kids[budget:]:
            assign[c] = COPY
            queue.append(c)
    # frontier must decline; A* guarantees this when the ball radius is
    # >= log_{d+1} of the ball size (Lemma 37) — enforce defensively
    for u in frontier:
        if assign.get(u) == COPY:
            raise AssertionError("A* pushed Copy onto the ball frontier")
    return assign


# ----------------------------------------------------------------------
# exact DP (property 5: minimum number of Copy nodes)
# ----------------------------------------------------------------------
def optimal_copy_assignment(
    graph: Graph, root: int, ball: Set[int], frontier: Set[int], d: int
) -> Dict[int, str]:
    """Minimum-Copy assignment on the ball rooted at ``root``.

    Constraints: root copies; frontier declines; a Copy node has at most
    ``d`` Decline neighbours.  ``cost[u][lab][pd]`` = min copies in the
    subtree of ``u`` given ``u``'s label and whether its parent declines.
    """
    children, order = _rooted(graph, root, ball)
    cost: Dict[int, Dict[str, Dict[bool, float]]] = {}
    choice: Dict[int, Dict[str, Dict[bool, Tuple[int, ...]]]] = {}

    for u in reversed(order):
        cost[u] = {COPY: {}, DECLINE: {}}
        choice[u] = {COPY: {}, DECLINE: {}}
        kids = children[u]
        for pd in (False, True):
            # u declines: children unconstrained at u, but see pd=True
            total = 0.0
            for c in kids:
                total += min(cost[c][COPY][True], cost[c][DECLINE][True])
            cost[u][DECLINE][pd] = total
            # u copies
            if u in frontier and u != root:
                cost[u][COPY][pd] = _INF
                choice[u][COPY][pd] = ()
                continue
            budget = d - (1 if pd else 0)
            forced = [c for c in kids if cost[c][COPY][False] == _INF]
            optional = [c for c in kids if cost[c][COPY][False] < _INF]
            if len(forced) > budget:
                cost[u][COPY][pd] = _INF
                choice[u][COPY][pd] = ()
                continue
            declined: List[int] = list(forced)
            total = 1.0
            total += sum(cost[c][DECLINE][False] for c in forced)
            total += sum(cost[c][COPY][False] for c in optional)
            deltas = sorted(
                (cost[c][DECLINE][False] - cost[c][COPY][False], c)
                for c in optional
            )
            for delta, c in deltas:
                if len(declined) >= budget or delta >= 0:
                    break
                total += delta
                declined.append(c)
            cost[u][COPY][pd] = total
            choice[u][COPY][pd] = tuple(declined)

    if cost[root][COPY][False] == _INF:
        raise AssertionError("no feasible assignment with Copy at the root")

    assign: Dict[int, str] = {}
    stack: List[Tuple[int, str, bool]] = [(root, COPY, False)]
    while stack:
        u, lab, pd = stack.pop()
        assign[u] = lab
        if lab == DECLINE:
            for c in children[u]:
                best = (
                    COPY
                    if cost[c][COPY][True] <= cost[c][DECLINE][True]
                    else DECLINE
                )
                stack.append((c, best, True))
        else:
            declined = set(choice[u][COPY][pd])
            for c in children[u]:
                stack.append((c, DECLINE if c in declined else COPY, False))
    return assign


def _rooted(
    graph: Graph, root: int, ball: Set[int]
) -> Tuple[Dict[int, List[int]], List[int]]:
    """Children lists and a BFS order of the ball viewed as a tree rooted
    at ``root``."""
    children: Dict[int, List[int]] = {u: [] for u in ball}
    order = [root]
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if w in ball and w not in seen:
                seen.add(w)
                children[u].append(w)
                order.append(w)
                queue.append(w)
    return children, order
