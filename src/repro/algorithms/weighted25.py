"""The ``Pi^Z`` composition (Sections 7.1 and 8.2), and A_poly (Theorem 2).

Theorems 2 and 5 solve ``Pi^{2.5}`` and ``Pi^{3.5}`` with one composition
of three parts (:func:`solve_pi_z`):

* the active side (:func:`run_active_side`): active nodes run the generic
  phase algorithm (Section 4.1) on their components, with levels
  restricted to them;
* the weight side: weight nodes solve the d-free weight problem on the
  induced weight forest, where every weight node adjacent to an active
  node takes input ``A`` and the rest ``W``; ``Connect`` and ``Decline``
  nodes terminate at the d-free solver's round;
* the Copy flood (:func:`flood_copy`): each Copy component ``C(u)`` (one
  ``A``-node ``u`` per component, Observation 39) waits for ``u``'s
  earliest active neighbour ``v`` to commit, then floods ``v``'s output
  through the component as the secondary output — node ``w`` commits at
  ``max(T_u, T_v + 1) + dist_C(u, w)``.

Only the weight solver and the gamma regime differ between the theorems.
A_poly (Theorem 2) runs Algorithm A on the weight side, where every node
terminates at ``R = 3*ceil(log_{d+1} n) + 3``, with ``gamma_i =
n^{alpha_i}``, the Lemma-33 exponents at ``x = log(Delta-1-d)/log(Delta-1)``;
its node-averaged complexity is ``O(n^{alpha_1})``.  Theorem 5's solver
(:mod:`repro.algorithms.weighted35`) runs Section 8.1's fast
decomposition in the ``log*`` regime.  The naive baseline and Lemma 69's
solver reuse the active side and the component and distance BFS, and
both take only weight components with at most one active-adjacent node
(:func:`active_root`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.landscape import alpha_vector_poly, efficiency_factor
from ..lcl.dfree import A_INPUT, CONNECT as DF_CONNECT, COPY as DF_COPY, W_INPUT
from ..lcl.weighted import ACTIVE, WEIGHT, connect, copy_of, decline
from ..local.graph import Graph
from ..local.metrics import ExecutionTrace
from .dfree_solver import DFreeSolution, run_algorithm_a
from .generic_phases import run_generic_fast_forward
from ..analysis.mathutil import log_star

__all__ = ["apoly_gammas", "run_weighted_solver", "run_apoly", "run_a35"]


def apoly_gammas(n: int, delta: int, d: int, k: int, regime: str = "poly") -> List[int]:
    """The phase parameters of A_poly (polynomial regime,
    ``gamma_i = n^{alpha_i}``) or of the Section-8.2 algorithm
    (``gamma_i = (log* n)^{alpha_i}`` with the relaxed ``x'``)."""
    if regime == "poly":
        x = efficiency_factor(delta, d)
        base = float(n)
    elif regime == "logstar":
        from ..analysis.landscape import alpha_vector_logstar, efficiency_factor_relaxed

        x = efficiency_factor_relaxed(delta, d)
        base = float(max(2, log_star(n)))
        return [
            max(2, int(round(base**a))) for a in alpha_vector_logstar(x, k)
        ]
    else:
        raise ValueError("regime must be 'poly' or 'logstar'")
    return [max(2, int(round(base**a))) for a in alpha_vector_poly(x, k)]


def run_weighted_solver(
    graph: Graph,
    ids: Sequence[int],
    delta: int,
    d: int,
    k: int,
    variant: str = "2.5",
    gammas: Optional[Sequence[int]] = None,
    id_exponent: int = 3,
) -> ExecutionTrace:
    """Solve ``Pi^Z_{Delta,d,k}`` on a graph with Active/Weight inputs,
    with Algorithm A on the weight side.

    ``variant='2.5'`` is A_poly (Theorem 2); ``variant='3.5'`` takes the
    ``log*``-regime gammas and relaxed efficiency ``x'`` of Section 8.2 —
    the Algorithm-A baseline of Theorem 5's solver
    (:func:`repro.algorithms.weighted35.run_weighted35`), which runs the
    fast decomposition on the weight side instead.
    """
    n = graph.n
    if gammas is None:
        regime = "poly" if variant == "2.5" else "logstar"
        gammas = apoly_gammas(n, delta, d, k, regime)
    rounds, outputs, sol = solve_pi_z(
        graph, ids, k, gammas, variant, id_exponent,
        lambda forest: run_algorithm_a(forest, d, n_global=n),
    )
    return ExecutionTrace(
        rounds=rounds,
        outputs=outputs,
        algorithm=f"a_poly-{variant}",
        meta={
            "gammas": list(gammas),
            "dfree_rounds": sol.rounds[0] if sol is not None else 0,
        },
    )


def run_apoly(graph, ids, delta, d, k, **kw) -> ExecutionTrace:
    """Theorem 2's algorithm for ``Pi^{2.5}_{Delta,d,k}``."""
    return run_weighted_solver(graph, ids, delta, d, k, "2.5", **kw)


def run_a35(graph, ids, delta, d, k, **kw) -> ExecutionTrace:
    """The Section-8.2-style composition for ``Pi^{3.5}_{Delta,d,k}``
    using Algorithm A for the weight side (baseline; the O(1)-averaged
    weight solver is in :mod:`repro.algorithms.weighted35`)."""
    return run_weighted_solver(graph, ids, delta, d, k, "3.5", **kw)


def solve_pi_z(
    graph: Graph,
    ids: Sequence[int],
    k: int,
    gammas: Sequence[int],
    variant: str,
    id_exponent: int,
    solve_weight: Callable[[Graph], DFreeSolution],
) -> Tuple[List[int], List, Optional[DFreeSolution]]:
    """The one ``Pi^Z`` composition; ``solve_weight`` solves the d-free
    weight problem on the induced weight forest (``A``/``W`` inputs).

    Returns per-node rounds and outputs, and the weight side's solution
    (``None`` when there are no weight nodes).
    """
    active, rounds, outputs = run_active_side(
        graph, ids, k, gammas, variant, id_exponent
    )
    weight = [v for v in graph.nodes() if graph.input_of(v) == WEIGHT]
    sol = None
    if weight:
        active_set = set(active)
        # weight is sorted, so forest node i is weight[i]
        forest = graph.induced_subgraph(weight)[0].with_inputs([
            A_INPUT
            if any(w in active_set for w in graph.neighbors(v))
            else W_INPUT
            for v in weight
        ])
        sol = solve_weight(forest)
        for new, old in enumerate(weight):
            lab = sol.outputs[new]
            if lab != DF_COPY:
                outputs[old] = connect() if lab == DF_CONNECT else decline()
                rounds[old] = sol.rounds[new]
        for root, comp in sol.copy_component_of.items():
            if comp:
                flood_copy(
                    graph, ids, rounds, outputs, active_set, weight[root],
                    [weight[w] for w in comp], sol.rounds[root],
                )

    missing = sum(1 for o in outputs if o is None)
    if missing:
        raise RuntimeError(f"weighted solver left {missing} nodes unlabeled")
    return rounds, outputs, sol


def run_active_side(
    graph: Graph,
    ids: Sequence[int],
    k: int,
    gammas: Sequence[int],
    variant: str,
    id_exponent: int = 3,
) -> Tuple[List[int], List[int], List]:
    """The generic phase algorithm on the active nodes, with levels
    restricted to them.

    Returns ``(active nodes, rounds, outputs)``; every other node keeps
    round 0 and output ``None``.
    """
    active = [v for v in graph.nodes() if graph.input_of(v) == ACTIVE]
    if not active:
        return active, [0] * graph.n, [None] * graph.n
    tr = run_generic_fast_forward(
        graph, ids, k, gammas, variant, id_exponent=id_exponent, restrict=active
    )
    return active, tr.rounds, tr.outputs


def flood_copy(
    graph: Graph,
    ids: Sequence[int],
    rounds: List[int],
    outputs: List,
    active_set: Set[int],
    root: int,
    comp: Sequence[int],
    ready: int,
) -> None:
    """Copy the output of ``root``'s earliest active neighbour ``v`` (by
    ``(T_v, ID)``) through the connected weight set ``comp``: node ``w``
    commits ``Copy(v's output)`` at ``max(ready, T_v + 1) + dist(root, w)``."""
    v = min(
        (w for w in graph.neighbors(root) if w in active_set),
        key=lambda w: (rounds[w], ids[w]),
    )
    start = max(ready, rounds[v] + 1)
    dist = component_distances(graph, root, set(comp))
    for w in comp:
        outputs[w] = copy_of(outputs[v])
        rounds[w] = start + dist[w]


def weight_components(graph: Graph, members: Set[int]) -> List[List[int]]:
    """The components of the subgraph induced by ``members``, by smallest
    node, each in depth-first discovery order from that node."""
    comps = []
    seen: Set[int] = set()
    for v in sorted(members):
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        stack = [v]
        while stack:
            u = stack.pop()
            for w in graph.neighbors(u):
                if w in members and w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def active_root(graph: Graph, comp: Sequence[int], active_set: Set[int],
                solver: str) -> Optional[int]:
    """The one node of the weight component ``comp`` with an active
    neighbour, or None when no node has one.  ``ValueError`` naming
    ``solver`` when several have one: the naive baseline and Lemma 69's
    solver root each weight component at a single active-adjacent node."""
    adjacent = [
        v for v in comp if any(w in active_set for w in graph.neighbors(v))
    ]
    if len(adjacent) > 1:
        raise ValueError(
            "weight component with several active-adjacent nodes is "
            f"not supported by {solver}"
        )
    return adjacent[0] if adjacent else None


def component_distances(graph: Graph, source: int, comp: Set[int]) -> Dict[int, int]:
    """BFS distances from ``source`` inside the node set ``comp``."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if w in comp and w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist
