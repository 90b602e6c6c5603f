"""Solvers for k-hierarchical labeling (Lemma 65) and the weight-augmented
2½-coloring (Lemma 69).

The labeling solver computes a ``(O(n^{1/k}), 4, k)``-decomposition and
translates it into labels exactly as in Lemma 65's proof: rake layer
``V^R_{i,j}`` nodes take ``R_i`` and orient to their unique higher-layer
neighbour; compress paths take ``C_i`` inside, their endpoints are
relabeled ``R_{i+1}`` pointing at their higher-layer neighbour, and the
interior nodes adjacent to an endpoint orient toward it.

Round accounting (used for the Theta(n^{1/k}) node-averaged measurements
of Lemma 69 / bench E10): each rake sublayer costs one round, each
compress layer costs ``2*ell`` rounds (path gathering); a node's label
time is the prefix cost up to its layer.

The weight-augmented solver shares the active side and the weight
component DFS of :mod:`repro.algorithms.weighted25`'s ``Pi^Z``
composition.  It roots each weight component's decomposition at its
(unique) active-adjacent node, which then points at the active neighbour
and copies its output (rule 3); secondaries propagate along the
orientation per the clarified rules of :mod:`repro.lcl.labeling`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..lcl.labeling import (
    SECONDARY_DECLINE,
    compress_label,
    rake_label,
)
from ..lcl.weighted import WEIGHT
from ..local.graph import Graph
from ..local.metrics import ExecutionTrace
from .rake_compress import Decomposition, Layer, gamma_for_k_layers, rake_compress
from .weighted25 import active_root, run_active_side, weight_components

__all__ = ["solve_hierarchical_labeling", "run_weight_augmented_solver", "LabelingSolution"]

_ELL = 4


class LabelingSolution:
    """Labels, orientations and per-node times for a labeling instance."""

    def __init__(
        self,
        labels: Dict[int, str],
        out: Dict[int, Optional[int]],
        times: Dict[int, int],
        decomposition: Decomposition,
    ) -> None:
        self.labels = labels
        self.out = out
        self.times = times
        self.decomposition = decomposition

    def as_outputs(self, n: int) -> List:
        return [
            (self.labels[v], self.out[v]) if v in self.labels else None
            for v in range(n)
        ]


def solve_hierarchical_labeling(
    graph: Graph,
    k: int,
    members: Optional[Sequence[int]] = None,
    pinned: Sequence[int] = (),
    gamma: Optional[int] = None,
) -> LabelingSolution:
    """Lemma 65: solve k-hierarchical labeling in O(n^{1/k}) rounds.

    ``members`` restricts to an induced subgraph (handles stay global);
    ``pinned`` roots component decompositions at the given nodes.

    The ``(T_v, output)`` pairs (``times`` and labels) are not yet
    LOCAL-achievable: the decomposition's compress steps split each
    degree-2 run by a node's offset in its whole run
    (``rake_compress._split_run``), which is a global fact.  On
    ``path_graph(1001)`` with ``k = 2``, middle nodes with the same view
    get ``C1`` or ``R2``, most of them at the same time, 53.  An ID-based
    split is open work (ROADMAP item 9).
    """
    if members is None:
        sub, remap = graph, {v: v for v in graph.nodes()}
    else:
        sub, remap = graph.induced_subgraph(members)
    inv = {new: old for old, new in remap.items()}

    g = gamma if gamma is not None else gamma_for_k_layers(max(2, sub.n), k, _ELL)
    dec = rake_compress(sub, g, _ELL, pinned=[remap[p] for p in pinned])
    if dec.num_iterations > k:
        raise ValueError(
            f"decomposition used {dec.num_iterations} iterations > k={k}; "
            "increase gamma"
        )

    labels: Dict[int, str] = {}
    out: Dict[int, Optional[int]] = {}

    # rake nodes: R_i pointing at the unique higher-layer neighbour
    for new in sub.nodes():
        layer = dec.layer_of[new]
        if layer.kind != "R":
            continue
        labels[inv[new]] = rake_label(layer.i)
        higher = [
            w for w in sub.neighbors(new) if dec.layer_of[w] > layer
        ]
        assert len(higher) <= 1, "rake node with two higher neighbours"
        out[inv[new]] = inv[higher[0]] if higher else None

    # compress paths: C_i interior, R_{i+1} endpoints
    for i, paths in dec.compress_paths.items():
        for path in paths:
            layer = Layer.compress(i)
            for idx, new in enumerate(path):
                old = inv[new]
                if idx in (0, len(path) - 1):
                    labels[old] = rake_label(i + 1)
                    higher = [
                        w for w in sub.neighbors(new) if dec.layer_of[w] > layer
                    ]
                    assert len(higher) == 1, "compress endpoint without higher nbr"
                    out[old] = inv[higher[0]]
                else:
                    labels[old] = compress_label(i)
                    if idx == 1:
                        out[old] = inv[path[0]]
                    elif idx == len(path) - 2:
                        out[old] = inv[path[-1]]
                    else:
                        out[old] = None
    # a 4-node path has interiors at idx 1 and 2 = len-2: idx==1 wins above;
    # re-point idx len-2 when it coincides with idx 1 is fine either way.

    times = _layer_times(dec, inv)
    return LabelingSolution(labels, out, times, dec)


def _layer_times(dec: Decomposition, inv: Dict[int, int]) -> Dict[int, int]:
    """Cumulative round at which each layer's nodes know their label."""
    present = sorted(set(dec.layer_of))
    cost_after: Dict[Layer, int] = {}
    t = 0
    for layer in present:
        t += 1 if layer.kind == "R" else 2 * _ELL
        cost_after[layer] = t
    return {inv[new]: cost_after[dec.layer_of[new]] for new in range(len(dec.layer_of))}


def run_weight_augmented_solver(
    graph: Graph,
    ids: Sequence[int],
    k: int,
    id_exponent: int = 3,
) -> ExecutionTrace:
    """Lemma 69's upper bound for weight-augmented 2½-coloring.

    Active nodes run the generic phase algorithm with
    ``gamma_i = n^{1/k}`` (the x = 1 exponents); weight components solve
    the labeling rooted at their active-adjacent node and flood
    secondaries along the orientation.
    """
    gammas = [max(2, int(round(graph.n ** (1.0 / k))))] * (k - 1)
    active, rounds, outputs = run_active_side(
        graph, ids, k, gammas, "2.5", id_exponent
    )
    weight = [v for v in graph.nodes() if graph.input_of(v) == WEIGHT]

    if weight:
        active_set = set(active)
        roots = []
        weight_set = set(weight)
        for comp_nodes in weight_components(graph, weight_set):
            root = active_root(graph, comp_nodes, active_set,
                               "the Lemma 69 solver")
            if root is not None:
                roots.append(root)

        sol = solve_hierarchical_labeling(graph, k, members=weight, pinned=roots)

        # secondary resolution along the orientation
        secondary: Dict[int, object] = {}
        sec_time: Dict[int, int] = {}

        def resolve(v: int) -> None:
            stack = [v]
            path = []
            while True:
                u = stack[-1]
                if u in secondary:
                    break
                a_nbrs = [w for w in graph.neighbors(u) if w in active_set]
                if a_nbrs:
                    a = min(a_nbrs, key=lambda w: ids[w])
                    secondary[u] = outputs[a]
                    sec_time[u] = rounds[a] + 1
                    sol.out[u] = a  # rule 3 orientation
                    break
                if sol.labels[u].startswith("C"):
                    secondary[u] = SECONDARY_DECLINE
                    sec_time[u] = sol.times[u]
                    break
                target = sol.out.get(u)
                if target is None or target not in weight_set:
                    secondary[u] = "E"  # free non-Decline choice for rake sinks
                    sec_time[u] = sol.times[u]
                    break
                path.append(u)
                stack.append(target)
            # unwind
            for u in reversed(path):
                secondary[u] = secondary[sol.out[u]]
                sec_time[u] = sec_time[sol.out[u]] + 1

        for v in weight:
            resolve(v)
        for v in weight:
            outputs[v] = (sol.labels[v], sol.out[v], secondary[v])
            rounds[v] = max(sol.times[v], sec_time[v])

    missing = [v for v in graph.nodes() if outputs[v] is None]
    if missing:
        raise RuntimeError(f"{len(missing)} nodes left unlabeled")
    return ExecutionTrace(
        rounds=rounds,
        outputs=outputs,
        algorithm="weight-augmented-2.5",
        meta={},
    )

