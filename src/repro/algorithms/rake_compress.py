"""Rake-and-compress (gamma, ell, L)-decompositions (Definition 71,
Lemma 72, Section 11.2).

Iteratively, for ``i = 1, 2, ...``:

* **rake** ``gamma`` times: remove nodes of degree <= 1 in the remaining
  forest (sublayer ``V^R_{i,j}``); a 2-node component sheds only its
  smaller-handle endpoint so sublayers stay independent sets;
* **compress**: every maximal run of >= ``ell`` consecutive degree-2 nodes
  is removed (layer ``V^C_i``), split into paths of length in
  ``[ell, 2*ell]`` by promoting separator nodes to the next rake layer
  ``V^R_{i+1,1}`` (the splitting the paper's Section 11.7 performs with a
  precomputed coloring).

With ``gamma = 1`` the decomposition has ``O(log n)`` layers; with
``gamma ~ n^{1/k}`` it has ``k`` rake layers (Lemma 72) — both shapes are
checked in tests and regenerated by bench E15.

Every node's layer is recorded as one integer, its removal *step*:
iteration ``i`` spans ``gamma + 1`` steps, so ``V^R_{i,j}`` is step
``(i-1)(gamma+1) + j - 1`` and ``V^C_i`` is step ``(i-1)(gamma+1) +
gamma``.  Steps order exactly like Definition 75's layers.  The passes
write the steps into one int64 array, one scatter per removed batch
(a node never removed would keep ``-1``, which every gather rejects);
:attr:`Decomposition.layer_of` builds the :class:`Layer` tags on first
use, once per distinct step, and :class:`RakeCompressLayering` commits
each node at round ``step + 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..local import vec
from ..local.algorithm import CONTINUE, CommitSchedule, LocalAlgorithm, View
from ..local.graph import Graph

__all__ = [
    "Layer",
    "Decomposition",
    "RakeCompressLayering",
    "rake_compress",
    "gamma_for_k_layers",
    "validate_decomposition",
]


@dataclass(frozen=True, order=True)
class Layer:
    """A layer tag, ordered per Definition 75.

    ``kind`` is "R" (rake) or "C" (compress); rake layers carry a sublayer
    index ``j >= 1``, compress layers use ``j = 0``.  The total order is
    ``V^R_{i,j} < V^R_{i',j'}`` iff ``(i,j) < (i',j')``, ``V^R_{i,*} <
    V^C_i < V^R_{i+1,*}``.
    """

    i: int
    phase: int  # 0 for rake (before compress i), 1 for compress
    j: int
    kind: str = field(compare=False, default="R")

    @staticmethod
    def rake(i: int, j: int) -> "Layer":
        return Layer(i=i, phase=0, j=j, kind="R")

    @staticmethod
    def compress(i: int) -> "Layer":
        return Layer(i=i, phase=1, j=0, kind="C")

    def __repr__(self) -> str:
        if self.kind == "R":
            return f"R({self.i},{self.j})"
        return f"C({self.i})"


def _layer_at(step: int, gamma: int) -> Layer:
    """The layer removed at ``step``: the inverse of the step rule."""
    i, j = divmod(step, gamma + 1)
    return Layer.compress(i + 1) if j == gamma else Layer.rake(i + 1, j + 1)


def _per_step(step: np.ndarray, make) -> List:
    """``[make(s) for s in step]`` with one ``make`` call per distinct
    step: a table over the steps present, then one gather."""
    if step.size == 0:
        return []
    present = np.flatnonzero(np.bincount(step))
    table = np.empty(int(present[-1]) + 1, dtype=object)
    table[present] = [make(s) for s in present.tolist()]
    return table[step].tolist()


@dataclass(eq=False)
class Decomposition:
    """Result of rake-and-compress: per-node layers and structure.

    ``step`` holds every node's removal step as a read-only int64 array
    (``R(i,j)`` is ``(i-1)(gamma+1) + j - 1``, ``C(i)`` is
    ``(i-1)(gamma+1) + gamma``), the one record of the layers;
    ``layer_of`` is derived from it on first use.  Decompositions
    compare by identity.
    """

    graph: Graph
    gamma: int
    ell: int
    step: np.ndarray
    compress_paths: Dict[int, List[List[int]]]  # i -> list of paths (in order)
    num_iterations: int

    def __post_init__(self) -> None:
        self.step.flags.writeable = False

    @cached_property
    def layer_of(self) -> List[Layer]:
        """Every node's :class:`Layer`, one tag per distinct step."""
        return _per_step(self.step, lambda s: _layer_at(s, self.gamma))

    def is_higher(self, u: int, v: int) -> bool:
        """Whether u's layer is strictly higher than v's (Definition 75)."""
        return bool(self.step[u] > self.step[v])


def gamma_for_k_layers(n: int, k: int, ell: int) -> int:
    """Lemma 72's choice ``gamma = n^{1/k} (ell/2)^{1 - 1/k}`` (>= 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return max(1, int(math.ceil(n ** (1 / k) * (ell / 2) ** (1 - 1 / k))))


def rake_compress(
    graph: Graph,
    gamma: int,
    ell: int,
    max_iterations: Optional[int] = None,
    pinned: Sequence[int] = (),
) -> Decomposition:
    """Compute a (gamma, ell, L)-decomposition of a forest.

    ``pinned`` nodes get one unit of virtual degree and are excluded from
    compress runs, so each is the last node removed in its component —
    used to root a decomposition at a designated node (e.g. the
    active-adjacent weight node of Definition 67 instances).

    The rake and compress passes are flat numpy sweeps, and compress
    runs are traced with :func:`repro.local.vec.member_paths`.  They
    equal the sequential per-node removal that ``tests/test_vec.py``
    keeps as their oracle: a rake sublayer's removable low-degree nodes
    pair up into a matching (two adjacent degree-<=1 nodes form a 2-node
    component), so dropping the larger endpoint of every low–low edge
    reproduces the sequential smaller-handle rule; removed batches are
    independent sets (rake) or mutually non-adjacent runs (compress), so
    marking the batch dead and then scatter-decrementing surviving
    neighbours leaves every *read* degree identical to the sequential
    removal order.
    """
    if gamma < 1 or ell < 1:
        raise ValueError("gamma and ell must be >= 1")
    if not graph.is_forest():
        raise ValueError("rake-and-compress requires a forest")
    n = graph.n
    budget = max_iterations if max_iterations is not None else n + 2
    indptr, indices = vec.csr_arrays(graph)

    pinned_mask = np.zeros(n, dtype=bool)
    pinned_list = list(pinned)
    if pinned_list:
        pinned_mask[pinned_list] = True
    deg = (indptr[1:] - indptr[:-1]) + pinned_mask
    alive = np.ones(n, dtype=bool)
    step = np.full(n, -1, dtype=np.int64)
    compress_paths: Dict[int, List[List[int]]] = {}
    remaining = n

    def batch_remove(nodes, s: int) -> None:
        nonlocal remaining
        alive[nodes] = False
        step[nodes] = s
        _src, nbr = vec.expand_segments(indptr, indices, nodes)
        targets = nbr[alive[nbr]]
        if targets.size:
            np.subtract.at(deg, targets, 1)
        remaining -= nodes.size

    i = 0
    while remaining > 0:
        i += 1
        if i > budget:
            raise RuntimeError("rake-and-compress exceeded its iteration budget")
        base = (i - 1) * (gamma + 1)
        # ---- gamma rake sublayers --------------------------------------
        for j in range(1, gamma + 1):
            low = alive & (deg <= 1)
            lo = np.nonzero(low)[0]
            if lo.size:
                src, nbr = vec.expand_segments(indptr, indices, lo)
                pair = low[nbr]
                chosen = low
                if pair.any():
                    chosen = low.copy()
                    chosen[np.maximum(src[pair], nbr[pair])] = False
                batch_remove(np.nonzero(chosen)[0], base + j - 1)
            if remaining == 0:
                break
        if remaining == 0:
            break
        # ---- compress ---------------------------------------------------
        runs = vec.member_paths(graph, alive & (deg == 2) & ~pinned_mask)
        paths_here: List[List[int]] = []
        promoted: List[int] = []
        for run in runs:
            if len(run) < ell:
                continue
            chunks, seps = _split_run(run, ell)
            paths_here.extend(chunks)
            promoted.extend(seps)
        if paths_here:
            flat = [v for path in paths_here for v in path]
            batch_remove(np.array(flat, dtype=np.int64), base + gamma)
        if promoted:
            batch_remove(np.array(promoted, dtype=np.int64), base + gamma + 1)
        if paths_here:
            compress_paths[i] = paths_here
        if not paths_here and not promoted and not bool((alive & (deg <= 1)).any()):
            raise RuntimeError(
                "decomposition stalled (neither rake nor compress applies)"
            )

    return Decomposition(
        graph=graph,
        gamma=gamma,
        ell=ell,
        step=step,
        compress_paths=compress_paths,
        num_iterations=i,
    )


def _split_run(run: List[int], ell: int) -> Tuple[List[List[int]], List[int]]:
    """Split a run of >= ell nodes into chunks of size in [ell, 2*ell],
    promoting one separator node between consecutive chunks.

    Returns (chunks, separators).  Separators are interior nodes of the
    run (never its endpoints).
    """
    m = len(run)
    assert m >= ell
    if m <= 2 * ell:
        return [run], []
    # q chunks need q-1 separators; sizes from m - (q-1) nodes
    q = max(2, math.ceil((m + 1) / (2 * ell + 1)))
    while True:
        usable = m - (q - 1)
        base = usable // q
        if base >= ell or q == 1:
            break
        q -= 1
    usable = m - (q - 1)
    base = usable // q
    rem = usable - base * q
    sizes = [base + 1] * rem + [base] * (q - rem)
    assert all(ell <= s <= 2 * ell + 1 for s in sizes), (m, ell, sizes)
    sizes = [min(s, 2 * ell) for s in sizes]  # clamp the +1 overflow
    # rebuild exact cover: distribute any slack back greedily
    slack = usable - sum(sizes)
    idx = 0
    while slack > 0:
        if sizes[idx % q] < 2 * ell:
            sizes[idx % q] += 1
            slack -= 1
        idx += 1

    chunks: List[List[int]] = []
    seps: List[int] = []
    pos = 0
    for ci, s in enumerate(sizes):
        chunks.append(run[pos : pos + s])
        pos += s
        if ci < q - 1:
            seps.append(run[pos])
            pos += 1
    assert pos == m
    return chunks, seps


class RakeCompressLayering(LocalAlgorithm):
    """Rake-and-compress as a LOCAL execution on forests.

    The decomposition is an inherently local peeling process: one global
    step (a rake sublayer or a compress step) per synchronous round, and a
    node commits the moment its (sub)layer is removed — ``T_v`` is the
    removal step plus one, output the ``repr`` of its :class:`Layer` tag.
    First removals land at round 1 (a node needs one exchange to learn
    its neighbours' degrees).  This gives the engines a staggered-commit
    workload whose commit rounds span the whole execution, unlike the
    all-at-once schedules of Cole–Vishkin or Algorithm A.

    Like :class:`~repro.algorithms.dfree_solver.DFreeAlgorithmA`, the
    wrapper computes the global schedule once per execution and replays
    it.  The schedule reads no IDs, but it is not a LOCAL one: a compress
    step splits each degree-2 run with :func:`_split_run`, by a node's
    offset in its whole run, which is a global fact.  On
    ``path_graph(1001)`` with ``(gamma, ell) = (1, 2)``, 400 of the 500
    middle nodes commit ``C(1)`` at round 2 and 100 commit ``R(2,1)`` at
    round 3, all with the same radius-3 view.  So the ``(T_v, output)``
    pairs this solver reports are not yet LOCAL-achievable; an ID-based
    split, with its rounds charged, is open work (ROADMAP item 9).
    """

    name = "rake-compress-layering"

    def __init__(self, gamma: int = 1, ell: int = 2) -> None:
        if gamma < 1 or ell < 1:
            raise ValueError("gamma and ell must be >= 1")
        self.gamma = gamma
        self.ell = ell
        self._schedule: Optional[Tuple[np.ndarray, List[str]]] = None
        self._due: Optional[CommitSchedule] = None
        self._schedule_graph: Optional[Graph] = None

    def setup(self, graph: Graph, n: int) -> None:
        # the schedule depends only on the (immutable) topology, never on
        # the IDs, so it survives across run_batch ID samples and only
        # drops when the graph changes
        if self._schedule_graph is not graph:
            self._schedule = None
            self._due = None
            self._schedule_graph = graph

    def _rounds(self, graph: Graph) -> Tuple[np.ndarray, List[str]]:
        if self._schedule is None:
            dec = rake_compress(graph, self.gamma, self.ell)
            gamma = self.gamma
            labels = _per_step(dec.step, lambda s: repr(_layer_at(s, gamma)))
            self._schedule = (dec.step + 1, labels)
        return self._schedule

    def decide(self, view: View, n: int):
        rounds, labels = self._rounds(view.graph)
        if view.round < rounds[view.center]:
            return CONTINUE
        return labels[view.center]

    def decide_batch(self, views, live, t: int):
        """Batched form: the schedule, bucketed by round once per graph,
        streams out each round's commits."""
        if self._due is None:
            self._due = CommitSchedule(*self._rounds(views.graph))
        return self._due.due(t)

    def max_rounds_hint(self, n: int) -> int:
        return (self.gamma + 1) * (n + 2) + 4


def validate_decomposition(dec: Decomposition) -> List[str]:
    """Check the Definition-71 properties; returns a list of violations."""
    graph = dec.graph
    issues: List[str] = []
    layer = dec.layer_of

    for i, paths in dec.compress_paths.items():
        for path in paths:
            if not (dec.ell <= len(path) <= 2 * dec.ell):
                issues.append(f"compress path of size {len(path)} in layer C({i})")
            for a, b in zip(path, path[1:]):
                if b not in graph.neighbors(a):
                    issues.append(f"compress path not connected at {a}-{b}")
            interior = set(path[1:-1])
            for idx, v in enumerate(path):
                higher = [w for w in graph.neighbors(v) if layer[w] > layer[v]]
                if idx in (0, len(path) - 1) and len(path) > 1:
                    if len(higher) != 1:
                        issues.append(
                            f"compress endpoint {v} has {len(higher)} higher nbrs"
                        )
                elif v in interior and higher:
                    issues.append(f"compress interior {v} has higher neighbour")

    # rake sublayers are independent sets with <= 1 higher neighbour
    by_layer: Dict[Layer, List[int]] = {}
    for v in graph.nodes():
        by_layer.setdefault(layer[v], []).append(v)
    for lay, nodes in by_layer.items():
        if lay.kind != "R":
            continue
        node_set = set(nodes)
        for v in nodes:
            same = [w for w in graph.neighbors(v) if w in node_set]
            if same:
                issues.append(f"rake sublayer {lay} not independent at {v}")
            higher = [w for w in graph.neighbors(v) if layer[w] > layer[v]]
            if len(higher) > 1:
                issues.append(f"rake node {v} has {len(higher)} higher nbrs")
    return issues
