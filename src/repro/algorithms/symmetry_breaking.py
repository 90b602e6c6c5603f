"""Symmetry breaking on paths: Cole–Vishkin 3-coloring and canonical
2-coloring.

These are the two primitives of the generic phase algorithm (Section 4.1):
phase ``k`` of 3½-coloring 3-colours the surviving level-``k`` paths in
``O(log* n)`` rounds [Lin92], and phase ``k`` of 2½-coloring 2-colours them
in linear time (2-coloring needs to see the whole path — this is what makes
2½-coloring polynomially hard and gives the ``Theta(n)`` node-averaged
baseline of Corollary 60 / experiment E12).

Cole–Vishkin needs an out-degree-1 orientation, but orienting path edges
toward the larger ID gives out-degree up to 2 (local minima point both
ways).  We therefore use the standard forest decomposition: rank each
node's outgoing edges by target ID, obtaining two forests ``F1``/``F2``
with out-degree <= 1 each; run the CV bit-trick on both forests in
parallel to 6 colours, shed to 3 colours per forest, and finally shed the
9 composite colours down to 3 on the path.  Total rounds:
``cv_iterations(space) + 9``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..local.algorithm import CONTINUE, CommitSchedule, LocalAlgorithm, View
from ..local.graph import Graph
from ..local.ids import id_space_size
from ..local.message import MessageAlgorithm, NodeInfo, run_message_dynamics

__all__ = [
    "cv_iterations",
    "cv_total_rounds",
    "cv_step",
    "three_color_path",
    "ColeVishkin3Coloring",
    "CanonicalTwoColoring",
    "two_coloring_fast_forward",
]

_SHED_ROUNDS = 9  # 3 per-forest rounds (6 -> 3) + 6 composite rounds (9 -> 3)

#: lowest colour of {0, 1, 2} present in an availability bitmask — the
#: vectorized ``next(c for c in (0, 1, 2) if c not in used)``; index 0
#: (no colour free) cannot occur on degree-<=2 neighbourhoods.
_LOWEST_FREE = np.array([-1, 0, 1, 0, 2, 0, 1, 0], dtype=np.int64)

#: position of the lowest set bit of every nonzero byte — ``cv_step``'s
#: ``(diff & -diff).bit_length() - 1`` once labels fit in uint8; index 0
#: (equal adjacent labels) is rejected before the lookup.
_LOWEST_SET_BIT = np.array(
    [0] + [(x & -x).bit_length() - 1 for x in range(1, 256)], dtype=np.uint8
)


# ----------------------------------------------------------------------
# schedule and pure steps
# ----------------------------------------------------------------------
def cv_iterations(space: int) -> int:
    """Bit-trick iterations to reach <= 6 colours from labels in
    ``{0..space}`` — the deterministic schedule every node derives from
    ``n`` (this is where the ``log*`` comes from)."""
    if space < 1:
        raise ValueError("space must be >= 1")
    k = space + 1
    iters = 0
    while k > 6:
        bits = max(1, math.ceil(math.log2(k)))
        k = 2 * bits
        iters += 1
    return iters


def cv_total_rounds(space: int) -> int:
    """Iterations plus the nine colour-shedding rounds."""
    return cv_iterations(space) + _SHED_ROUNDS


def cv_step(label: int, parent_label: Optional[int]) -> int:
    """One Cole–Vishkin iteration: ``2*i + bit_i(label)`` for the least bit
    position ``i`` where ``label`` differs from the parent's label; roots
    keep ``<0, bit_0>``."""
    if parent_label is None:
        return label & 1
    diff = label ^ parent_label
    assert diff != 0, "CV step requires distinct adjacent labels"
    i = (diff & -diff).bit_length() - 1
    return 2 * i + ((label >> i) & 1)


def _forest_parents(ids: Sequence[int], neighbors: Sequence[Sequence[int]]):
    """Per-forest parent of each node: outgoing (larger-ID) neighbours
    ranked ascending; rank 0 -> F1, rank 1 -> F2.  Returns two parent
    arrays (entries are node indices or None)."""
    p1: List[Optional[int]] = []
    p2: List[Optional[int]] = []
    for i, nbrs in enumerate(neighbors):
        larger = sorted((j for j in nbrs if ids[j] > ids[i]), key=lambda j: ids[j])
        p1.append(larger[0] if len(larger) >= 1 else None)
        p2.append(larger[1] if len(larger) >= 2 else None)
    return p1, p2


def three_color_path(ids: Sequence[int], space: int) -> Tuple[List[int], int]:
    """Fast-forward Cole–Vishkin on one path (IDs given in path order).

    Returns ``(colors, rounds)``: a proper 3-coloring in {0,1,2} plus the
    common per-node round count ``cv_total_rounds(space)``.  Exactly the
    procedure :class:`ColeVishkin3Coloring` runs distributedly; tests
    assert agreement.
    """
    m = len(ids)
    if m == 0:
        return [], 0
    if len(set(ids)) != m:
        raise ValueError("IDs on a path must be distinct")
    neighbors = [[j for j in (i - 1, i + 1) if 0 <= j < m] for i in range(m)]
    p1, p2 = _forest_parents(ids, neighbors)
    labels1 = list(ids)
    labels2 = list(ids)
    for _ in range(cv_iterations(space)):
        labels1 = [
            cv_step(labels1[i], labels1[p1[i]] if p1[i] is not None else None)
            for i in range(m)
        ]
        labels2 = [
            cv_step(labels2[i], labels2[p2[i]] if p2[i] is not None else None)
            for i in range(m)
        ]
    # per-forest shedding 5, 4, 3 (forest degree <= 2 on a path)
    forest_nbrs = [_forest_neighbor_lists(p, m) for p in (p1, p2)]
    for color in (5, 4, 3):
        labels1 = _shed(labels1, forest_nbrs[0], color, (0, 1, 2))
        labels2 = _shed(labels2, forest_nbrs[1], color, (0, 1, 2))
    composite = [3 * a + b for a, b in zip(labels1, labels2)]
    for color in (8, 7, 6, 5, 4, 3):
        composite = _shed(composite, neighbors, color, (0, 1, 2))
    assert all(composite[i] != composite[j] for i in range(m) for j in neighbors[i])
    assert all(0 <= c <= 2 for c in composite)
    return composite, cv_total_rounds(space)


def _forest_neighbor_lists(parent: Sequence[Optional[int]], m: int) -> List[List[int]]:
    nbrs: List[List[int]] = [[] for _ in range(m)]
    for child, par in enumerate(parent):
        if par is not None:
            nbrs[child].append(par)
            nbrs[par].append(child)
    return nbrs


def _shed(
    labels: List[int],
    neighbors: Sequence[Sequence[int]],
    color: int,
    palette: Tuple[int, ...],
) -> List[int]:
    """One shedding round: nodes holding ``color`` recolour greedily into
    ``palette`` avoiding neighbours' current labels (degree < len(palette)
    guarantees a free colour; two ``color`` nodes are never adjacent)."""
    out = list(labels)
    for v, lab in enumerate(labels):
        if lab == color:
            used = {labels[w] for w in neighbors[v]}
            out[v] = next(c for c in palette if c not in used)
    return out


# ----------------------------------------------------------------------
# distributed Cole-Vishkin (message passing)
# ----------------------------------------------------------------------
class _CVState:
    __slots__ = ("vid", "l1", "l2", "nbr_vids", "p1", "p2", "composite")

    def __init__(self, vid: int) -> None:
        self.vid = vid
        self.l1 = vid
        self.l2 = vid
        self.nbr_vids: Optional[Tuple[int, ...]] = None
        self.p1: Optional[int] = None  # index into the neighbour list
        self.p2: Optional[int] = None
        self.composite: Optional[int] = None


class ColeVishkin3Coloring(MessageAlgorithm):
    """Distributed 3-coloring of paths (max degree 2) in O(log* n) rounds.

    All nodes follow the fixed schedule derived from the ID space
    ``{1..n^c}`` and commit simultaneously at ``cv_total_rounds(n^c)`` —
    node-averaged equals worst case, which is optimal up to constants for
    3-coloring on paths (Lemma 16 / [Feu17]).

    Messages carry ``(vid, l1, l2, parent1_vid, parent2_vid)`` so that
    nodes can identify their children per forest during shedding.
    """

    name = "cole-vishkin-3coloring"

    def __init__(self, id_exponent: int = 3) -> None:
        self.id_exponent = id_exponent
        self._iters = 0
        self._total = 0
        self._bstate: Optional[dict] = None
        self._replay: Optional[CommitSchedule] = None

    def setup(self, graph: Graph, n: int) -> None:
        if graph.max_degree() > 2:
            raise ValueError("Cole-Vishkin path coloring requires max degree 2")
        space = id_space_size(n, self.id_exponent)
        self._iters = cv_iterations(space)
        self._total = self._iters + _SHED_ROUNDS
        self._bstate = None  # per-execution batched state
        self._replay = None

    def init_state(self, info: NodeInfo, n: int) -> _CVState:
        return _CVState(info.vid)

    def message(self, state: _CVState, t: int):
        p1_vid = (
            state.nbr_vids[state.p1]
            if state.nbr_vids is not None and state.p1 is not None
            else None
        )
        p2_vid = (
            state.nbr_vids[state.p2]
            if state.nbr_vids is not None and state.p2 is not None
            else None
        )
        return (state.vid, state.l1, state.l2, p1_vid, p2_vid,
                state.composite)

    def transition(self, state: _CVState, incoming: Sequence, t: int) -> _CVState:
        if state.nbr_vids is None:
            state.nbr_vids = tuple(msg[0] for msg in incoming)
            larger = sorted(
                (i for i, vid in enumerate(state.nbr_vids) if vid > state.vid),
                key=lambda i: state.nbr_vids[i],
            )
            state.p1 = larger[0] if len(larger) >= 1 else None
            state.p2 = larger[1] if len(larger) >= 2 else None

        if t < self._iters:
            pl1 = incoming[state.p1][1] if state.p1 is not None else None
            pl2 = incoming[state.p2][2] if state.p2 is not None else None
            state.l1 = cv_step(state.l1, pl1)
            state.l2 = cv_step(state.l2, pl2)
        elif t < self._iters + 3:
            color = 5 - (t - self._iters)
            state.l1 = self._shed_forest(state, incoming, forest=1, color=color)
            state.l2 = self._shed_forest(state, incoming, forest=2, color=color)
            if t == self._iters + 2:
                state.composite = 3 * state.l1 + state.l2
        elif t < self._total:
            color = 8 - (t - self._iters - 3)
            if state.composite == color:
                used = {msg[5] for msg in incoming}
                state.composite = next(c for c in (0, 1, 2) if c not in used)
        return state

    def _shed_forest(self, state: _CVState, incoming: Sequence, forest: int,
                     color: int) -> int:
        label = state.l1 if forest == 1 else state.l2
        if label != color:
            return label
        used = set()
        parent_idx = state.p1 if forest == 1 else state.p2
        if parent_idx is not None:
            used.add(incoming[parent_idx][forest])
        parent_slot = 3 if forest == 1 else 4
        for i, msg in enumerate(incoming):
            if msg[parent_slot] == state.vid:  # i is my child in this forest
                used.add(msg[forest])
        return next(c for c in (0, 1, 2) if c not in used)

    def decide(self, state: _CVState, t: int):
        if t >= self._total:
            return state.composite
        return CONTINUE

    def max_rounds_hint(self, n: int) -> int:
        return self._total + 4 if self._total else 64

    # ------------------------------------------------------------------
    # batched execution: the same schedule as flat array sweeps
    # ------------------------------------------------------------------
    def decide_batch(self, views, live, t: int):
        """Vectorized form for the batched engine: the per-node message
        state machine becomes flat arrays (two int64 parent pointers,
        the two int64 neighbour slots, two forest labels and the int64
        composite) advanced by whole-array bit tricks, one round per
        call — same schedule, same labels, all nodes commit together at
        ``cv_total_rounds`` as one array pair.  The forest labels are
        uint8 from the second iteration on, and a shedding round only
        touches the nodes holding its colour.  Never touches the
        frontier scheduler (the CV schedule needs no ball facts), so a
        batched run does zero BFS work.

        IDs beyond int64 (``views.id_array`` is None) have no array
        form; then the schedule of one global run of the message
        dynamics streams from a :class:`CommitSchedule`, as
        ``GenericPhaseColoring`` does on graphs with cycles."""
        if views.id_array is None:
            if self._replay is None:
                self._replay = CommitSchedule(*run_message_dynamics(
                    views.graph, self, list(views.ids), views.budget,
                    neighbor_lists=views.neighbor_lists(),
                ))
            return self._replay.due(t)
        if t >= self._total:
            return live, self._bstate["comp"][live]
        st = self._bstate
        if st is None:
            st = self._bstate = self._batch_init(views)
        iters = self._iters
        if t < iters:
            self._batch_cv_step(st)
        elif t < iters + 3:
            color = 5 - (t - iters)
            for key, parent in (("l1", st["p1"]), ("l2", st["p2"])):
                self._batch_shed_forest(st[key], parent, st["nbrs"], color)
            if t == iters + 2:
                st["comp"] = 3 * st["l1"].astype(np.int64) + st["l2"]
        else:
            color = 8 - (t - iters - 3)
            self._batch_shed_composite(st["comp"], st["nbrs"], color)
        return (), ()

    @staticmethod
    def _batch_init(views) -> dict:
        from ..local.vec import csr_arrays

        ids = views.id_array
        # degree <= 2 (enforced by setup): a node's neighbours sit in CSR
        # slots indptr[v] and indptr[v] + 1; two -1 pad slots keep both
        # reads in range for the nodes of degree < 2 at the end
        ip, ix = csr_arrays(views.graph)
        start, deg = ip[:-1], np.diff(ip)
        slots = np.concatenate((ix, (-1, -1)))
        a = np.where(deg >= 1, slots[start], -1)
        b = np.where(deg >= 2, slots[start + 1], -1)
        # forest parents: the (up to two) larger-ID neighbours, ranked
        # ascending by ID — identical to _forest_parents / transition()
        ia = np.where(a >= 0, ids[a], np.int64(-1))
        ib = np.where(b >= 0, ids[b], np.int64(-1))
        a_big, b_big = ia > ids, ib > ids
        both = a_big & b_big
        a_first = both & (ia < ib)
        b_first = both & ~a_first
        p1 = np.where(a_big & ~b_big, a, np.where(b_big & ~a_big, b, -1))
        p1 = np.where(a_first, a, np.where(b_first, b, p1))
        p2 = np.where(a_first, b, np.where(b_first, a, np.int64(-1)))
        return {"nbrs": (a, b), "p1": p1, "p2": p2,
                "l1": ids.copy(), "l2": ids.copy(), "comp": None}

    @staticmethod
    def _batch_cv_step(st: dict) -> None:
        """One Cole–Vishkin iteration on both forests at once (cv_step
        vectorized).  The first runs on the int64 IDs and finds the
        lowest differing bit by an exact log2 of a power of two; its
        labels are below 128, so it narrows them to uint8, and every
        later iteration looks the bit up in ``_LOWEST_SET_BIT``."""
        for key, parent in (("l1", st["p1"]), ("l2", st["p2"])):
            lab = st[key]
            rooted = parent < 0
            diff = np.where(rooted, 1, lab ^ lab[parent])
            assert diff.all(), "CV step requires distinct adjacent labels"
            if lab.dtype == np.uint8:
                i = _LOWEST_SET_BIT[diff]
            else:
                i = np.log2((diff & -diff).astype(np.float64)).astype(np.int64)
            st[key] = np.where(
                rooted, lab & 1, 2 * i + ((lab >> i) & 1)
            ).astype(np.uint8)

    @staticmethod
    def _batch_shed_forest(lab, parent, nbrs, color: int) -> None:
        """One simultaneous per-forest shedding round, in place: each
        node holding ``color`` takes the lowest colour in {0,1,2} absent
        from its forest neighbourhood — its parent and the (up to two)
        neighbours whose parent it is — read from the pre-round labels,
        exactly ``_shed_forest``."""
        sel = np.flatnonzero(lab == color)
        par = parent[sel]
        used = np.where(par >= 0, 1 << lab[par], 0)
        for nbr in nbrs:
            w = nbr[sel]
            used |= np.where((w >= 0) & (parent[w] == sel), 1 << lab[w], 0)
        lab[sel] = _LOWEST_FREE[~used & 7]

    @staticmethod
    def _batch_shed_composite(comp, nbrs, color: int) -> None:
        """One simultaneous composite shedding round over the real graph
        neighbourhoods (degree <= 2), in place on the nodes holding
        ``color``."""
        sel = np.flatnonzero(comp == color)
        used = np.zeros(len(sel), dtype=comp.dtype)
        for nbr in nbrs:
            w = nbr[sel]
            used |= np.where(w >= 0, 1 << comp[w], 0)
        comp[sel] = _LOWEST_FREE[~used & 7]


# ----------------------------------------------------------------------
# canonical 2-coloring (view based)
# ----------------------------------------------------------------------
class CanonicalTwoColoring(LocalAlgorithm):
    """Proper 2-coloring of forests: colour = parity of distance to the
    minimum-ID node of the component.

    A node must provably see its whole component before committing (the
    canonical root cannot be known earlier), so ``T_v = ecc(v) + 1``, or
    ``ecc(v)`` when the ball already counts all ``n`` nodes — the
    ``Theta(n)`` node-averaged baseline of Corollary 60.
    """

    name = "canonical-2coloring"

    def __init__(self) -> None:
        self._colors: Optional[np.ndarray] = None

    def setup(self, graph: Graph, n: int) -> None:
        self._colors = None  # per-execution memo (IDs change across runs)

    def decide(self, view: View, n: int):
        ball = view.nodes()
        if len(ball) < n and not view.sees_whole_component():
            return CONTINUE
        root = min(ball, key=view.id_of)
        return _tree_parity(view, root)

    def decide_batch(self, views, live, t: int):
        """Batched form: component-completeness comes from the scheduler's
        flat arrays, and each component's canonical coloring is computed
        once (one BFS from its min-ID root) instead of once per member —
        a node's commit-time ball *is* its component, so the per-node
        parity computation returns exactly these colours."""
        ready = views.ready(live)
        if not len(ready):
            return (), ()
        if self._colors is None:
            graph, ids = views.graph, views.ids
            colors = [0] * views.n
            for _comp, _root, dist_root in _canonical_component_roots(
                graph, ids
            ):
                for w, d in dist_root.items():
                    colors[w] = d % 2
            self._colors = np.array(colors, dtype=np.int64)
        return ready, self._colors[ready]

    def max_rounds_hint(self, n: int) -> int:
        return n + 2


def _tree_parity(view: View, root: int) -> int:
    """Parity of the tree distance from ``root`` to the view's centre."""
    from collections import deque

    ball = view.nodes()
    dist = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in view.neighbors(u):
            if w in ball and w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist[view.center] % 2


def _canonical_component_roots(graph: Graph, ids: Sequence[int]):
    """Per component: ``(members, root, dist_from_root)`` with the root at
    the min-ID node — the one canonical rule every executor of the
    2-coloring (per-node, batched, fast-forward) derives its colors from
    (``color = dist % 2``)."""
    out = []
    for comp in graph.connected_components():
        root = min(comp, key=lambda v: ids[v])
        out.append((comp, root, _component_bfs(graph, root)))
    return out


def two_coloring_fast_forward(
    graph: Graph, ids: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """Fast-forward of :class:`CanonicalTwoColoring`: ``(colors, rounds)``.

    ``T_v = ecc(v) + 1`` within its component, or ``ecc(v)`` when the
    component is the whole graph (the ball then provably counts all n
    nodes at radius ecc already).
    """
    n = graph.n
    colors = [0] * n
    rounds = [0] * n
    for comp, _root, dist_root in _canonical_component_roots(graph, ids):
        whole = len(comp) == n
        for v in comp:
            colors[v] = dist_root[v] % 2
        # On a tree, ecc(v) = max distance to either end of a diameter
        # (two-sweep BFS), so all eccentricities come from three passes.
        a = max(dist_root, key=dist_root.get)
        dist_a = _component_bfs(graph, a)
        b = max(dist_a, key=dist_a.get)
        dist_b = _component_bfs(graph, b)
        for v in comp:
            ecc = max(dist_a[v], dist_b[v])
            rounds[v] = ecc if whole else ecc + 1
    return colors, rounds


def _component_bfs(graph: Graph, source: int) -> dict:
    """Distances within ``source``'s component (a BFS cannot leave it)."""
    return {
        w: r for r, layer in enumerate(graph.bfs_layers([source])) for w in layer
    }
