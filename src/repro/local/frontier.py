"""Shared frontier scheduler for the batched execution engine.

Array-level ``decide_batch`` implementations ask for ball facts —
completeness and size — for every live centre at once.  **One**
scheduler answers them by growing *all* live balls together: the
round-``r`` frontier of every live centre lives in two flat int64 arrays
``(centers, nodes)`` (grouped by centre), and one vectorized step per
round advances every frontier at once.

Layers live in a flat per-radius cache, the ``"frontier"`` entry of the
atlas ``LocalSimulator.run_batch`` shares across ID samples.  Radius
``r``'s entry holds the centres grown to ``r`` as a sorted int64 array
and their layer-``r`` nodes as two centre-grouped int64 arrays
``(centers, nodes)`` in per-node BFS order; a centre without rows has an
empty layer ``r``, i.e. a ball that completed.  A step whose centres the
entry all holds is served straight from its arrays, so a later ID sample
that grows the same balls re-reads every layer without scanning an edge.
A step with any other centre expands all of its centres and the result
replaces radius ``r``'s entry.  The cache holds O(rows + grown centres)
bytes, never an ``n``-length array per radius.

Expansion is one vectorized CSR sweep over the round's frontier.
Deduplication uses the standard two-layer BFS identity on undirected
graphs: a neighbour of a node at distance ``r - 1`` is at distance
``r - 2``, ``r - 1`` or ``r``, so a candidate is new iff its
``(center, node)`` key is in neither of the two layers before it — no
per-centre visited sets are needed.  One sort of the keys of both
layers and of the candidates, concatenated in that order, decides it: a
key is new iff its first position is a candidate, and that position is
the key's first occurrence in the candidate stream.  The stream lists
centres in order and, per centre, the previous layer in layer order
with neighbours in CSR order — the per-node BFS order — so every layer
is byte-identical to the one :meth:`~repro.local.graph.Graph.bfs_layers`
yields for its centre alone.

Growth is **lazy**: the scheduler only sweeps when something actually asks
for ball facts at the current round, and allocates its per-node arrays
only then.  Algorithms whose ``decide_batch`` works from the graph
directly (e.g. the vectorized Cole–Vishkin) never trigger a single
sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .graph import Graph
from .vec import csr_arrays

__all__ = ["FrontierScheduler", "BatchedViews"]

_EMPTY = np.empty(0, dtype=np.int64)

#: the atlas entry holding the flat per-radius layer cache: a list whose
#: item ``r >= 1`` is radius ``r``'s entry ``(grown, rows_c, rows_v)`` —
#: the sorted centres grown to ``r`` and their layer-``r`` nodes grouped
#: by centre in per-node BFS order (item 0, radius 0, is implicit)
_CACHE_KEY = "frontier"


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A zero-copy view that raises on writes (mutating shared engine
    state would silently corrupt every later round, so make it loud —
    the same sealing philosophy as the read-only ``View`` ball)."""
    view = arr.view()
    view.flags.writeable = False
    return view


def _atlas_neighbor_lists(
    graph: Graph, atlas: Optional[Dict]
) -> List[Tuple[int, ...]]:
    """Per-node adjacency tuples, stored once per ``run_batch`` under the
    atlas's ``"neighbors"`` entry (built afresh when ``atlas`` is None)."""
    if atlas is None:
        return [graph.neighbors(v) for v in graph.nodes()]
    neighbor_lists = atlas.get("neighbors")
    if neighbor_lists is None:
        neighbor_lists = [graph.neighbors(v) for v in graph.nodes()]
        atlas["neighbors"] = neighbor_lists
    return neighbor_lists


def _member(values: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """``np.isin(values, sorted_set)`` for a sorted, duplicate-free
    ``sorted_set``, by binary search instead of hashing."""
    if not len(sorted_set):
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(sorted_set, values)
    pos[pos == len(sorted_set)] = 0
    return sorted_set[pos] == values


class FrontierScheduler:
    """Grow the radius-``t`` balls of all live centres in lockstep.

    Parameters
    ----------
    graph:
        The (immutable) CSR graph.
    committed:
        The engine's commit-flag ``bytearray`` (length ``n``).  Viewed
        zero-copy as uint8: a centre whose flag is set simply drops out of
        the flat frontier on the next sweep — committed balls stop growing.
    atlas:
        Optional cross-run topology cache (``run_batch``'s dict).  Its
        ``"frontier"`` entry is the flat per-radius layer cache, so every
        run of a batch shares one BFS.  Without an atlas the scheduler
        keeps the cache to itself.

    Attributes
    ----------
    radius:
        Radius every live ball has been grown to.
    complete:
        Bool array; ``complete[v]`` iff ``v``'s BFS exhausted its component
        strictly inside the current radius (the
        ``View.sees_whole_component`` truth value, computed for all
        centres at once).
    ball_size:
        Int64 array of current ball cardinalities (frozen once a centre
        commits or completes).

    Both arrays are allocated on first access, like the flat frontier on
    the first sweep, so a run that never asks for ball facts allocates
    no per-node array here.
    """

    def __init__(
        self, graph: Graph, committed: bytearray, atlas: Optional[Dict] = None
    ) -> None:
        self._n = graph.n
        self._indptr, self._indices = csr_arrays(graph)
        self._committed = np.frombuffer(committed, dtype=np.uint8)
        self._atlas = {} if atlas is None else atlas
        cache = self._atlas.get(_CACHE_KEY)
        if cache is None:
            cache = self._atlas[_CACHE_KEY] = [None]
        self._cache: List[Optional[Tuple[np.ndarray, np.ndarray,
                                         np.ndarray]]] = cache
        self.radius = 0
        self._complete: Optional[np.ndarray] = None
        self._ball_size: Optional[np.ndarray] = None
        # layers `radius` and `radius - 1` of every still-growing centre,
        # grouped by centre — all the two-layer dedup needs; the current
        # layer is None until the first sweep
        self._cur_c: Optional[np.ndarray] = None
        self._cur_v: Optional[np.ndarray] = None
        self._prev_c = self._prev_v = _EMPTY

    @property
    def complete(self) -> np.ndarray:
        if self._complete is None:
            self._complete = np.zeros(self._n, dtype=bool)
        return self._complete

    @property
    def ball_size(self) -> np.ndarray:
        if self._ball_size is None:
            self._ball_size = np.ones(self._n, dtype=np.int64)
        return self._ball_size

    # ------------------------------------------------------------------
    def grow_to(self, t: int) -> None:
        """Advance every live ball to radius ``t`` (no-op if already there)."""
        while self.radius < t:
            self._step()

    def _step(self) -> None:
        """Grow every live ball by one layer: read the round from radius
        ``r``'s cache entry if it holds every live centre, else expand
        the round and make the result that entry."""
        r = self.radius + 1
        cur_c, cur_v = self._cur_c, self._cur_v
        if cur_c is None:
            cur_c = cur_v = np.arange(self._n, dtype=np.int64)
        if len(cur_c):
            # committed centres leave the flat frontier permanently
            keep = self._committed[cur_c] == 0
            if not keep.all():
                cur_c, cur_v = cur_c[keep], cur_v[keep]
        if not len(cur_c):
            self._prev_c = self._prev_v = self._cur_c = self._cur_v = _EMPTY
            self.radius = r
            return

        starts = np.flatnonzero(cur_c[1:] != cur_c[:-1]) + 1
        centers = np.concatenate((cur_c[:1], cur_c[starts]))
        cache = self._cache
        entry = cache[r] if r < len(cache) else None
        if entry is None or not _member(centers, entry[0]).all():
            # some centre was never grown to r: expand the whole round
            entry = (centers,) + self._expand(cur_c, cur_v)
            if r < len(cache):
                cache[r] = entry
            else:
                cache.append(entry)
        # a cached entry's other centres committed earlier in this run;
        # the next step's commit filter drops their rows
        _, rows_c, rows_v = entry
        sizes = (np.searchsorted(rows_c, centers, side="right")
                 - np.searchsorted(rows_c, centers))
        self.ball_size[centers] += sizes
        self.complete[centers[sizes == 0]] = True
        self._prev_c, self._prev_v = cur_c, cur_v
        self._cur_c, self._cur_v = rows_c, rows_v
        self.radius = r

    def _expand(self, cur_c: np.ndarray,
                cur_v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The next layer ``(centers, nodes)`` of the centres in ``cur``
        (their last layer), deduplicated against it and the layer before
        it."""
        prev_c, prev_v = self._prev_c, self._prev_v
        indptr = self._indptr
        first = indptr[cur_v]
        deg = indptr[cur_v + 1] - first
        total = int(deg.sum())
        if not total:
            return _EMPTY, _EMPTY
        cand_c = np.repeat(cur_c, deg)
        slots = np.arange(total, dtype=np.int64) + np.repeat(
            first - (np.cumsum(deg) - deg), deg)
        cand_v = self._indices[slots]
        n = self._n
        keys = np.concatenate((prev_c * n + prev_v, cur_c * n + cur_v,
                               cand_c * n + cand_v))
        order = np.argsort(keys)
        keys = keys[order]
        lead = np.empty(len(keys), dtype=bool)
        lead[0] = True
        np.not_equal(keys[1:], keys[:-1], out=lead[1:])
        # first position of each key (the sort need not be stable: take
        # the least position of each run of equal keys), as an offset
        # into the candidates
        pos = np.minimum.reduceat(order, np.flatnonzero(lead))
        pos -= len(keys) - total
        fresh = np.zeros(total, dtype=bool)
        fresh[pos[pos >= 0]] = True
        return cand_c[fresh], cand_v[fresh]


class BatchedViews:
    """What a ``decide_batch`` implementation sees each round.

    One object per execution, re-pointed at the current round by the
    engine.  It exposes the scheduler's flat per-centre ball facts
    (``complete_mask``/``ball_sizes`` — treat both arrays as read-only)
    for array-level decisions, grown lazily, so algorithms that never
    ask for ball facts never pay for a single sweep.

    ``ids`` is the run's ID list and ``id_array`` the same IDs as the
    read-only int64 array :func:`~repro.local.ids.validate_ids` built
    (None when the IDs exceed int64), so array-level algorithms need no
    conversion of their own.  ``commit_round`` (int64, ``-1`` until a
    node commits) and ``outputs`` (object) are read-only views of the
    engine's commit state arrays (writes raise).
    """

    __slots__ = ("graph", "n", "ids", "id_array", "round", "budget",
                 "commit_round", "outputs", "_scheduler")

    def __init__(
        self,
        graph: Graph,
        ids: List[int],
        commit_round: np.ndarray,
        outputs: np.ndarray,
        scheduler: FrontierScheduler,
        budget: int = 0,
        id_array: Optional[np.ndarray] = None,
    ) -> None:
        self.graph = graph
        self.n = graph.n
        self.ids = ids
        self.id_array = id_array
        self.round = 0
        #: the engine's round budget for this execution — algorithms that
        #: run an inner simulation (schedule-replay fallbacks) must bound
        #: it by this, not by their own hint, so SimulationError behaviour
        #: matches the reference engine under a caller-supplied max_rounds
        self.budget = budget
        self.commit_round = _readonly(commit_round)
        self.outputs = _readonly(outputs)
        self._scheduler = scheduler

    # -- flat ball facts ----------------------------------------------
    def _grown(self) -> FrontierScheduler:
        self._scheduler.grow_to(self.round)
        return self._scheduler

    def complete_mask(self) -> np.ndarray:
        """``mask[v]`` iff ``v``'s ball provably contains its whole
        component (``View.sees_whole_component`` for every centre at
        once).  Read-only (writes raise); only meaningful for live
        centres."""
        return _readonly(self._grown().complete)

    def ball_sizes(self) -> np.ndarray:
        """Current ball cardinalities, ``|ball(v, t)|`` per centre.
        Read-only (writes raise); frozen for committed centres."""
        return _readonly(self._grown().ball_size)

    def neighbor_lists(self) -> List[Tuple[int, ...]]:
        """Per-node adjacency tuples, cached across a ``run_batch``
        through the same ``"neighbors"`` atlas entry as the global
        message dynamics — for ``decide_batch`` implementations that run
        an inner message simulation."""
        return _atlas_neighbor_lists(self.graph, self._scheduler._atlas)

    def ready(self, live) -> np.ndarray:
        """The live nodes whose ball provably covers their component —
        the batched form of the canonical per-node guard
        ``len(view.nodes()) == n or view.sees_whole_component()``, in one
        array expression over the whole live set."""
        scheduler = self._grown()
        la = np.asarray(live, dtype=np.int64)
        return la[(scheduler.ball_size[la] == self.n)
                  | scheduler.complete[la]]
