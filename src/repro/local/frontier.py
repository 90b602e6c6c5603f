"""Shared frontier scheduler for the batched execution engine.

Array-level ``decide_batch`` implementations ask for ball facts —
completeness and size — for every live centre at once.  **One**
scheduler answers them by growing *all* live balls together: the
round-``r`` frontier of every live centre lives in one flat sorted int64
array of ``(center, node)`` keys, ``(center << b) | node`` with
``b = max(1, (n - 1).bit_length())``, and one vectorized step per round
advances every frontier at once.  A key takes ``2b + 1`` bits in the
dedup below, so graphs of more than ``2**31`` nodes are rejected.

Layers live in a flat per-radius cache, the ``"frontier"`` entry of the
atlas ``LocalSimulator.run_batch`` shares across ID samples.  Radius
``r``'s entry holds the centres grown to ``r`` as a sorted int64 array
and their layer-``r`` nodes as one sorted key array, so each centre's
layer is a contiguous run of keys in ascending node order; a centre
without keys has an empty layer ``r``, i.e. a ball that completed.  A
step whose centres the entry all holds is served straight from its
arrays, so a later ID sample that grows the same balls re-reads every
layer without scanning an edge.  A step with any other centre expands
all of its centres and the result replaces radius ``r``'s entry.  The
cache holds O(keys + grown centres) bytes, never an ``n``-length array
per radius.

Expansion is one vectorized CSR sweep over the round's frontier.
Deduplication uses the standard two-layer BFS identity on undirected
graphs: a neighbour of a node at distance ``r - 1`` is at distance
``r - 2``, ``r - 1`` or ``r``, so a candidate is new iff its key is in
neither of the two layers before it — no per-centre visited sets are
needed.  One sort decides it: the keys of both layers shifted left by
one bit and the candidates' keys shifted with the low bit set, sorted
together, put every layer key right before its own candidates; an odd
entry is new iff its predecessor is smaller by more than 1 (neither its
layer key nor a copy of itself), and those entries shifted back are the
next layer, already sorted.  Each layer holds the same nodes as the one
:meth:`~repro.local.graph.Graph.bfs_layers` yields for its centre
alone, in ascending order.

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
#: item ``r >= 1`` is radius ``r``'s entry ``(grown, keys)`` — the
#: sorted centres grown to ``r`` and the sorted ``(center << b) | node``
#: keys of their layer-``r`` nodes (item 0, radius 0, is implicit)
_CACHE_KEY = "frontier"

#: the largest ``n`` whose ``2b + 1``-bit dedup keys fit in an int64
_MAX_NODES = 2 ** 31


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
        n = graph.n
        if n > _MAX_NODES:
            raise ValueError(
                f"the frontier scheduler keys (center, node) pairs in an "
                f"int64 and grows at most {_MAX_NODES} nodes, got n={n}")
        self._n = n
        self._bits = max(1, (n - 1).bit_length())
        self._indptr, self._indices = csr_arrays(graph)
        self._committed = np.frombuffer(committed, dtype=np.uint8)
        self._atlas = {} if atlas is None else atlas
        cache = self._atlas.get(_CACHE_KEY)
        if cache is None:
            cache = self._atlas[_CACHE_KEY] = [None]
        self._cache: List[Optional[Tuple[np.ndarray, np.ndarray]]] = cache
        self.radius = 0
        self._complete: Optional[np.ndarray] = None
        self._ball_size: Optional[np.ndarray] = None
        # the sorted keys of layers `radius` and `radius - 1` of every
        # still-growing centre — all the two-layer dedup needs; the
        # current layer is None until the first sweep
        self._cur: Optional[np.ndarray] = None
        self._prev = _EMPTY

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
        b = self._bits
        cur = self._cur
        if cur is None:
            nodes = np.arange(self._n, dtype=np.int64)
            cur = (nodes << b) | nodes
        cur_c = cur >> b
        if len(cur):
            # committed centres leave the flat frontier permanently
            keep = self._committed[cur_c] == 0
            if not keep.all():
                cur, cur_c = cur[keep], cur_c[keep]
        if not len(cur):
            self._prev = self._cur = _EMPTY
            self.radius = r
            return

        starts = np.flatnonzero(cur_c[1:] != cur_c[:-1]) + 1
        centers = np.concatenate((cur_c[:1], cur_c[starts]))
        cache = self._cache
        entry = cache[r] if r < len(cache) else None
        if entry is None or not _member(centers, entry[0]).all():
            # some centre was never grown to r: expand the whole round
            entry = (centers, self._expand(cur))
            if r < len(cache):
                cache[r] = entry
            else:
                cache.append(entry)
        # a cached entry's other centres committed earlier in this run;
        # the next step's commit filter drops their keys
        keys = entry[1]
        sizes = (np.searchsorted(keys, (centers + 1) << b)
                 - np.searchsorted(keys, centers << b))
        self.ball_size[centers] += sizes
        self.complete[centers[sizes == 0]] = True
        self._prev, self._cur = cur, keys
        self.radius = r

    def _expand(self, cur: np.ndarray) -> np.ndarray:
        """The sorted keys of the next layer of the centres in ``cur``
        (the keys of their last layer), deduplicated against it and the
        layer before it."""
        b = self._bits
        cur_v = cur & ((1 << b) - 1)
        indptr = self._indptr
        first = indptr[cur_v]
        deg = indptr[cur_v + 1] - first
        total = int(deg.sum())
        if not total:
            return _EMPTY
        slots = np.arange(total, dtype=np.int64) + np.repeat(
            first - (np.cumsum(deg) - deg), deg)
        cand = np.repeat(cur - cur_v, deg) | self._indices[slots]
        # layer keys even, candidate keys odd, behind a sentinel that is
        # smaller than every key by more than 1
        keys = np.concatenate(((-2,), self._prev << 1, cur << 1,
                               (cand << 1) | 1))
        keys.sort()
        head = keys[1:]
        fresh = head[((head & 1) == 1) & (head - keys[:-1] > 1)]
        return fresh >> 1


class BatchedViews:
    """What a ``decide_batch`` implementation sees each round.

    One object per execution, re-pointed at the current round by the
    engine.  It exposes the scheduler's flat per-centre ball facts
    (``complete_mask``/``ball_sizes`` — treat both arrays as read-only)
    for array-level decisions, grown lazily, so algorithms that never
    ask for ball facts never pay for a single sweep.

    ``ids`` is the run's IDs as the read-only int64 array
    :func:`~repro.local.ids.validate_ids` built, so array-level
    algorithms need no conversion of their own; one that indexes IDs
    node by node in Python converts it once with ``tolist()``.
    ``commit_round`` (int64, ``-1`` until a node commits) and
    ``outputs`` (object) are read-only views of the engine's commit
    state arrays (writes raise).
    """

    __slots__ = ("graph", "n", "ids", "round", "budget",
                 "commit_round", "outputs", "_scheduler")

    def __init__(
        self,
        graph: Graph,
        ids: np.ndarray,
        commit_round: np.ndarray,
        outputs: np.ndarray,
        scheduler: FrontierScheduler,
        budget: int = 0,
    ) -> None:
        self.graph = graph
        self.n = graph.n
        self.ids = ids
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
