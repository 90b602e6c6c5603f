"""Shared frontier scheduler for the batched execution engine.

Array-level ``decide_batch`` implementations ask for ball facts —
completeness and size — for every live centre at once.  **One**
scheduler answers them by growing *all* live balls together: the
round-``r`` frontier of every live centre lives in two flat int64 arrays
``(centers, nodes)`` (grouped by centre), and one vectorized CSR sweep
per round expands every frontier at once.

Deduplication uses the standard two-layer BFS identity on undirected
graphs: a neighbour of a node at distance ``r`` is at distance ``r-1``,
``r`` or ``r+1``, so a candidate is new iff its ``(center, node)`` key is
in neither the current nor the previous layer — no per-centre visited sets
are needed.  First-occurrence order within the candidate stream matches the
per-node BFS exactly (centres grouped in layer order, neighbours in CSR
order), so the layers the scheduler writes back into the shared layer pool
are byte-identical to what ``BallStore`` would have produced on its own.

The layer pool is the same ``("layers", v)`` atlas structure
``LocalSimulator.run_batch`` shares across ID samples: layer ``r`` of
centre ``v`` is a plain list of nodes at distance exactly ``r``, a pure
function of the topology.  The scheduler and the per-node
:class:`~repro.local.algorithm.BallStore` behind each
:meth:`BatchedViews.view_of` read and extend the very same lists, so
either reuses layers grown by the other or by an earlier run.  Per-node
views never sweep the shared frontier; a store may therefore grow a
pool ahead of the scheduler, which is why the scheduler writes a layer
back only when the pool does not hold it yet.

Growth is **lazy**: the scheduler only sweeps when something actually asks
for ball facts at the current round.  Algorithms whose ``decide_batch``
works from the graph directly (e.g. the vectorized Cole–Vishkin) and
algorithms that only read per-node views never trigger a single sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .algorithm import BallStore, View
from .graph import Graph

__all__ = ["FrontierScheduler", "BatchedViews", "csr_numpy"]

_EMPTY = np.empty(0, dtype=np.int64)


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A zero-copy view that raises on writes (mutating shared engine
    state would silently corrupt every later round, so make it loud —
    the same sealing philosophy as the read-only ``View`` ball)."""
    view = arr.view()
    view.flags.writeable = False
    return view


def csr_numpy(graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """Zero-copy read-only int64 views over the graph's CSR ``array('q')``
    pair — the shared entry point for vectorized code (the frontier
    scheduler, ``decide_batch`` implementations) that wants the adjacency
    as numpy arrays.
    """
    indptr, indices = graph.adjacency()
    ip = np.frombuffer(indptr, dtype=np.int64)
    ix = np.frombuffer(indices, dtype=np.int64) if len(indices) else _EMPTY
    return _readonly(ip), _readonly(ix)


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


class FrontierScheduler:
    """Grow the radius-``t`` balls of all live centres in lockstep.

    Parameters
    ----------
    graph:
        The (immutable) CSR graph.
    committed:
        The engine's commit-flag ``bytearray`` (length ``n``).  Viewed
        zero-copy as uint8: a centre whose flag is set simply drops out of
        the flat frontier on the next sweep — committed balls stop growing,
        as the engine stops growing a committed node's ``BallStore``.
    atlas:
        Optional cross-run topology cache (``run_batch``'s dict).  Layers
        are read from and written to ``atlas[("layers", v)]`` so every
        run of a batch, and the per-node views within a run, share one
        BFS.

    Attributes
    ----------
    radius:
        Radius every live ball has been grown to.
    complete:
        Bool array; ``complete[v]`` iff ``v``'s BFS exhausted its component
        strictly inside the current radius (the ``BallStore.complete``
        truth value, computed for all centres at once).
    ball_size:
        Int64 array of current ball cardinalities (frozen once a centre
        commits or completes).
    """

    def __init__(
        self, graph: Graph, committed: bytearray, atlas: Optional[Dict] = None
    ) -> None:
        n = graph.n
        self._graph = graph
        self._n = n
        self._indptr, self._indices = csr_numpy(graph)
        self._committed = np.frombuffer(committed, dtype=np.uint8)
        self._atlas = atlas
        self._pools: Optional[List[List[List[int]]]] = None
        # lower bound on each pool's length: views may grow a pool past
        # it, and a stale entry only makes _step recompute a layer it
        # could have read
        self._pool_len: Optional[np.ndarray] = None
        self.radius = 0
        self.complete = np.zeros(n, dtype=bool)
        self.ball_size = np.ones(n, dtype=np.int64)
        # layer `radius` of every still-growing centre, grouped by centre
        self._cur_c = np.arange(n, dtype=np.int64)
        self._cur_v = np.arange(n, dtype=np.int64)
        # sorted (center * n + node) keys of the current / previous layer,
        # the only state the two-layer dedup needs
        self._cur_keys = self._cur_c * n + self._cur_v
        self._prev_keys = _EMPTY

    # ------------------------------------------------------------------
    def pool(self, v: int) -> List[List[int]]:
        """Centre ``v``'s layer list (shared with ``BallStore`` windows)."""
        self._materialize_pools()
        return self._pools[v]

    def _materialize_pools(self) -> None:
        if self._pools is not None:
            return
        n = self._n
        if self._atlas is None:
            self._pools = [[[v]] for v in range(n)]
        else:
            setdefault = self._atlas.setdefault
            self._pools = [setdefault(("layers", v), [[v]]) for v in range(n)]
        self._pool_len = np.array(
            [len(p) for p in self._pools], dtype=np.int64
        )

    # ------------------------------------------------------------------
    def grow_to(self, t: int) -> None:
        """Advance every live ball to radius ``t`` (no-op if already there)."""
        while self.radius < t:
            self._step()

    def _step(self) -> None:
        """Grow every live ball by one layer.

        Write-back rule: layer ``r`` goes into centre ``c``'s pool only
        when ``len(pools[c]) == r``.  A per-node view may already have
        grown that layer into the pool (the ``_pool_len`` snapshot
        cannot see it); appending it again would leave a duplicate that
        ``BallStore`` reads as layer ``r + 1``.
        """
        n = self._n
        self._materialize_pools()
        r = self.radius + 1
        cur_c, cur_v = self._cur_c, self._cur_v
        if len(cur_c):
            # committed centres leave the flat frontier permanently
            keep = self._committed[cur_c] == 0
            if not keep.all():
                cur_c, cur_v = cur_c[keep], cur_v[keep]
        if len(cur_c) == 0:
            self._cur_c = self._cur_v = _EMPTY
            self._prev_keys, self._cur_keys = self._cur_keys, _EMPTY
            self.radius = r
            return

        pools, pool_len = self._pools, self._pool_len
        cached_entry = pool_len[cur_c] > r
        parts_c: List[np.ndarray] = []
        parts_v: List[np.ndarray] = []

        # --- cached centres: layer r is already in the pool --------------
        if cached_entry.any():
            for c in np.unique(cur_c[cached_entry]).tolist():
                layer = pools[c][r]
                if layer:
                    parts_c.append(np.full(len(layer), c, dtype=np.int64))
                    parts_v.append(np.asarray(layer, dtype=np.int64))

        # --- uncached centres: one vectorized CSR expansion --------------
        uncached = ~cached_entry
        if uncached.any():
            src_c, src_v = cur_c[uncached], cur_v[uncached]
            indptr, indices = self._indptr, self._indices
            deg = indptr[src_v + 1] - indptr[src_v]
            total = int(deg.sum())
            if total:
                reps = np.repeat(np.arange(len(src_v)), deg)
                offs = np.arange(total, dtype=np.int64) - np.repeat(
                    np.cumsum(deg) - deg, deg
                )
                cand_v = indices[indptr[src_v][reps] + offs]
                cand_c = src_c[reps]
                keys = cand_c * n + cand_v
                seen = np.isin(keys, self._cur_keys) | np.isin(
                    keys, self._prev_keys
                )
                first = np.zeros(len(keys), dtype=bool)
                first[np.unique(keys, return_index=True)[1]] = True
                fresh = first & ~seen
                new_c, new_v = cand_c[fresh], cand_v[fresh]
            else:
                new_c = new_v = _EMPTY
            # write the expanded layers back into the shared pool,
            # preserving the stream (= per-node BFS) order
            if len(new_c):
                cut = np.flatnonzero(np.diff(new_c)) + 1
                starts = np.concatenate(([0], cut))
                for start, group in zip(starts, np.split(new_v, cut)):
                    c = int(new_c[start])
                    if len(pools[c]) == r:
                        pools[c].append(group.tolist())
                    pool_len[c] = r + 1
                parts_c.append(new_c)
                parts_v.append(new_v)
                grew = new_c[starts]
            else:
                grew = _EMPTY
            # uncached centres with an empty new layer: record it (the
            # BallStore convention appends the empty layer too) — they
            # turn complete below
            for c in np.setdiff1d(np.unique(src_c), grew).tolist():
                if len(pools[c]) == r:
                    pools[c].append([])
                pool_len[c] = r + 1

        # --- merge, regroup by centre, update the flat state -------------
        if parts_c:
            nc = np.concatenate(parts_c)
            nv = np.concatenate(parts_v)
            if len(parts_c) > 1:
                order = np.argsort(nc, kind="stable")
                nc, nv = nc[order], nv[order]
        else:
            nc = nv = _EMPTY
        if len(nc):
            self.ball_size += np.bincount(nc, minlength=n)
        done = np.setdiff1d(np.unique(cur_c), nc)
        if len(done):
            self.complete[done] = True
        self._prev_keys = self._cur_keys
        self._cur_keys = np.sort(nc * n + nv) if len(nc) else _EMPTY
        self._cur_c, self._cur_v = nc, nv
        self.radius = r


class BatchedViews:
    """What a ``decide_batch`` implementation sees each round.

    One object per execution, re-pointed at the current round by the
    engine.  It exposes the scheduler's flat per-centre ball facts
    (``complete_mask``/``ball_sizes`` — treat both arrays as read-only)
    for array-level decisions, grown lazily, so algorithms that never
    ask for ball facts never pay for a single sweep.  It also
    materializes ordinary radius-``t``
    :class:`~repro.local.algorithm.View` windows on demand, each over
    its centre's own :class:`~repro.local.algorithm.BallStore`, for the
    per-node adapter; those never sweep the shared frontier.
    """

    __slots__ = ("graph", "n", "ids", "round", "budget", "commit_round",
                 "outputs", "stores", "_scheduler")

    def __init__(
        self,
        graph: Graph,
        ids: List[int],
        commit_round: List[Optional[int]],
        outputs: List,
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
        self.commit_round = commit_round
        self.outputs = outputs
        self._scheduler = scheduler
        #: the per-node ball stores behind :meth:`view_of` and the
        #: per-node adapter, by centre; the engine releases a centre's
        #: store when it commits
        self.stores: Dict[int, BallStore] = {}

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

    # -- per-node views ----------------------------------------------
    def store_of(self, v: int) -> BallStore:
        """Live node ``v``'s :class:`BallStore`, grown to the current
        round.  It grows its layers into ``v``'s list in the shared
        layer pool, one BFS layer per round, without sweeping the shared
        frontier."""
        store = self.stores.get(v)
        if store is None:
            store = BallStore(self.graph, v, layers=self._scheduler.pool(v))
            self.stores[v] = store
        store.grow_to(self.round)
        return store

    def view_of(self, v: int) -> View:
        """The ordinary radius-``t`` :class:`View` of live node ``v``,
        a window over :meth:`store_of`."""
        return View(self.graph, v, self.round, self.ids, self.commit_round,
                    self.outputs, store=self.store_of(v))
