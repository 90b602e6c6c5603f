"""Tree and graph substrate for the LOCAL model.

The paper works on bounded-degree trees (and paths as a special case).  This
module provides an immutable graph stored in *compressed sparse row* (CSR)
form with:

* integer node handles ``0..n-1`` (distinct from the *identifiers* used by
  LOCAL algorithms, see :mod:`repro.local.ids`),
* per-node input labels (the LCL input alphabet),
* radius-``r`` ball extraction and layered BFS (the basic LOCAL primitives),
* constructors for paths, stars, balanced trees and conversions from
  :mod:`networkx`.

The CSR layout is a pair of flat integer arrays: ``indptr`` of length
``n + 1`` and ``indices`` of length ``2m``, where the neighbours of node
``v`` are ``indices[indptr[v]:indptr[v+1]]``.  Degrees and neighbour scans
are O(1)/O(deg) slice operations with no per-node Python list overhead,
which is what makes the ball extraction and frontier sweeps of
:mod:`repro.local.simulator` and the checker scans in :mod:`repro.lcl`
cheap.  Neighbour order matches edge-insertion order (exactly the order the
old adjacency-list build produced), so all BFS traversals are reproducible
across the refactor.

Everything downstream (the simulator, problem checkers, constructions) is
built on :class:`Graph`.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as _np

__all__ = [
    "Graph",
    "path_graph",
    "star_graph",
    "cycle_graph",
    "grid_graph",
    "balanced_tree",
    "disjoint_union",
    "from_networkx",
    "to_networkx",
]

#: array typecode for CSR arrays — signed 64-bit so node counts are never
#: a constraint in practice.
_CSR_TYPECODE = "q"

#: below this edge count the per-edge Python build is faster than paying
#: numpy's fixed costs — and it is also the differential oracle the
#: vectorized path is pinned against in the tests.
_VECTOR_MIN_EDGES = 256


def _validate_edge_arrays(n: int, eu, ev) -> None:
    """Vectorized twin of the per-edge validation loop.

    Raises exactly the error the sequential loop would raise first: for
    each failure category the first offending edge index is computed, and
    the earliest index wins (with the loop's range -> self-loop ->
    duplicate priority on ties, since the loop checks a single edge in
    that order).
    """
    first: List[Tuple[int, int, ValueError]] = []
    bad = (eu < 0) | (eu >= n) | (ev < 0) | (ev >= n)
    if bad.any():
        k = int(_np.argmax(bad))
        first.append((k, 0, ValueError(
            f"edge ({int(eu[k])},{int(ev[k])}) out of range for n={n}")))
    loops = eu == ev
    if loops.any():
        k = int(_np.argmax(loops))
        first.append((k, 1, ValueError(f"self-loop at {int(eu[k])}")))
    lo = _np.minimum(eu, ev)
    hi = _np.maximum(eu, ev)
    # for in-range endpoints the packed key is collision-free; any packed
    # collision involving out-of-range garbage is masked by the range
    # error, whose edge index is necessarily no later
    key = lo * _np.int64(max(n, 1) + 1) + hi
    order = _np.argsort(key, kind="stable")
    sorted_key = key[order]
    dup_pos = _np.nonzero(sorted_key[1:] == sorted_key[:-1])[0]
    if dup_pos.size:
        k = int(order[dup_pos + 1].min())
        first.append((k, 2, ValueError(
            f"duplicate edge {(int(lo[k]), int(hi[k]))}")))
    if first:
        first.sort(key=lambda item: (item[0], item[1]))
        raise first[0][2]


def _csr_from_edge_arrays(n: int, eu, ev) -> Tuple["array", "array"]:
    """CSR fill from endpoint arrays, preserving edge-insertion neighbour
    order (each edge ``k`` contributes ``u->v`` before ``v->u``, exactly
    like the sequential cursor fill)."""
    m = int(eu.shape[0])
    src = _np.empty(2 * m, dtype=_np.int64)
    dst = _np.empty(2 * m, dtype=_np.int64)
    src[0::2] = eu
    src[1::2] = ev
    dst[0::2] = ev
    dst[1::2] = eu
    order = _np.argsort(src, kind="stable")
    indptr_np = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(src, minlength=n), out=indptr_np[1:])
    indptr = array(_CSR_TYPECODE)
    indptr.frombytes(indptr_np.tobytes())
    indices = array(_CSR_TYPECODE)
    indices.frombytes(dst[order].tobytes())
    return indptr, indices


class Graph:
    """An undirected simple graph in CSR form with per-node inputs.

    Parameters
    ----------
    n:
        Number of nodes; node handles are ``0..n-1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Self-loops and duplicates are rejected.
    inputs:
        Optional per-node input labels (any hashable), defaults to ``None``
        for every node.
    """

    __slots__ = ("_n", "_m", "_indptr", "_indices", "_inputs")

    def __init__(
        self,
        n: int,
        edges: Iterable[Tuple[int, int]],
        inputs: Optional[Sequence] = None,
    ) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)
        if len(edges) >= _VECTOR_MIN_EDGES:
            pairs = _np.asarray(edges, dtype=_np.int64)
            self._init_from_arrays(n, pairs[:, 0], pairs[:, 1], inputs)
            return
        edge_list: List[Tuple[int, int]] = []
        seen = set()
        degree = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            edge_list.append((u, v))
            degree[u] += 1
            degree[v] += 1

        indptr = array(_CSR_TYPECODE, [0] * (n + 1))
        for v in range(n):
            indptr[v + 1] = indptr[v] + degree[v]
        indices = array(_CSR_TYPECODE, [0] * (2 * len(edge_list)))
        cursor = list(indptr[:n])
        for u, v in edge_list:
            indices[cursor[u]] = v
            cursor[u] += 1
            indices[cursor[v]] = u
            cursor[v] += 1

        self._n = n
        self._m = len(edge_list)
        self._indptr = indptr
        self._indices = indices
        self._inputs = self._coerce_inputs(n, inputs)

    def _init_from_arrays(self, n: int, eu, ev, inputs: Optional[Sequence]) -> None:
        _validate_edge_arrays(n, eu, ev)
        self._indptr, self._indices = _csr_from_edge_arrays(n, eu, ev)
        self._n = n
        self._m = int(eu.shape[0])
        self._inputs = self._coerce_inputs(n, inputs)

    @staticmethod
    def _coerce_inputs(n: int, inputs: Optional[Sequence]) -> List:
        if inputs is None:
            return [None] * n
        if len(inputs) != n:
            raise ValueError("inputs length must equal n")
        return list(inputs)

    @classmethod
    def from_arrays(
        cls,
        n: int,
        edge_u,
        edge_v,
        inputs: Optional[Sequence] = None,
        validate: bool = True,
    ) -> "Graph":
        """Vectorized constructor from flat endpoint arrays.

        Produces exactly the same graph as
        ``Graph(n, zip(edge_u, edge_v), inputs)`` — same CSR layout, same
        neighbour order, same validation errors — but in O(m log m) numpy
        time instead of per-edge Python, which is what makes building
        n=10^6 instances cheap.  ``validate=False`` skips the
        duplicate/range scan for trusted deterministic builders.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        eu = _np.ascontiguousarray(edge_u, dtype=_np.int64).ravel()
        ev = _np.ascontiguousarray(edge_v, dtype=_np.int64).ravel()
        if eu.shape[0] != ev.shape[0]:
            raise ValueError("edge endpoint arrays must have equal length")
        if validate:
            _validate_edge_arrays(n, eu, ev)
        g = object.__new__(cls)
        g._indptr, g._indices = _csr_from_edge_arrays(n, eu, ev)
        g._n = n
        g._m = int(eu.shape[0])
        g._inputs = cls._coerce_inputs(n, inputs)
        return g

    @classmethod
    def from_csr_buffers(
        cls,
        n: int,
        m: int,
        indptr_buf,
        indices_buf,
        inputs: Optional[Sequence] = None,
        copy_inputs: bool = True,
    ) -> "Graph":
        """Zero-copy attach to externally owned CSR buffers.

        ``indptr_buf``/``indices_buf`` are buffer objects (e.g. slices of
        a ``multiprocessing.shared_memory`` block) holding ``n + 1`` and
        ``2 * m`` native int64 values.  The graph aliases them through
        ``memoryview.cast("q")`` — indexing still yields plain Python
        ints, so downstream consumers cannot tell the difference from the
        ``array('q')`` backing — and the caller keeps ownership: the
        buffers must outlive the graph.  ``copy_inputs=False`` stores the
        ``inputs`` sequence by reference (it must be immutable and
        support ``len``/indexing), which lets shared-memory attaches skip
        materializing n-element label lists.

        The views are sealed read-only (``memoryview.toreadonly``):
        attached buffers are typically mapped concurrently by sibling
        workers, so a store through this graph would race every process
        sharing the segment (SHM001) — writers must go through the
        owning pool, never an attach.
        """
        indptr = memoryview(indptr_buf).toreadonly().cast(_CSR_TYPECODE)
        indices = memoryview(indices_buf).toreadonly().cast(_CSR_TYPECODE)
        if len(indptr) != n + 1 or len(indices) != 2 * m:
            raise ValueError("CSR buffer sizes do not match (n, m)")
        g = object.__new__(cls)
        g._n = n
        g._m = m
        g._indptr = indptr
        g._indices = indices
        if inputs is not None and not copy_inputs:
            if len(inputs) != n:
                raise ValueError("inputs length must equal n")
            g._inputs = inputs
        else:
            g._inputs = cls._coerce_inputs(n, inputs)
        return g

    @classmethod
    def _from_csr(
        cls,
        n: int,
        m: int,
        indptr: "array",
        indices: "array",
        inputs: Sequence,
    ) -> "Graph":
        """Share already-validated CSR arrays (graphs are immutable, so
        aliasing them between instances is safe)."""
        g = object.__new__(cls)
        g._n = n
        g._m = m
        g._indptr = indptr
        g._indices = indices
        g._inputs = list(inputs)
        return g

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def nodes(self) -> range:
        return range(self._n)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        indptr = self._indptr
        return tuple(self._indices[indptr[v]:indptr[v + 1]])

    def adjacency(self) -> Tuple["array", "array"]:
        """The raw CSR pair ``(indptr, indices)``.

        The neighbours of ``v`` are ``indices[indptr[v]:indptr[v+1]]``.
        This is the fast primitive for radius-``r`` checker scans and
        fast-forward executors; callers must treat both arrays as
        read-only.
        """
        return self._indptr, self._indices

    def degree(self, v: int) -> int:
        return self._indptr[v + 1] - self._indptr[v]

    def max_degree(self) -> int:
        """The largest degree, 0 on the empty graph: one ``diff`` over a
        zero-copy int64 view of ``indptr`` (an ``array('q')`` or a
        read-only shared-memory attach alike)."""
        if self._n == 0:
            return 0
        return int(_np.diff(_np.frombuffer(self._indptr, dtype=_np.int64)).max())

    def input_of(self, v: int):
        return self._inputs[v]

    def inputs(self) -> List:
        return list(self._inputs)

    def edges(self) -> Iterator[Tuple[int, int]]:
        indptr, indices = self._indptr, self._indices
        for u in range(self._n):
            for i in range(indptr[u], indptr[u + 1]):
                v = indices[i]
                if u < v:
                    yield (u, v)

    def with_inputs(self, inputs: Sequence) -> "Graph":
        """Return a copy of this graph with different input labels."""
        if len(inputs) != self._n:
            raise ValueError("inputs length must equal n")
        return Graph._from_csr(
            self._n, self._m, self._indptr, self._indices, inputs
        )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def is_tree(self) -> bool:
        """True iff the graph is connected and acyclic (n>=1)."""
        if self._n == 0 or self._m != self._n - 1:
            return False
        return self._component_count() == 1

    def is_forest(self) -> bool:
        """True iff the graph is acyclic: ``m == n - #components``."""
        if self._m >= max(self._n, 1):
            return False
        return self._m == self._n - self._component_count()

    def is_connected(self) -> bool:
        if self._n == 0 or self._m < self._n - 1:
            return False
        return self._component_count() == 1

    def _component_count(self) -> int:
        """The number of connected components, by a numpy
        hook-and-shortcut pass over the CSR edge list.

        ``parent`` points every node at the smallest handle of its merged
        set: each pass hooks every root to the smallest root across its
        edges and shortcuts ``parent = parent[parent]`` to a fixed point,
        and an edge whose endpoints share a root drops out for good.
        Hooks only go to smaller handles, so the pointers never form a
        cycle.  :meth:`connected_components` is the BFS oracle.
        """
        n = self._n
        indptr = _np.frombuffer(self._indptr, dtype=_np.int64)
        indices = _np.frombuffer(self._indices, dtype=_np.int64)
        src = _np.repeat(_np.arange(n, dtype=_np.int64), _np.diff(indptr))
        once = src < indices
        lo, hi = src[once], indices[once]
        parent = _np.arange(n, dtype=_np.int64)
        while lo.size:
            _np.minimum.at(parent, hi, lo)
            while True:
                up = parent[parent]
                if _np.array_equal(up, parent):
                    break
                parent = up
            a, b = parent[lo], parent[hi]
            split = a != b
            a, b = a[split], b[split]
            lo, hi = _np.minimum(a, b), _np.maximum(a, b)
        return int(_np.count_nonzero(parent == _np.arange(n)))

    def connected_components(self) -> List[List[int]]:
        indptr, indices = self._indptr, self._indices
        seen = bytearray(self._n)
        comps: List[List[int]] = []
        for s in range(self._n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = 1
            head = 0
            while head < len(comp):
                u = comp[head]
                head += 1
                for i in range(indptr[u], indptr[u + 1]):
                    w = indices[i]
                    if not seen[w]:
                        seen[w] = 1
                        comp.append(w)
            comps.append(comp)
        return comps

    # ------------------------------------------------------------------
    # balls and distances
    # ------------------------------------------------------------------
    def ball(self, v: int, radius: int) -> Dict[int, int]:
        """Return ``{node: distance}`` for all nodes within ``radius`` of v."""
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        dist = {v: 0}
        for r, layer in enumerate(self.bfs_layers([v])):
            if r > 0:
                for w in layer:
                    dist[w] = r
            # break after *consuming* layer ``radius`` so the generator
            # never scans the frontier's edges for the layer beyond it
            if r == radius:
                break
        return dist

    def bfs_layers(self, sources: Iterable[int]) -> Iterator[List[int]]:
        """Yield BFS layers from ``sources``: layer 0 is the (deduplicated)
        sources, layer ``r`` the nodes at distance exactly ``r``.

        Stops after the last non-empty layer.  This is the growth primitive
        behind :meth:`ball`, the reference engine's view extraction: one
        layer per LOCAL round.
        """
        indptr, indices = self._indptr, self._indices
        seen = {}
        layer: List[int] = []
        for s in sources:
            if s not in seen:
                seen[s] = True
                layer.append(s)
        while layer:
            yield layer
            nxt: List[int] = []
            for u in layer:
                for i in range(indptr[u], indptr[u + 1]):
                    w = indices[i]
                    if w not in seen:
                        seen[w] = True
                        nxt.append(w)
            layer = nxt

    def bfs_distances(self, sources: Iterable[int]) -> List[Optional[int]]:
        """Multi-source BFS distance from ``sources`` to every node."""
        dist: List[Optional[int]] = [None] * self._n
        for r, layer in enumerate(self.bfs_layers(sources)):
            for w in layer:
                dist[w] = r
        return dist

    def eccentricity(self, v: int) -> int:
        ecc = 0
        for r, _layer in enumerate(self.bfs_layers([v])):
            ecc = r
        return ecc

    def induced_subgraph(self, nodes: Iterable[int]) -> Tuple["Graph", Dict[int, int]]:
        """Induced subgraph; returns (subgraph, old->new node map)."""
        nodes = sorted(set(nodes))
        remap = {old: new for new, old in enumerate(nodes)}
        indptr, indices = self._indptr, self._indices
        edges = [
            (remap[u], remap[v])
            for u in nodes
            for v in indices[indptr[u]:indptr[u + 1]]
            if u < v and v in remap
        ]
        inputs = [self._inputs[old] for old in nodes]
        return Graph(len(nodes), edges, inputs), remap

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------
def path_graph(n: int, inputs: Optional[Sequence] = None) -> Graph:
    """A path on ``n`` nodes: 0 - 1 - ... - (n-1)."""
    if n >= 2:
        heads = _np.arange(n - 1, dtype=_np.int64)
        return Graph.from_arrays(n, heads, heads + 1, inputs, validate=False)
    return Graph(n, [(i, i + 1) for i in range(n - 1)], inputs)


def star_graph(leaves: int) -> Graph:
    """A star: node 0 is the centre, nodes 1..leaves are leaves."""
    if leaves >= 1:
        spokes = _np.arange(1, leaves + 1, dtype=_np.int64)
        return Graph.from_arrays(
            leaves + 1, _np.zeros(leaves, dtype=_np.int64), spokes,
            validate=False,
        )
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def cycle_graph(n: int, inputs: Optional[Sequence] = None) -> Graph:
    """A cycle on ``n >= 3`` nodes: 0 - 1 - ... - (n-1) - 0."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    heads = _np.arange(n, dtype=_np.int64)
    return Graph.from_arrays(n, heads, (heads + 1) % n, inputs,
                             validate=False)


def grid_graph(rows: int, cols: int) -> Graph:
    """A ``rows x cols`` grid; node ``(r, c)`` has handle ``r * cols + c``."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    v_all = _np.arange(rows * cols, dtype=_np.int64)
    right = v_all[v_all % cols != cols - 1]
    down = v_all[v_all < (rows - 1) * cols]
    # edges per node in row-major order, its right edge before its down
    # edge (the per-edge build's neighbour order): a stable sort on
    # (node, kind)
    order = _np.argsort(
        _np.concatenate((2 * right, 2 * down + 1)), kind="stable"
    )
    us = _np.concatenate((right, down))[order]
    vs = _np.concatenate((right + 1, down + cols))[order]
    return Graph.from_arrays(rows * cols, us, vs, validate=False)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """The disjoint union of ``graphs``; handles of graph ``i`` are offset
    by the total size of graphs ``0..i-1``, inputs are preserved."""
    if not graphs:
        raise ValueError("disjoint_union needs at least one graph")
    edges: List[Tuple[int, int]] = []
    inputs: List = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        inputs.extend(g.inputs())
        offset += g.n
    return Graph(offset, edges, inputs)


def balanced_tree(fanout: int, height: int) -> Graph:
    """A rooted balanced tree with the given fan-out and height (root = 0).

    Every internal node has exactly ``fanout`` children; leaves are at depth
    ``height``.  The *degree* of internal non-root nodes is ``fanout + 1``.
    """
    if fanout < 1:
        raise ValueError("fanout must be >= 1")
    total = sum(fanout ** d for d in range(height + 1))
    if total < 2:
        return Graph(1, [])
    # handles are assigned in BFS order, so node k >= 1 hangs off parent
    # (k - 1) // fanout, with edges in child order
    children = _np.arange(1, total, dtype=_np.int64)
    return Graph.from_arrays(
        total, (children - 1) // fanout, children, validate=False
    )


def from_networkx(nx_graph) -> Graph:
    """Convert a networkx graph (any hashable node names) to :class:`Graph`.

    Node input labels are taken from the ``"input"`` node attribute if set.
    """
    nodes = list(nx_graph.nodes())
    remap = {name: i for i, name in enumerate(nodes)}
    edges = [(remap[u], remap[v]) for u, v in nx_graph.edges()]
    inputs = [nx_graph.nodes[name].get("input") for name in nodes]
    return Graph(len(nodes), edges, inputs)


def to_networkx(graph: Graph):
    """Convert to a networkx graph, storing inputs as node attributes."""
    import networkx as nx

    g = nx.Graph()
    for v in graph.nodes():
        g.add_node(v, input=graph.input_of(v))
    g.add_edges_from(graph.edges())
    return g
