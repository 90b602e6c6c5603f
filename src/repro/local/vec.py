"""Shared numpy sweeps over CSR graphs for the array-form solver passes.

The centralized solvers (levels, generic phases, rake-and-compress, the
oriented fast decomposition) all iterate the same three primitives:
count neighbours inside a node subset, expand a node subset to its
incident directed edges, and trace the maximal paths induced by a subset
whose induced degree is at most 2.  This module provides those primitives
as flat numpy passes over the graph's CSR arrays so the solvers scale to
``n = 10^6``.  Each solver pass has one body, a numpy sweep run at every
size; its per-node Python oracle lives in ``tests/test_vec.py``.  Path
tracing is shared: every solver pass, and
:func:`repro.lcl.levels.level_paths`, calls :func:`member_paths`, whose
one oracle is ``_assert_member_paths`` in ``tests/test_vec.py``.  A
member component that is not a path (a node with three member
neighbours, or a cycle) raises ``ValueError``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .graph import Graph

__all__ = [
    "csr_arrays",
    "expand_segments",
    "induced_degrees",
    "member_paths",
]


def csr_arrays(graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """The graph's CSR pair as zero-copy read-only int64 numpy views —
    the one entry point for vectorized code (the solver passes here,
    the frontier scheduler, the checker kernel, ``decide_batch``
    implementations) that wants the adjacency as numpy arrays.  The
    views alias the graph's own storage, so a write raises."""
    indptr, indices = (np.frombuffer(buf, dtype=np.int64)
                       for buf in graph.adjacency())
    indptr.flags.writeable = indices.flags.writeable = False
    return indptr, indices


def expand_segments(indptr, indices, nodes):
    """All directed edges out of ``nodes``: ``(src, nbr)`` arrays with
    ``src`` repeated per degree and neighbours in CSR order."""
    lens = indptr[nodes + 1] - indptr[nodes]
    total = int(lens.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    shift = np.concatenate(([0], np.cumsum(lens)[:-1]))
    gather = np.arange(total, dtype=np.int64) + np.repeat(
        indptr[nodes] - shift, lens
    )
    return np.repeat(nodes, lens), indices[gather]


def induced_degrees(indptr, indices, member):
    """Per-node count of neighbours inside the boolean ``member`` mask
    (defined for every node, members or not), via one cumsum difference."""
    counts = np.zeros(len(indices) + 1, dtype=np.int64)
    np.cumsum(member[indices], out=counts[1:])
    return counts[indptr[1:]] - counts[indptr[:-1]]


def _walk(v: int, prev: int, nb1: List[int], nb2: List[int],
          ids: List[int], seen: bytearray) -> List[int]:
    """Follow the path from rank ``v`` away from rank ``prev`` to its
    end, marking each rank ``seen``; the node ids along the way.  A step
    onto a rank already seen closes a cycle and raises ``ValueError``."""
    out = [ids[v]]
    seen[v] = 1
    cur, pr = v, prev
    while True:
        a = nb1[cur]
        nxt = a if a != pr else nb2[cur]
        if nxt == -1:
            break
        if seen[nxt]:
            raise ValueError("member component is a cycle")
        out.append(ids[nxt])
        seen[nxt] = 1
        pr = cur
        cur = nxt
    return out


def member_paths(graph: Graph, member) -> List[List[int]]:
    """Maximal paths induced by the boolean ``member`` mask.

    Components are returned in ascending order of their smallest member;
    each path is ordered from its smaller endpoint.  Raises
    ``ValueError`` when a component is not a path: a member has more
    than two member neighbours, or the component is a cycle.  The walk
    runs over member ranks (positions among the sorted members): past
    the mask scan, its cost follows the members, not n.
    """
    indptr, indices = csr_arrays(graph)
    nodes = np.nonzero(member)[0]
    if nodes.size == 0:
        return []
    src, nbr = expand_segments(indptr, indices, nodes)
    keep = member[nbr]
    # a zero-filled table: the scatter touches only the members' pages
    rank = np.zeros(graph.n, dtype=np.int64)
    rank[nodes] = np.arange(nodes.size)
    src, nbr = rank[src[keep]], rank[nbr[keep]]
    counts = np.bincount(src, minlength=nodes.size)
    if int(counts.max()) > 2:
        raise ValueError("member component is not a path")
    nb = np.full((nodes.size, 2), -1, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(src.size, dtype=np.int64) - np.repeat(starts, counts)
    nb[src, within] = nbr
    nb1 = nb[:, 0].tolist()
    nb2 = nb[:, 1].tolist()

    ids = nodes.tolist()
    seen = bytearray(nodes.size)
    paths: List[List[int]] = []
    for v in range(nodes.size):
        if seen[v]:
            continue
        # v is the smallest member of its component: an endpoint v is
        # the path's smaller endpoint
        a, b = nb1[v], nb2[v]
        if b == -1:
            paths.append(_walk(v, -1, nb1, nb2, ids, seen))
        else:
            walk_a = _walk(v, b, nb1, nb2, ids, seen)
            walk_b = _walk(v, a, nb1, nb2, ids, seen)
            if walk_a[-1] <= walk_b[-1]:
                paths.append(walk_a[::-1] + walk_b[1:])
            else:
                paths.append(walk_b[::-1] + walk_a[1:])
    return paths
