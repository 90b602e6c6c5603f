"""Level computation for the k-hierarchical problems (Definition 8).

Levels are assigned by iterated peeling of low-degree nodes:

1. ``i = 1``.
2. ``V_i`` = nodes of degree at most 2 in the remaining forest; they get
   level ``i`` and are removed.
3. ``i += 1``; while ``i <= k`` continue from step 2.
4. Every remaining node gets level ``k + 1``.

A node can determine its own level in ``O(k)`` LOCAL rounds (the peeling is
a local process), which is why the k-hierarchical problems are LCLs with
checkability radius ``O(k)``.

Levels depend only on the instance (graph + input restriction), never on
outputs, so the verification kernel (:mod:`repro.lcl.kernel`) computes
them once per graph in its compile step and shares them across every
labeling of a ``verify_batch``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..local import vec
from ..local.graph import Graph

__all__ = ["compute_levels", "level_paths", "nodes_of_level"]


def compute_levels(graph: Graph, k: int, restrict: Optional[Iterable[int]] = None) -> List[int]:
    """Per-node levels in ``1..k+1``; nodes outside ``restrict`` get 0.

    ``restrict`` limits the peeling to an induced subgraph (used by the
    weighted problems, whose active components are leveled independently of
    the weight nodes).

    The peeling is a flat-array pass: one boolean sweep and one
    scatter-decrement per level instead of per-node neighbour scans.
    ``tests/test_vec.py`` keeps the per-node peeling as its oracle.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    np = vec.np
    n = graph.n
    indptr, indices = vec.csr_arrays(graph)
    if restrict is None:
        active = np.ones(n, dtype=bool)
    else:
        active = np.zeros(n, dtype=bool)
        active[list(restrict)] = True

    level = np.zeros(n, dtype=np.int64)
    alive = active.copy()
    deg = vec.induced_degrees(indptr, indices, active)
    for i in range(1, k + 1):
        peel = alive & (deg <= 2)
        if not peel.any():
            continue
        level[peel] = i
        alive[peel] = False
        _src, nbr = vec.expand_segments(indptr, indices, np.nonzero(peel)[0])
        targets = nbr[alive[nbr]]
        if targets.size:
            np.subtract.at(deg, targets, 1)
    level[alive] = k + 1
    return level.tolist()


def nodes_of_level(levels: List[int], i: int) -> List[int]:
    return [v for v, lv in enumerate(levels) if lv == i]


def level_paths(graph: Graph, levels: List[int], i: int) -> List[List[int]]:
    """The maximal paths induced by the level-``i`` nodes, traced by
    :func:`repro.local.vec.member_paths`: ascending by smallest member,
    each ordered from its smaller endpoint, a single node as a
    one-element list.

    For ``i <= k`` peeling leaves each level-``i`` node at most two
    level-``i`` neighbours, so every component is a path or a cycle, and
    on a forest a path.  Raises ``ValueError`` when a component is not a
    path: a node with three level-``i`` neighbours (possible at level
    ``k + 1``), or a cycle.
    """
    np = vec.np
    return vec.member_paths(graph, np.asarray(levels, dtype=np.int64) == i)
