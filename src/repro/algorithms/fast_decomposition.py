"""Adapted fast-decomposition solver for the d-free weight problem
(Section 8.1).

The paper adapts the Fast Decomposition Algorithm of [BBK+23a] to solve
the d-free weight problem with O(1) node-averaged complexity, O(log n)
worst case (Corollary 49), Copy components ``C(v)`` that are rooted trees
of diameter ``O(i_v)`` separated by Declines (Lemma 50), and — after the
reassignment of Lemma 52 — ``|C'(v)| <= 2 |C(v)|^{x'}`` with
``x' = log(D-d+1)/log(D-1)``.

**Substitution note** (see DESIGN.md): [BBK+23a]'s full marking machinery
(extra compress insertions, local-maximum bookkeeping) is not reproduced
line by line.  This module implements a simplified algorithm with the
same interface guarantees:

* a ``(1, 3, O(log n))`` rake-and-compress decomposition with the
  Observation-46 orientation (edges point from later-removed to
  earlier-removed nodes; compress interiors stay unoriented, which caps
  oriented-chain depth at the iteration index);
* input-``A`` nodes become Copy roots when their layer is assigned
  (iteration ``i_v``); their oriented span is collected, reassigned per
  Lemma 52 (each node declines up to ``d - pre(u)`` heaviest child
  subtrees, ``pre(u)`` counting the <= 2 pre-existing/unavoidable Decline
  neighbours of Lemma 48), borders are declined, everything outside
  A-spans declines at its own assignment iteration;
* per-node time: ``O(iteration at which the output became determined)``.

Before the decomposition, nodes on a path of length <= ``CONNECT_RADIUS``
between two ``A``-nodes connect, by Algorithm A's own path marking.  The
result is a :class:`~repro.algorithms.dfree_solver.DFreeSolution`, the
shape Algorithm A returns, with per-node rounds and the decomposition's
iteration count.

On the paper's workload family (balanced weight trees of Definition 25)
the unfinished-node count decays geometrically with the iteration index,
giving the O(1) node-averaged behaviour — bench E16 measures this.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from ..lcl.dfree import A_INPUT, CONNECT, COPY, DECLINE, W_INPUT
from ..local import vec
from ..local.graph import Graph
from .dfree_solver import DFreeSolution, _mark_connect_paths

__all__ = ["run_fast_dfree", "CONNECT_RADIUS"]

CONNECT_RADIUS = 5
_ROUNDS_PER_ITER = 3


def run_fast_dfree(graph: Graph, d: int) -> DFreeSolution:
    """Solve the d-free weight problem with the adapted fast decomposition.

    Requires ``d >= 2`` (Corollary 49's hypothesis; Lemma 48 gives each
    node at most 2 unavoidable Decline neighbours).
    """
    if d < 2:
        raise ValueError("the fast solver requires d >= 2 (Corollary 49)")
    n = graph.n
    outputs: List[Optional[str]] = [None] * n
    rounds = [0] * n
    a_nodes = [v for v in graph.nodes() if graph.input_of(v) == A_INPUT]
    for v in graph.nodes():
        if graph.input_of(v) not in (A_INPUT, W_INPUT):
            raise ValueError(f"node {v} has input {graph.input_of(v)!r}")

    # ---- Connect preprocessing: A-nodes within distance 5 --------------
    _mark_connect_paths(graph, a_nodes, CONNECT_RADIUS, outputs)
    for v in graph.nodes():
        if outputs[v] == CONNECT:
            rounds[v] = CONNECT_RADIUS

    active_nodes = [v for v in graph.nodes() if outputs[v] is None]

    # ---- oriented (1, 3, L)-decomposition on the rest -------------------
    parent, iter_of, iters = _oriented_decomposition(graph, set(active_nodes))

    children: Dict[int, List[int]] = {v: [] for v in active_nodes}
    for v in active_nodes:
        p = parent.get(v)
        if p is not None:
            children[p].append(v)

    # ---- process A-nodes by assignment iteration ------------------------
    copy_component_of: Dict[int, List[int]] = {}
    pending = sorted(
        (v for v in a_nodes if outputs[v] is None),
        key=lambda v: (iter_of[v], v),
    )
    for v in pending:
        if outputs[v] is not None:
            continue  # swallowed by an earlier A-node's span
        span = _unassigned_span(v, children, outputs)
        t_base = _ROUNDS_PER_ITER * iter_of[v]
        kept = _lemma52_reassign(graph, v, span, children, outputs, d)
        # assign: kept -> Copy, rest of span -> Decline; borders -> Decline
        for u, depth in kept.items():
            outputs[u] = COPY
            rounds[u] = t_base + depth
        # declined span nodes and borders terminate at their *own*
        # assignment iteration: in [BBK+23a]'s machinery they are handled
        # by the local-maximum / compress-middle marking without waiting
        # for v (Corollary 47's geometric decay is over exactly these)
        for u in span:
            if outputs[u] is None and graph.input_of(u) != A_INPUT:
                outputs[u] = DECLINE
                rounds[u] = _ROUNDS_PER_ITER * iter_of[u] + 1
        for u in kept:
            for w in graph.neighbors(u):
                if outputs[w] is None and graph.input_of(w) != A_INPUT:
                    outputs[w] = DECLINE
                    rounds[w] = _ROUNDS_PER_ITER * iter_of[w] + 1
        copy_component_of[v] = sorted(kept)

    # ---- everything else declines at its own assignment time -----------
    for v in active_nodes:
        if outputs[v] is None:
            outputs[v] = DECLINE
            rounds[v] = _ROUNDS_PER_ITER * iter_of[v]

    return DFreeSolution(
        outputs=[o for o in outputs],  # type: ignore[misc]
        rounds=rounds,
        copy_component_of=copy_component_of,
        iterations=iters,
    )


def _oriented_decomposition(
    graph: Graph, members: Set[int]
) -> Tuple[Dict[int, Optional[int]], Dict[int, int], int]:
    """Rake-compress (gamma=1, ell=3) restricted to ``members``.

    Returns (parent, iteration_of, iterations).  ``parent[v]`` is the
    unique alive neighbour at v's rake removal (edges oriented
    parent -> v per Observation 46); compress-chunk nodes get no parent,
    which caps oriented-chain depth by the iteration count.

    The peeling is a flat-array pass that traces compress runs with
    :func:`repro.local.vec.member_paths`; ``tests/test_vec.py`` keeps
    the per-node peeling as its oracle.
    """
    np = vec.np
    n = graph.n
    indptr, indices = vec.csr_arrays(graph)
    member = np.zeros(n, dtype=bool)
    if members:
        member[sorted(members)] = True
    deg = vec.induced_degrees(indptr, indices, member)
    alive = member.copy()
    parent_arr = np.full(n, -1, dtype=np.int64)
    iter_arr = np.zeros(n, dtype=np.int64)
    live = int(member.sum())

    def batch_remove(nodes_arr) -> None:
        nonlocal live
        alive[nodes_arr] = False
        _src, nbr = vec.expand_segments(indptr, indices, nodes_arr)
        targets = nbr[alive[nbr]]
        if targets.size:
            np.subtract.at(deg, targets, 1)
        live -= int(nodes_arr.size)

    i = 0
    while live:
        i += 1
        if i > n + 2:
            raise RuntimeError("oriented decomposition exceeded budget")
        # rake: removable nodes pair into a matching; drop larger handles
        low = alive & (deg <= 1)
        lo = np.nonzero(low)[0]
        if lo.size:
            src, nbr = vec.expand_segments(indptr, indices, lo)
            pair = low[nbr]
            chosen = low
            if pair.any():
                chosen = low.copy()
                chosen[np.maximum(src[pair], nbr[pair])] = False
            nodes = np.nonzero(chosen)[0]
            # orientation: a chosen node's unique alive non-chosen
            # neighbour (at most one, since its induced degree is <= 1)
            src, nbr = vec.expand_segments(indptr, indices, nodes)
            ok = alive[nbr] & ~chosen[nbr]
            parent_arr[src[ok]] = nbr[ok]
            iter_arr[nodes] = i
            batch_remove(nodes)
        if not live:
            break
        # compress: runs of >= 3 degree-2 nodes; interiors unoriented
        removed: List[int] = []
        for run in vec.member_paths(graph, alive & (deg == 2)):
            if len(run) >= 3:
                removed.extend(run)
        if removed:
            arr = np.array(removed, dtype=np.int64)
            iter_arr[arr] = i
            batch_remove(arr)

    parent: Dict[int, Optional[int]] = {}
    iter_of: Dict[int, int] = {}
    parents = parent_arr.tolist()
    iters = iter_arr.tolist()
    for v in np.nonzero(member)[0].tolist():
        p = parents[v]
        parent[v] = None if p == -1 else p
        iter_of[v] = iters[v]
    return parent, iter_of, i


def _unassigned_span(
    v: int, children: Dict[int, List[int]], outputs: List[Optional[str]]
) -> List[int]:
    """Nodes reachable from v along oriented (parent->child) edges that
    have no output yet — the raw ``C(v)`` of Lemma 50."""
    span = [v]
    stack = [v]
    seen = {v}
    while stack:
        u = stack.pop()
        for c in children.get(u, ()):
            if c not in seen and outputs[c] is None:
                seen.add(c)
                span.append(c)
                stack.append(c)
    return span


def _lemma52_reassign(
    graph: Graph,
    v: int,
    span: List[int],
    children: Dict[int, List[int]],
    outputs: List[Optional[str]],
    d: int,
) -> Dict[int, int]:
    """Lemma 52: prune the raw span to a Copy set of size
    ``O(|span|^{x'})`` while keeping every Copy node within its Decline
    budget.  Returns ``{kept node: depth from v}``.

    ``pre(u)`` counts neighbours that are already Decline or that are
    outside the span (borders, which will decline); each Copy node may
    decline up to ``d - pre(u)`` of its heaviest child subtrees.
    """
    span_set = set(span)
    size: Dict[int, int] = {u: 1 for u in span}
    has_a: Dict[int, bool] = {
        u: graph.input_of(u) == A_INPUT and u != v for u in span
    }
    stack = [(v, False)]
    while stack:
        u, done = stack.pop()
        if done:
            for c in children.get(u, ()):
                if c in span_set:
                    size[u] += size[c]
                    has_a[u] = has_a[u] or has_a[c]
            continue
        stack.append((u, True))
        for c in children.get(u, ()):
            if c in span_set:
                stack.append((c, False))

    kept: Dict[int, int] = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        kids = [c for c in children.get(u, ()) if c in span_set]
        pre = sum(
            1
            for w in graph.neighbors(u)
            if (w not in span_set and outputs[w] in (None, DECLINE))
        )
        budget = max(0, d - pre)
        # decline the heaviest A-free child subtrees; subtrees containing
        # another A-node must stay Copy-connected (that node roots its own
        # component later and may never be declined)
        declinable = sorted(
            (c for c in kids if not has_a[c]), key=lambda c: -size[c]
        )
        declined = set(declinable[:budget])
        for c in kids:
            if c not in declined:
                kept[c] = kept[u] + 1
                queue.append(c)
    return kept
