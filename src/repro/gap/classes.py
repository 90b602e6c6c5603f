"""Label-sets, classes, and the ``g`` computation (Definitions 73-74).

In the generic solver a *label-set* ``L`` is the set of output labels that
an edge could still carry so that the subtree hanging below it remains
completable.  For a single node (rake step) the next label-set is

    g(v) = { l : exists l_i in L_i with the multiset
             {(in_out_edge, l)} u {(in_i, l_i)} allowed at v }.

For a short path with two outgoing edges (compress step) the *maximal
class* is captured by the relation ``R`` of feasible endpoint label
pairs, and an *independent class* is exactly a non-empty combinatorial
rectangle ``S1 x S2`` contained in ``R``: independence (Definition 73)
says any mix of allowed endpoint choices stays feasible, which for two
outgoing edges is precisely the rectangle property.  The function
``f_{Pi,k}`` of Definition 74 is therefore a choice of rectangle for
every maximal class; :mod:`repro.gap.testing` enumerates these choices.

The module-level functions compute each query from the constraint
predicates (``g`` and the path relation by a per-label DP over
:func:`node_feasible`).  They are the oracle: :class:`GapCache` answers
the same queries from compiled bitmask tables (a path relation is a
composition of per-node transfer rows, the automaton view of a path),
and the differential tests pin the two equal.  Census problems with the
same allowed multisets share one colour's tables through a bounded
process-wide registry (see :class:`GapCache`).
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..lcl.blackwhite import BLACK, WHITE, BlackWhiteLCL

__all__ = [
    "LabelSet",
    "GapCache",
    "REGISTRY_LIMIT",
    "clear_registry",
    "g_single_node",
    "leaf_label_sets",
    "node_feasible",
    "path_relation",
    "maximal_rectangles",
]

LabelSet = FrozenSet


def node_feasible(
    problem: BlackWhiteLCL,
    color: str,
    fixed: Sequence[Tuple[object, object]],
    free: Sequence[Tuple[object, LabelSet]],
) -> bool:
    """Is there a choice from the free edges' label-sets making the node
    constraint hold together with the fixed (input, output) pairs?"""
    pools = [[(inp, lab) for lab in ls] for inp, ls in free]
    for combo in itertools.product(*pools):
        if problem.allows(color, list(fixed) + list(combo)):
            return True
    return False


def g_single_node(
    problem: BlackWhiteLCL,
    color: str,
    incoming: Sequence[Tuple[object, LabelSet]],
    out_input,
) -> LabelSet:
    """Definition 74, single-node case: the label-set of the outgoing edge."""
    good = set()
    for lab in problem.sigma_out:
        if node_feasible(problem, color, [(out_input, lab)], incoming):
            good.add(lab)
    return frozenset(good)


def leaf_label_sets(problem: BlackWhiteLCL, color: str) -> Dict[object, LabelSet]:
    """Label-sets ``g(v)`` of leaves, per outgoing-edge input label."""
    return {
        inp: g_single_node(problem, color, [], inp)
        for inp in problem.sigma_in
    }


def path_relation(
    problem: BlackWhiteLCL,
    colors: Sequence[str],
    edge_inputs: Sequence,
    pendant: Sequence[Sequence[Tuple[object, LabelSet]]],
    out_inputs: Tuple[object, object],
) -> FrozenSet[Tuple[object, object]]:
    """The maximal class of a compress path as a relation.

    ``colors[i]`` is the colour of path node ``i``; ``edge_inputs[j]`` is
    the input of the edge between nodes ``j`` and ``j+1``;
    ``pendant[i]`` lists (input, label-set) of the pendant incoming edges
    at node ``i``; ``out_inputs`` are the inputs of the two outgoing edges
    at the path's endpoints.  Returns all feasible (left-out, right-out)
    output pairs, via a sweep DP along the path.
    """
    m = len(colors)
    assert len(edge_inputs) == m - 1 and len(pendant) == m
    relation: Set[Tuple[object, object]] = set()
    for left in problem.sigma_out:
        # reachable[l] = set of labels on edge (i, i+1) consistent so far
        reachable: Set = set()
        for lab in problem.sigma_out:
            fixed = [(out_inputs[0], left)]
            if m == 1:
                break
            fixed.append((edge_inputs[0], lab))
            if node_feasible(problem, colors[0], fixed, pendant[0]):
                reachable.add(lab)
        if m == 1:
            for right in problem.sigma_out:
                if node_feasible(
                    problem, colors[0],
                    [(out_inputs[0], left), (out_inputs[1], right)],
                    pendant[0],
                ):
                    relation.add((left, right))
            continue
        for i in range(1, m - 1):
            nxt: Set = set()
            for prev_lab in reachable:
                for lab in problem.sigma_out:
                    fixed = [(edge_inputs[i - 1], prev_lab), (edge_inputs[i], lab)]
                    if node_feasible(problem, colors[i], fixed, pendant[i]):
                        nxt.add(lab)
            reachable = nxt
            if not reachable:
                break
        for prev_lab in reachable:
            for right in problem.sigma_out:
                fixed = [(edge_inputs[m - 2], prev_lab), (out_inputs[1], right)]
                if node_feasible(problem, colors[m - 1], fixed, pendant[m - 1]):
                    relation.add((left, right))
    return frozenset(relation)


#: the most entries a registry holds; a new entry past it first drops the
#: oldest one
REGISTRY_LIMIT = 4096

#: the compiled tables that every problem with constraint masks reads, in
#: one process-wide dict: alphabet tables under ``(Sigma_in, Sigma_out)``,
#: constraint tables under ``(Sigma_in, Sigma_out, delta, mask)`` and
#: maximal rectangles under their relation
_REGISTRY: Dict[object, object] = {}


def clear_registry() -> None:
    """Empty the shared registry, so the next problem compiles cold."""
    _REGISTRY.clear()


def _lookup(registry: Dict, key, build):
    """``registry[key]``, made by ``build()`` on a miss."""
    hit = registry.get(key)
    if hit is None:
        if len(registry) >= REGISTRY_LIMIT:
            del registry[next(iter(registry))]
        hit = registry[key] = build()
    return hit


class _AlphabetTables:
    """The compiled tables of one ``(Sigma_in, Sigma_out)`` pair: pair codes,
    label bits, label-set masks and frozensets, and reach relations."""

    __slots__ = ("n_out", "bit", "base", "pairs", "bits", "sets", "masks",
                 "reach_relations", "start_reach")

    def __init__(self, ins: Tuple, outs: Tuple) -> None:
        n = len(outs)
        self.n_out = n
        self.bit = {lab: j for j, lab in enumerate(outs)}
        self.base = {inp: k * n for k, inp in enumerate(ins)}
        self.pairs = [(inp, lab) for inp in ins for lab in outs]
        #: the output indices of each mask, ascending
        self.bits = [tuple(j for j in range(n) if mask >> j & 1)
                     for mask in range(1 << n)]
        self.sets = [frozenset(outs[j] for j in js) for js in self.bits]
        self.masks: Dict[LabelSet, int] = {}
        self.reach_relations: Dict = {}
        #: every left label reaches only itself on the left outgoing edge
        self.start_reach = tuple(1 << j for j in range(n))


class _ConstraintTables:
    """The compiled tables of one colour's constraint: the ``allows``
    memo, the ``g`` masks, the transfer rows and the leaf label-sets."""

    __slots__ = ("allowed", "g_masks", "rows", "leaf")

    def __init__(self) -> None:
        self.allowed: Dict = {}
        self.g_masks: Dict = {}
        self.rows: Dict = {}
        self.leaf: Optional[Mapping[object, LabelSet]] = None


class GapCache:
    """Compile cache for the Section-11 machinery.

    One Theorem-7 decision runs the testing procedure once per candidate
    function, and every run asks the same ``g``, feasibility and path
    relation questions.  With ``memoize=True`` a ``GapCache`` answers
    every query from compiled integer tables — mirroring the per-graph
    compile cache of :class:`repro.lcl.kernel.CompiledChecker`:

    * each (input, output) pair gets an int code, ``input index *
      |Sigma_out| + output index``, and :meth:`BlackWhiteLCL.allows` runs
      once per distinct sorted code multiset;
    * a label-set is a ``Sigma_out`` bitmask (bit ``j`` is
      ``sigma_out[j]``) behind a memoized frozenset → mask translation,
      so the API still takes and returns frozensets;
    * one table per colour, ``g(incoming (input, mask) multiset, out
      input) → mask``, answers :meth:`g_single_node` and
      :meth:`node_feasible` (which pulls one free edge out as the
      outgoing one) — the rake steps 2a/2b and ``is_constant_good``;
    * the same table yields the *transfer rows* of compress paths:
      ``row(colour, pendant, fixed pair, next input)`` is the mask of
      labels a path node's next edge can take, kept per node type as one
      table over the fixed edge's reachable-label masks, and
      :meth:`path_relation` composes one such table per node by bit
      propagation (the automaton view of a path), at every path length,
      1 included; the composed *reach tuple* becomes a frozenset once
      per distinct tuple (:meth:`reach_relation`);
    * maximal rectangles are kept per relation;
    * the testing procedure keeps two whole-step memos here, ``rake``
      (rake closures) and ``compress`` (compress plans, which walk the
      pendant product over shared prefixes of the same rows).

    The tables are split by what they depend on.  The *alphabet tables*
    (pair codes, label bits, masks, label-set frozensets, reach
    relations) depend on ``Sigma_in`` and ``Sigma_out`` only; the
    *constraint tables* of a colour (the ``allows`` memo, the ``g``
    masks, the transfer rows, the leaf label-sets) on the alphabets and
    that colour's allowed multisets; maximal rectangles on their relation
    alone.  A problem that carries ``constraint_masks`` (every census
    problem, see :func:`repro.gap.census.spec_to_problem`) reads all
    three from one process-wide registry, so problems that share an
    allowed set compile it once per process: constraint tables are keyed
    by ``(Sigma_in, Sigma_out, delta, mask)``, alphabet tables by
    ``(Sigma_in, Sigma_out)``.  The registry holds at most one entry per
    key and at most :data:`REGISTRY_LIMIT` entries in all (the oldest
    goes first); :func:`clear_registry` empties it.  A problem without
    masks, such as a registry predicate problem, keeps the same tables in
    a private registry, one per colour, and never touches the shared
    one.  The ``rake`` and ``compress`` memos
    read both colours, so they stay per cache.  Shared values are handed
    out read-only: :meth:`leaf_label_sets` returns a mapping proxy and
    :meth:`maximal_rectangles` a tuple.

    ``memoize=False`` keeps the same interface but answers every query
    with the module-level functions — the one oracle the compiled tables
    are tested against, and the decider benchmark's baseline.  Both
    paths return identical frozensets, so the cache only changes the
    work done, never a verdict (pinned by the differential tests).
    """

    def __init__(self, problem: BlackWhiteLCL, memoize: bool = True) -> None:
        self.problem = problem
        self.memoize = memoize
        #: whole-rake-closure memo, filled by the testing procedure: the
        #: closure is a pure function of (entries, delta) and identical
        #: across all DFS candidates that share a choice prefix
        self.rake: Dict = {}
        #: compress-plan memo, filled the same way: step 2f's distinct
        #: relations are a pure function of (rake-closed entries, delta,
        #: ell), so every candidate reaching that state replays one plan
        self.compress: Dict = {}
        if memoize:
            self._compile()

    def _compile(self) -> None:
        problem = self.problem
        alphabet = (problem.sigma_in, problem.sigma_out)
        if problem.constraint_masks is None:
            # a private registry, with one constraint table per colour
            registry: Dict = {}
            keys = {WHITE: WHITE, BLACK: BLACK}
        else:
            delta, white_mask, black_mask = problem.constraint_masks
            registry = _REGISTRY
            keys = {WHITE: alphabet + (delta, white_mask),
                    BLACK: alphabet + (delta, black_mask)}
        self._registry = registry
        self._tables = {color: _lookup(registry, key, _ConstraintTables)
                        for color, key in keys.items()}
        tables = _lookup(registry, alphabet,
                         lambda: _AlphabetTables(*alphabet))
        self._n_out = tables.n_out
        self._bit = tables.bit
        self._base = tables.base
        self._pairs = tables.pairs
        self._bits = tables.bits
        self._sets = tables.sets
        self._masks = tables.masks
        self._reach_relations = tables.reach_relations
        self.start_reach = tables.start_reach

    # -- compiled tables -----------------------------------------------
    def _mask(self, labels: LabelSet) -> int:
        mask = self._masks.get(labels)
        if mask is None:
            bit = self._bit
            mask = self._masks[labels] = sum(1 << bit[lab] for lab in labels)
        return mask

    def _allows(self, color: str, codes: Tuple[int, ...]) -> bool:
        allowed = self._tables[color].allowed
        hit = allowed.get(codes)
        if hit is None:
            pairs = self._pairs
            hit = allowed[codes] = self.problem.allows(
                color, [pairs[c] for c in codes])
        return hit

    def _g_mask(self, color: str, incoming: Tuple[Tuple[int, int], ...],
                out: int) -> int:
        """``g`` as a mask: the labels the edge with input code base
        ``out`` can take while every incoming edge (a sorted tuple of
        (input code base, mask)) takes a label of its mask."""
        g_masks = self._tables[color].g_masks
        key = (incoming, out)
        hit = g_masks.get(key)
        if hit is None:
            hit = 0
            bits = self._bits
            pools = [[base + j for j in bits[mask]] for base, mask in incoming]
            for combo in itertools.product(*pools):
                for j in range(self._n_out):
                    if not hit >> j & 1 and self._allows(
                            color, tuple(sorted(combo + (out + j,)))):
                        hit |= 1 << j
            g_masks[key] = hit
        return hit

    def _incoming(self, pairs) -> List[Tuple[int, int]]:
        base = self._base
        return [(base[inp], self._mask(ls)) for inp, ls in pairs]

    def transfer_row(
        self, color: str, pendant: Tuple, inp, nxt
    ) -> Tuple[int, ...]:
        """A path node's transfer row: ``row[reach]`` is the mask of labels
        its edge with input ``nxt`` can take while its edge with input
        ``inp`` carries a label of ``reach`` and each pendant edge a label
        of its label-set.

        A path is composed on a *reach tuple*: entry ``j`` is the mask of
        labels the current edge can take while the left outgoing edge
        carries ``sigma_out[j]``.  It starts at :attr:`start_reach` and
        each node maps it through its row, ``tuple(map(row.__getitem__,
        reach))``; :meth:`reach_relation` reads the relation off the
        result."""
        rows = self._tables[color].rows
        key = (pendant, inp, nxt)
        row = rows.get(key)
        if row is None:
            pend, a = self._incoming(pendant), self._base[inp]
            single = [
                self._g_mask(color, tuple(sorted(pend + [(a, 1 << j)])),
                             self._base[nxt])
                for j in range(self._n_out)
            ]
            table = [0] * len(self._bits)
            for reach, js in enumerate(self._bits):
                for j in js:
                    table[reach] |= single[j]
            row = rows[key] = tuple(table)
        return row

    def reach_relation(
        self, reach: Tuple[int, ...]
    ) -> FrozenSet[Tuple[object, object]]:
        """The relation of a composed path's reach tuple: left label
        ``sigma_out[j]`` pairs with every right label of ``reach[j]``.
        Each distinct reach tuple becomes a frozenset once per alphabet
        table."""
        hit = self._reach_relations.get(reach)
        if hit is None:
            outs, bits = self.problem.sigma_out, self._bits
            hit = self._reach_relations[reach] = frozenset(
                (outs[left], outs[r])
                for left, mask in enumerate(reach) for r in bits[mask])
        return hit

    # -- cached entry points -------------------------------------------
    def node_feasible(self, color, fixed, free) -> bool:
        if not self.memoize:
            return node_feasible(self.problem, color, fixed, free)
        bit = self._bit
        entries = [(self._base[inp], 1 << bit[lab]) for inp, lab in fixed]
        entries += self._incoming(free)
        if not entries:
            return self._allows(color, ())
        # feasible iff the last edge's label-set meets g of all the others
        out, mask = entries.pop()
        entries.sort()
        return bool(self._g_mask(color, tuple(entries), out) & mask)

    def g_single_node(self, color, incoming, out_input) -> LabelSet:
        if not self.memoize:
            return g_single_node(self.problem, color, incoming, out_input)
        return self._sets[self._g_mask(
            color, tuple(sorted(self._incoming(incoming))),
            self._base[out_input])]

    def leaf_label_sets(self, color) -> Mapping[object, LabelSet]:
        if not self.memoize:
            return leaf_label_sets(self.problem, color)
        tables = self._tables[color]
        if tables.leaf is None:
            tables.leaf = MappingProxyType({
                inp: self.g_single_node(color, [], inp)
                for inp in self.problem.sigma_in
            })
        return tables.leaf

    def path_relation(
        self, colors, edge_inputs, pendant, out_inputs
    ) -> FrozenSet[Tuple[object, object]]:
        if not self.memoize:
            return path_relation(
                self.problem, colors, edge_inputs, pendant, out_inputs
            )
        m = len(colors)
        assert len(edge_inputs) == m - 1 and len(pendant) == m
        ins = (out_inputs[0], *edge_inputs, out_inputs[1])
        reach = self.start_reach
        for i in range(m):
            row = self.transfer_row(colors[i], tuple(pendant[i]), ins[i],
                                    ins[i + 1])
            reach = tuple(map(row.__getitem__, reach))
        return self.reach_relation(reach)

    def maximal_rectangles(
        self, relation
    ) -> Sequence[Tuple[LabelSet, LabelSet]]:
        if not self.memoize:
            return maximal_rectangles(relation)
        return _lookup(self._registry, relation,
                       lambda: tuple(maximal_rectangles(relation)))


def maximal_rectangles(
    relation: FrozenSet[Tuple[object, object]]
) -> List[Tuple[LabelSet, LabelSet]]:
    """All maximal non-empty rectangles ``S1 x S2`` inside the relation —
    the candidate independent classes of Definition 73."""
    if not relation:
        return []
    lefts = sorted({a for a, _ in relation}, key=repr)
    rects: List[Tuple[LabelSet, LabelSet]] = []
    seen: Set[Tuple[LabelSet, LabelSet]] = set()
    # grow from every subset of left labels that share right-compatibility
    for r in range(1, len(lefts) + 1):
        for combo in itertools.combinations(lefts, r):
            rights = None
            for a in combo:
                row = {b for x, b in relation if x == a}
                rights = row if rights is None else rights & row
            if not rights:
                continue
            key = (frozenset(combo), frozenset(rights))
            if key in seen:
                continue
            seen.add(key)
            rects.append(key)
    # keep only maximal ones
    maximal = []
    for s1, s2 in rects:
        dominated = any(
            (s1 <= t1 and s2 <= t2) and (s1, s2) != (t1, t2)
            for t1, t2 in rects
        )
        if not dominated:
            maximal.append((s1, s2))
    return maximal
