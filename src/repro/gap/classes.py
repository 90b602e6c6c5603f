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
and the differential tests pin the two equal.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..lcl.blackwhite import BLACK, WHITE, BlackWhiteLCL

__all__ = [
    "LabelSet",
    "GapCache",
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


class GapCache:
    """Per-problem compile cache for the Section-11 machinery.

    One Theorem-7 decision runs the testing procedure once per candidate
    function, and every run asks the same ``g``, feasibility and path
    relation questions.  With ``memoize=True`` a ``GapCache`` compiles
    the problem once — mirroring the per-graph compile cache of
    :class:`repro.lcl.kernel.CompiledChecker` — and answers every query
    from integer tables shared by all testing runs of the decision:

    * each (input, output) pair gets an int code, ``input index *
      |Sigma_out| + output index``, and :meth:`BlackWhiteLCL.allows` runs
      once per distinct sorted code multiset;
    * a label-set is a ``Sigma_out`` bitmask (bit ``j`` is
      ``sigma_out[j]``) behind a memoized frozenset → mask translation,
      so the API still takes and returns frozensets;
    * one table, ``g(colour, incoming (input, mask) multiset, out input)
      → mask``, answers :meth:`g_single_node` and :meth:`node_feasible`
      (which pulls one free edge out as the outgoing one) — the rake
      steps 2a/2b and ``is_constant_good``;
    * the same table yields the *transfer rows* of compress paths:
      ``row(colour, pendant, fixed pair, next input)`` is the mask of
      labels a path node's next edge can take, kept per node type as one
      table over the fixed edge's reachable-label masks, and
      :meth:`path_relation` composes one such table per node by bit
      propagation (the automaton view of a path), at every path length,
      1 included;
    * maximal rectangles are kept per canonical relation.

    ``memoize=False`` keeps the same interface but answers every query
    with the module-level functions — the one oracle the compiled tables
    are tested against, and the decider benchmark's baseline.  Both
    paths return identical frozensets, so the cache only changes the
    work done, never a verdict (pinned by the differential tests).
    """

    def __init__(self, problem: BlackWhiteLCL, memoize: bool = True) -> None:
        self.problem = problem
        self.memoize = memoize
        self._rectangles: Dict = {}
        #: whole-rake-closure memo, filled by the testing procedure: the
        #: closure is a pure function of (entries, delta) and identical
        #: across all DFS candidates that share a choice prefix
        self.rake: Dict = {}
        if memoize:
            self._compile()

    def _compile(self) -> None:
        outs, ins = self.problem.sigma_out, self.problem.sigma_in
        n = len(outs)
        self._n_out = n
        self._bit = {lab: j for j, lab in enumerate(outs)}
        self._base = {inp: k * n for k, inp in enumerate(ins)}
        self._pairs = [(inp, lab) for inp in ins for lab in outs]
        #: the output indices of each mask, ascending
        self._bits = [tuple(j for j in range(n) if mask >> j & 1)
                      for mask in range(1 << n)]
        self._sets = [frozenset(outs[j] for j in js) for js in self._bits]
        self._masks: Dict[LabelSet, int] = {}
        self._allowed: Dict = {}
        self._g_masks: Dict = {}
        self._rows: Dict = {}
        self._leaf: Dict = {}
        self._relations: Dict = {}

    # -- compiled tables -----------------------------------------------
    def _mask(self, labels: LabelSet) -> int:
        mask = self._masks.get(labels)
        if mask is None:
            bit = self._bit
            mask = self._masks[labels] = sum(1 << bit[lab] for lab in labels)
        return mask

    def _allows(self, color: str, codes: Tuple[int, ...]) -> bool:
        key = (color, codes)
        hit = self._allowed.get(key)
        if hit is None:
            pairs = self._pairs
            hit = self._allowed[key] = self.problem.allows(
                color, [pairs[c] for c in codes])
        return hit

    def _g_mask(self, color: str, incoming: Tuple[Tuple[int, int], ...],
                out: int) -> int:
        """``g`` as a mask: the labels the edge with input code base
        ``out`` can take while every incoming edge (a sorted tuple of
        (input code base, mask)) takes a label of its mask."""
        key = (color, incoming, out)
        hit = self._g_masks.get(key)
        if hit is None:
            hit = 0
            bits = self._bits
            pools = [[base + j for j in bits[mask]] for base, mask in incoming]
            for combo in itertools.product(*pools):
                for j in range(self._n_out):
                    if not hit >> j & 1 and self._allows(
                            color, tuple(sorted(combo + (out + j,)))):
                        hit |= 1 << j
            self._g_masks[key] = hit
        return hit

    def _incoming(self, pairs) -> List[Tuple[int, int]]:
        base = self._base
        return [(base[inp], self._mask(ls)) for inp, ls in pairs]

    def _row(self, color: str, pendant: Tuple, inp, nxt) -> Tuple[int, ...]:
        """A path node's transfer row: ``row[reach]`` is the mask of labels
        its edge with input ``nxt`` can take while its edge with input
        ``inp`` carries a label of ``reach`` and each pendant edge a label
        of its label-set."""
        key = (color, pendant, inp, nxt)
        row = self._rows.get(key)
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
            row = self._rows[key] = tuple(table)
        return row

    def _compiled_relation(self, colors, edge_inputs, pendant, out_inputs):
        m = len(colors)
        assert len(edge_inputs) == m - 1 and len(pendant) == m
        ins = (out_inputs[0], *edge_inputs, out_inputs[1])
        rows = [self._row(colors[i], pendant[i], ins[i], ins[i + 1])
                for i in range(m)]
        outs, bits = self.problem.sigma_out, self._bits
        relation = []
        for left in range(self._n_out):
            reach = 1 << left
            for row in rows:
                reach = row[reach]
            relation += [(outs[left], outs[r]) for r in bits[reach]]
        return frozenset(relation)

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

    def leaf_label_sets(self, color) -> Dict[object, LabelSet]:
        if not self.memoize:
            return leaf_label_sets(self.problem, color)
        hit = self._leaf.get(color)
        if hit is None:
            hit = self._leaf[color] = {
                inp: self.g_single_node(color, [], inp)
                for inp in self.problem.sigma_in
            }
        return hit

    def path_relation(
        self, colors, edge_inputs, pendant, out_inputs
    ) -> FrozenSet[Tuple[object, object]]:
        if not self.memoize:
            return path_relation(
                self.problem, colors, edge_inputs, pendant, out_inputs
            )
        key = (tuple(colors), tuple(edge_inputs),
               tuple(map(tuple, pendant)), tuple(out_inputs))
        hit = self._relations.get(key)
        if hit is None:
            hit = self._relations[key] = self._compiled_relation(*key)
        return hit

    def maximal_rectangles(self, relation) -> List[Tuple[LabelSet, LabelSet]]:
        if not self.memoize:
            return maximal_rectangles(relation)
        hit = self._rectangles.get(relation)
        if hit is None:
            hit = self._rectangles[relation] = maximal_rectangles(relation)
        return hit


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
