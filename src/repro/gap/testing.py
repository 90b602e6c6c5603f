"""The testing procedure (Algorithm 1, Section 11.6).

Given a black-white LCL and a candidate function ``f`` (a rectangle
choice per maximal compress class, see :mod:`repro.gap.classes`), the
procedure closes the set of *reachable label-sets* under

* **rake combination** (steps 2a/2b): any multiset of up to ``Delta``
  reachable subtrees glued below a fresh node — with an outgoing edge
  (producing a new label-set via ``g``) or without one (a feasibility
  check: an empty maximal class disqualifies ``f``);
* **compress combination** (step 2f): any path of length ``ell..2*ell``
  whose pendant edges carry reachable label-sets; its relation is mapped
  through ``f`` to an independent rectangle, producing the two endpoint
  label-sets.

``f`` is *good* if no empty label-set or empty class is ever produced;
the closure is finite (label-sets live in ``2^{Sigma_out}``), so the
procedure terminates.  Reachable entries are tagged with the colour of
the subtree root and the input on the outgoing edge.

Given the entry set, neither step's enumeration depends on ``f``: only
the compress rectangles come from the chooser.  A memoizing
:class:`~repro.gap.classes.GapCache` therefore keeps both per reachable
state: the rake closure of an entry set, and the *compress plan* of a
rake-closed one — step 2f's distinct relations in first-occurrence
order, each with its first item index, path length and endpoints.  A
plan is built once per state by walking the pendant product over shared
prefixes of the transfer rows; each candidate then replays only its
rectangle lookups.  Budget units are charged where the per-item loop of
an uncached run charges them, so every outcome is identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Set,
    Tuple,
)

from ..lcl.blackwhite import BLACK, WHITE, BlackWhiteLCL
from .classes import GapCache, LabelSet

__all__ = ["Entry", "RectangleChooser", "TestOutcome", "run_testing_procedure"]

Entry = Tuple[str, object, LabelSet]  # (root color, outgoing-edge input, label-set)

Relation = FrozenSet[Tuple[object, object]]

Endpoints = Tuple[str, object, str]  # (first colour, out input, last colour)


def _entry_key(e: Entry) -> Tuple[str, str, List[str]]:
    """Total deterministic order for entries.  Label-sets are frozensets
    (no total order, hashseed-dependent iteration), so compare their
    sorted string forms (DET004: set order must not reach results)."""
    return (str(e[0]), str(e[1]), sorted(str(x) for x in e[2]))


def _opp(color: str) -> str:
    return BLACK if color == WHITE else WHITE


class RectangleChooser:
    """A candidate ``f_{Pi,k}``: maps each maximal class (keyed by its
    relation) to an independent rectangle.  ``choices`` may be partial;
    :class:`UnseenRelation` signals the enumerating decider to branch."""

    def __init__(self, choices: Optional[Dict[Relation, Tuple[LabelSet, LabelSet]]] = None):
        self.choices: Dict[Relation, Tuple[LabelSet, LabelSet]] = dict(choices or {})

    def choose(self, relation: Relation) -> Tuple[LabelSet, LabelSet]:
        if relation not in self.choices:
            raise UnseenRelation(relation)
        return self.choices[relation]


class UnseenRelation(Exception):
    def __init__(self, relation: Relation) -> None:
        super().__init__(f"no rectangle chosen for relation {set(relation)}")
        self.relation = relation


@dataclass
class TestOutcome:
    good: bool
    reason: str
    entries: Set[Entry] = field(default_factory=set)
    relations: Set[Relation] = field(default_factory=set)
    iterations: int = 0


def run_testing_procedure(
    problem: BlackWhiteLCL,
    chooser: RectangleChooser,
    delta: int = 2,
    ell: int = 2,
    max_iterations: int = 64,
    combo_budget: int = 200_000,
    cache: Optional[GapCache] = None,
) -> TestOutcome:
    """Run Algorithm 1 until the reachable set stabilizes.

    ``delta`` bounds node degrees in the assembled trees (``delta = 2``
    is the path universe, which is where the Theorem-7 demos live);
    larger ``delta`` enumerates pendant combinations and can be costly.

    ``cache`` shares the problem's :class:`GapCache` across runs — one
    decision runs this procedure once per candidate function, and the
    ``g``/relation/feasibility queries repeat almost verbatim between
    candidates.  A memoizing cache also holds each reachable state's rake
    closure and compress plan: step 2f then replays the plan's distinct
    relations (a ``chooser.choose`` lookup each, ``UnseenRelation``
    raised at the first unseen one) instead of composing a relation per
    item; ``memoize=False`` runs the per-item loop, the oracle.  The
    budget accounting counts enumerated combinations, not computed ones —
    ``|Sigma_out|^2`` units per compress item, charged at the item where
    the per-item loop charges them — so cached and uncached runs return
    identical outcomes.
    """
    if cache is None:
        cache = GapCache(problem, memoize=False)
    entries: Set[Entry] = set()
    for color in (WHITE, BLACK):
        for inp, ls in cache.leaf_label_sets(color).items():
            if not ls:
                return TestOutcome(False, f"leaf of color {color} has empty g")
            entries.add((color, inp, ls))

    relations: Set[Relation] = set()
    budget = combo_budget
    cost = len(problem.sigma_out) ** 2  # budget units per step-2f item

    for iteration in range(1, max_iterations + 1):
        before = len(entries)

        # ---- rake closure (2a-2c) ------------------------------------
        # the closure is a pure function of (entries, delta), so the
        # cache replays it for every DFS candidate sharing this state;
        # the recorded combination count keeps budget accounting (and
        # with it every outcome) identical to an uncached run
        status = _rake_closure(cache, entries, delta, budget)
        combos = status[-1]
        if status[0] == "budget" or budget < combos:
            return TestOutcome(False, "combination budget exceeded")
        budget -= combos
        if status[0] == "fail":
            return TestOutcome(
                False, status[1], set(status[2]), relations, iteration,
            )
        entries = set(status[1])

        # ---- compress step (2f) --------------------------------------
        new_from_compress: Set[Entry] = set()
        if cache.memoize:
            # replay this state's plan: each distinct relation is checked
            # at its first item and every item is charged, so budget
            # exhaustion and every outcome match the per-item loop below
            plan = _compress_plan(cache, status[1], delta, ell, budget)
            for rel, first, length, ends in plan.steps:
                if budget < (first + 1) * cost:
                    return TestOutcome(False, "combination budget exceeded")
                relations.add(rel)
                if not rel:
                    return TestOutcome(
                        False, f"empty compress relation (length {length})",
                        entries, relations, iteration,
                    )
                s1, s2 = chooser.choose(rel)
                if not s1 or not s2:
                    return TestOutcome(
                        False, "chooser returned an empty rectangle",
                        entries, relations, iteration,
                    )
                s1, s2 = frozenset(s1), frozenset(s2)
                for first_color, out_inp, last_color in ends:
                    new_from_compress.add((first_color, out_inp, s1))
                    new_from_compress.add((last_color, out_inp, s2))
            budget -= plan.items * cost
            if not plan.complete or budget < 0:
                return TestOutcome(False, "combination budget exceeded")
        else:
            for length, colors, edge_inputs, pendants, out_inp in \
                    _compress_items(entries, problem.sigma_in, delta, ell):
                budget -= cost
                if budget < 0:
                    return TestOutcome(False, "combination budget exceeded")
                rel = cache.path_relation(
                    colors, edge_inputs, pendants, (out_inp, out_inp),
                )
                relations.add(rel)
                if not rel:
                    return TestOutcome(
                        False, f"empty compress relation (length {length})",
                        entries, relations, iteration,
                    )
                s1, s2 = chooser.choose(rel)
                if not s1 or not s2:
                    return TestOutcome(
                        False, "chooser returned an empty rectangle",
                        entries, relations, iteration,
                    )
                new_from_compress.add((colors[0], out_inp, frozenset(s1)))
                new_from_compress.add((colors[-1], out_inp, frozenset(s2)))
        entries |= new_from_compress

        if len(entries) == before:
            return TestOutcome(True, "stabilized", entries, relations, iteration)

    return TestOutcome(False, "did not stabilize", entries, relations, max_iterations)


def _rake_closure(
    cache: GapCache, entries: Set[Entry], delta: int, limit: int
):
    """The rake fixpoint (steps 2a-2c) with whole-result memoization.

    Returns ``("ok", closed-entries, combos)``, ``("fail", reason,
    entries-at-failure, combos)`` or ``("budget", combos)`` where
    ``combos`` is exactly the number of budget units an uncached
    enumeration would consume up to the same outcome — the caller
    charges them in one step, so cached and uncached runs exhaust the
    budget at identical points.  ``limit`` (the remaining budget) aborts
    the computation mid-enumeration just like the pre-cache inline loop;
    aborted closures are *not* cached — a complete result is valid for
    every budget via the ``combos`` comparison, a truncated one only for
    the budget that truncated it.
    """
    key = (frozenset(entries), delta)
    store = cache.rake if cache.memoize else None
    if store is not None:
        hit = store.get(key)
        if hit is not None:
            return hit
    result = _compute_rake_closure(cache, entries, delta, limit)
    if store is not None and result[0] != "budget":
        store[key] = result
    return result


def _compute_rake_closure(
    cache: GapCache, start: Set[Entry], delta: int, limit: int
):
    problem = cache.problem
    entries = set(start)
    combos = 0
    while True:
        added = False
        for color in (WHITE, BLACK):
            child_entries = sorted(
                (e for e in entries if e[0] == _opp(color)), key=_entry_key)
            # 2a: no outgoing edge, 1..delta children
            for x in range(1, delta + 1):
                for combo in itertools.combinations_with_replacement(
                    child_entries, x
                ):
                    combos += 1
                    if combos > limit:
                        return ("budget", combos)
                    incoming = [(e[1], e[2]) for e in combo]
                    if not cache.node_feasible(color, [], incoming):
                        return (
                            "fail",
                            f"empty maximal class at a degree-{x} {color} node",
                            frozenset(entries), combos,
                        )
            # 2b: outgoing edge, 0..delta-1 children
            for x in range(0, delta):
                for combo in itertools.combinations_with_replacement(
                    child_entries, x
                ):
                    incoming = [(e[1], e[2]) for e in combo]
                    for out_inp in problem.sigma_in:
                        combos += 1
                        if combos > limit:
                            return ("budget", combos)
                        ls = cache.g_single_node(color, incoming, out_inp)
                        if not ls:
                            return (
                                "fail",
                                f"empty label-set g at a {color} node",
                                frozenset(entries), combos,
                            )
                        entry = (color, out_inp, ls)
                        if entry not in entries:
                            entries.add(entry)
                            added = True
        if not added:
            return ("ok", frozenset(entries), combos)


def _path_colors(first_color: str, length: int) -> List[str]:
    return [first_color if i % 2 == 0 else _opp(first_color)
            for i in range(length)]


def _compress_items(
    entries: Set[Entry], sigma_in: Sequence, delta: int, ell: int,
) -> Iterator[Tuple[int, List[str], List, Tuple, object]]:
    """Step 2f's items, ``(length, colors, edge_inputs, pendants, out
    input)``, in enumeration order: path length, first colour, pendant
    combination (the product of :func:`_pendant_choices`, node 0
    outermost), edge input, out input."""
    for length in range(ell, 2 * ell + 1):
        for first_color in (WHITE, BLACK):
            colors = _path_colors(first_color, length)
            for pendants in itertools.product(
                    *_pendant_choices(entries, colors, delta)):
                for edge_inp in sigma_in:
                    edge_inputs = [edge_inp] * (length - 1)
                    for out_inp in sigma_in:
                        yield length, colors, edge_inputs, pendants, out_inp


class _CompressPlan(NamedTuple):
    """Step 2f of one rake-closed state, as the per-item enumeration
    meets it.  ``steps`` lists the distinct relations in first-occurrence
    order as ``(relation, first item index, path length, endpoints)``,
    the endpoints being the ``(first colour, out input, last colour)`` of
    every item with that relation.  ``items`` counts the items
    enumerated, and ``complete`` is false when the budget cut the
    enumeration short there."""

    steps: Tuple[Tuple[Relation, int, int, Tuple[Endpoints, ...]], ...]
    items: int
    complete: bool


def _compress_plan(
    cache: GapCache, entries: FrozenSet[Entry], delta: int, ell: int,
    budget: int,
) -> _CompressPlan:
    """Step 2f's plan for the rake-closed ``entries``, memoized like
    :func:`_rake_closure`: a complete plan serves every budget (the
    replay charges each item where the per-item loop would), a plan the
    budget cut short only the budget that cut it, so it is not cached."""
    key = (entries, delta, ell)
    plan = cache.compress.get(key)
    if plan is None:
        plan = _compute_compress_plan(cache, entries, delta, ell, budget)
        if plan.complete:
            cache.compress[key] = plan
    return plan


def _compute_compress_plan(
    cache: GapCache, entries: FrozenSet[Entry], delta: int, ell: int,
    budget: int,
) -> _CompressPlan:
    """Enumerate step 2f's items in :func:`_compress_items` order without
    building a relation per item: per path length and first colour, the
    pendant product is walked over shared prefixes of the transfer rows
    (:func:`_walk_reaches`), one reach tuple per edge-input pair, and
    each item is charged its budget units."""
    problem = cache.problem
    cost = len(problem.sigma_out) ** 2
    pairs = [(edge, out) for edge in problem.sigma_in
             for out in problem.sigma_in]
    seen: Dict[Tuple[int, ...], Dict[Endpoints, None]] = {}  # by reach
    steps: List[Tuple[Tuple[int, ...], int, int, Dict[Endpoints, None]]] = []
    items = 0

    def plan(complete: bool) -> _CompressPlan:
        return _CompressPlan(
            tuple((cache.reach_relation(reach), first, length, tuple(ends))
                  for reach, first, length, ends in steps),
            items, complete)

    for length in range(ell, 2 * ell + 1):
        for first_color in (WHITE, BLACK):
            colors = _path_colors(first_color, length)
            choices = _pendant_choices(entries, colors, delta)
            # rows[i][c][p]: node i's row under pendant choice c, pair p
            rows = [
                [tuple(cache.transfer_row(color, tuple(pendant),
                                          out if i == 0 else edge,
                                          out if i == length - 1 else edge)
                       for edge, out in pairs)
                 for pendant in choices[i]]
                for i, color in enumerate(colors)
            ]
            ends = [(colors[0], out, colors[-1]) for _, out in pairs]
            start = [cache.start_reach] * len(pairs)
            for reaches in _walk_reaches(rows, 0, start):
                for end, reach in zip(ends, reaches):
                    budget -= cost
                    if budget < 0:
                        return plan(False)
                    endpoints = seen.get(reach)
                    if endpoints is None:
                        endpoints = seen[reach] = {}
                        steps.append((reach, items, length, endpoints))
                    endpoints[end] = None
                    items += 1
    return plan(True)


def _walk_reaches(rows, i: int, reaches: List[Tuple[int, ...]]):
    """Yield, per pendant combination of nodes ``i..`` in product order,
    the reach tuples of every edge-input pair: ``reaches`` holds the
    pairs' tuples composed through nodes ``0..i-1``, so each prefix of
    the product is composed once."""
    if i == len(rows):
        yield reaches
        return
    for per_pair in rows[i]:
        yield from _walk_reaches(rows, i + 1, [
            tuple(map(row.__getitem__, reach))
            for row, reach in zip(per_pair, reaches)
        ])


def _pendant_choices(
    entries: Set[Entry], colors: Sequence[str], delta: int
) -> List[List[List[Tuple[object, LabelSet]]]]:
    """Per path node, the pendant (input, label-set) lists it may take.

    For ``delta = 2`` paths have no pendants; for larger delta each node
    independently takes up to ``delta - 2`` pendants from the reachable
    entries of the opposite colour.  To keep enumeration bounded, nodes
    take at most one pendant each here (sufficient to exercise pendant
    effects; documented approximation of the full closure).
    """
    if delta <= 2:
        return [[[]] for _ in colors]
    child = {
        c: [[(e[1], e[2])] for e in sorted(
            (e for e in entries if e[0] == c), key=_entry_key)]
        for c in (WHITE, BLACK)
    }
    return [[[]] + child[_opp(c)] for c in colors]
