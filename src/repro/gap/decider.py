"""Deciders for the Section-11 results.

* :func:`find_good_function` — enumerate rectangle choices (there are
  finitely many candidate functions ``f_{Pi,infinity}``) and return one
  that passes the testing procedure, or ``None``.  Existence of a good
  function characterizes ``O(log* n)`` node-averaged solvability
  [BBK+23a]; non-existence puts the problem in the polynomial regime.
* :func:`is_constant_good` — Definition 80: a good function is
  *constant-good* if its compress problem ``Pi'`` (Definition 77) is
  O(1)-solvable on paths.  We decide this with the homogeneous-label
  criterion: a single output ``l*`` that (i) lies in every reachable
  label-set (so label-set-constrained edges may carry it) and (ii) keeps
  every path node feasible when both path edges carry ``l*``, for every
  reachable pendant combination.  The criterion is sound in general and
  complete for the inputless radius-1 problems used in the Theorem-7
  demos (an O(1) algorithm on anonymous long paths is forced to be
  order-invariant, hence homogeneous far from endpoints).
* :func:`decide_node_averaged_class` — Theorem 7's decision: ``O(1)``
  iff some constant-good function exists; otherwise the problem sits at
  ``(log* n)^{Omega(1)}`` or above (good function but none constant-good),
  or outside the ``log*`` regime entirely (no good function).

Performance
-----------
The census (:mod:`repro.gap.census`) decides whole enumerated problem
spaces, so the search is engineered like the verification kernel:

* one :class:`~repro.gap.classes.GapCache` per decision compiles the
  problem into bitmask tables — ``Sigma_out`` label-sets as masks, one
  ``g`` table, and per-node transfer rows that a compress path's
  relation composes by bit propagation — and shares them, the rake
  closures and the maximal rectangles per canonical relation across
  every testing run of the DFS.  ``memoize=False`` answers each query
  with the module-level predicate functions of
  :mod:`repro.gap.classes` instead: the one oracle the tables are tested
  against, and the benchmark baseline;
* the candidate-function DFS keeps **one** live choice dict and a
  trail/undo stack instead of copying the dict per branch;
* :func:`decide_node_averaged_class` makes a **single** DFS pass with
  the kernel's early-exit discipline: it remembers the first plain-good
  function it meets and stops the moment a constant-good one appears,
  instead of running one full search per question.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..lcl.blackwhite import BLACK, WHITE, BlackWhiteLCL
from .classes import GapCache
from .testing import (
    Entry,
    RectangleChooser,
    TestOutcome,
    UnseenRelation,
    run_testing_procedure,
)

__all__ = [
    "find_good_function",
    "is_constant_good",
    "decide_node_averaged_class",
    "GapVerdict",
]

SearchResult = Optional[Tuple[RectangleChooser, TestOutcome]]


def _search_functions(
    problem: BlackWhiteLCL,
    delta: int,
    ell: int,
    max_functions: int,
    cache: GapCache,
    require_constant: bool,
) -> Tuple[SearchResult, SearchResult]:
    """Depth-first search over the finite function space.

    Functions are built lazily: whenever the testing procedure meets a
    relation with no assigned rectangle, we branch over its maximal
    rectangles.  The branch state is one shared choice dict plus a trail
    of ``(relation, remaining-rectangles)`` frames; backtracking undoes
    the top assignment in place instead of copying the dict per branch.

    Returns ``(constant_good, good)``: the first constant-good candidate
    met (``None`` unless ``require_constant``) and the first plain-good
    one.  Stops at the first good candidate when ``require_constant`` is
    false, at the first *constant*-good one otherwise.
    """
    chooser = RectangleChooser()
    choices = chooser.choices
    trail: List[Tuple[object, Iterator]] = []
    first_good: SearchResult = None
    tried = 0
    while tried < max_functions:
        tried += 1
        dead_branch = False
        try:
            outcome = run_testing_procedure(
                problem, chooser, delta, ell, cache=cache
            )
        except UnseenRelation as unseen:
            rects = cache.maximal_rectangles(unseen.relation)
            if rects:
                rest = iter(rects)
                choices[unseen.relation] = next(rest)
                trail.append((unseen.relation, rest))
                continue
            dead_branch = True  # empty class: no rectangle to try
        if not dead_branch and outcome.good:
            witness = RectangleChooser(choices)  # frozen snapshot
            if first_good is None:
                first_good = (witness, outcome)
                if not require_constant:
                    return None, first_good
            if require_constant and is_constant_good(
                problem, chooser, outcome, delta=delta, cache=cache
            ):
                return (witness, outcome), first_good
        # backtrack: advance the deepest frame with rectangles left
        while trail:
            relation, rest = trail[-1]
            nxt = next(rest, None)
            if nxt is None:
                del choices[relation]
                trail.pop()
            else:
                choices[relation] = nxt
                break
        else:
            break  # every branch explored
    return None, first_good


def find_good_function(
    problem: BlackWhiteLCL,
    delta: int = 2,
    ell: int = 2,
    max_functions: int = 4096,
    require_constant_good: bool = False,
    cache: Optional[GapCache] = None,
) -> SearchResult:
    """Search the finite function space for a good ``f_{Pi,infinity}``
    (the first constant-good one with ``require_constant_good``)."""
    if cache is None:
        cache = GapCache(problem)
    const, good = _search_functions(
        problem, delta, ell, max_functions, cache, require_constant_good
    )
    return const if require_constant_good else good


def is_constant_good(
    problem: BlackWhiteLCL,
    chooser: RectangleChooser,
    outcome: TestOutcome,
    delta: int = 2,
    cache: Optional[GapCache] = None,
) -> bool:
    """Definition 80 via the homogeneous-label criterion (see module
    docstring).

    ``delta`` bounds node degrees exactly as in the testing procedure: at
    ``delta = 2`` an interior path node already has both its edges, so no
    pendant fits (extensional ``delta = 2`` problems — the census space —
    reject every degree-3 multiset); for larger ``delta`` each node takes
    up to one reachable pendant, mirroring ``_pendant_options``.
    """
    if cache is None:
        cache = GapCache(problem, memoize=False)
    reachable_sets = [e[2] for e in outcome.entries]
    for lab in problem.sigma_out:
        if any(lab not in ls for ls in reachable_sets):
            continue
        ok = True
        for color in (WHITE, BLACK):
            for inp in problem.sigma_in:
                # interior path node with both edges labeled lab, plus any
                # reachable pendant of the opposite colour (or none) when
                # the degree bound leaves room for one
                pendant_pool: List[List[Entry]] = [[]]
                if delta > 2:
                    pendant_pool += [
                        [(e[1], e[2])]
                        for e in outcome.entries
                        if e[0] == (BLACK if color == WHITE else WHITE)
                    ]
                for pend in pendant_pool:
                    if not cache.node_feasible(
                        color, [(inp, lab), (inp, lab)], pend,
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return True
    return False


@dataclass
class GapVerdict:
    """Outcome of the Theorem-7 decision for one problem."""

    problem: str
    klass: str          # "O(1)" | "logstar-regime" | "no-good-function"
    witness: Optional[RectangleChooser]
    detail: str

    def __str__(self) -> str:
        return f"{self.problem}: {self.klass} ({self.detail})"

    def to_payload(self) -> dict:
        """The store payload of this verdict: exactly the fields the
        census atlas carries per problem — a pure function of the
        canonical encoding and the decider parameters, so the census
        checkpoint/resume protocol (:mod:`repro.gap.census`) can serve
        it back byte-identically."""
        return {"klass": self.klass, "detail": self.detail}


def decide_node_averaged_class(
    problem: BlackWhiteLCL, delta: int = 2, ell: int = 2,
    max_functions: int = 4096, memoize: bool = True,
) -> GapVerdict:
    """Theorem 7: decide whether the deterministic node-averaged
    complexity is O(1); the gap makes everything else ``(log* n)^{Omega(1)}``
    or beyond.

    One DFS pass answers both questions: the search stops as soon as a
    constant-good function appears (O(1)) and otherwise remembers the
    first plain-good one (logstar regime).  ``memoize=False`` disables
    the shared :class:`~repro.gap.classes.GapCache` — same verdict,
    every query recomputed (the benchmark baseline).
    """
    cache = GapCache(problem, memoize=memoize)
    const, good = _search_functions(
        problem, delta, ell, max_functions, cache, require_constant=True
    )
    if const is not None:
        return GapVerdict(
            problem.name, "O(1)", const[0],
            "constant-good function found; node-averaged O(1)",
        )
    if good is not None:
        return GapVerdict(
            problem.name, "logstar-regime", good[0],
            "good function exists but none constant-good: complexity is "
            "(log* n)^{Omega(1)} and O(log* n) node-averaged "
            "(Theorem 7 gap: nothing lives in omega(1)..(log* n)^{o(1)})",
        )
    return GapVerdict(
        problem.name, "no-good-function", None,
        "no good f_{Pi,infinity}: outside the log* regime (polynomial or "
        "unsolvable)",
    )
