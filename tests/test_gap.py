"""Tests for the Section-11 gap machinery: black-white formalism, classes,
testing procedure, and the Theorem-7 decider."""

import itertools
from functools import lru_cache

import pytest

from repro.gap import (
    GapCache,
    RectangleChooser,
    decide_node_averaged_class,
    find_good_function,
    g_single_node,
    is_constant_good,
    leaf_label_sets,
    maximal_rectangles,
    node_feasible,
    path_relation,
)
from repro.gap.canonical import iter_space
from repro.gap.census import _decode, spec_to_problem
from repro.gap.problems import all_equal, edge_2coloring, edge_3coloring, free_labeling
from repro.lcl import BlackWhiteLCL, two_color_tree
from repro.lcl.blackwhite import BLACK, WHITE
from repro.local import path_graph


class TestBlackWhiteChecker:
    def test_verify_free(self):
        g = path_graph(4)
        colors = two_color_tree(g)
        prob = free_labeling()
        edges = {frozenset(e): "-" for e in g.edges()}
        outs = {frozenset(e): 0 for e in g.edges()}
        assert prob.verify(g, colors, edges, outs).valid

    def test_verify_coloring(self):
        g = path_graph(4)
        colors = two_color_tree(g)
        prob = edge_3coloring()
        edges = {frozenset(e): "-" for e in g.edges()}
        good = {frozenset((i, i + 1)): (i % 3) + 1 for i in range(3)}
        assert prob.verify(g, colors, edges, good).valid
        bad = dict(good)
        bad[frozenset((1, 2))] = good[frozenset((0, 1))]
        assert not prob.verify(g, colors, edges, bad).valid

    def test_rejects_bad_2coloring(self):
        g = path_graph(3)
        prob = free_labeling()
        edges = {frozenset(e): "-" for e in g.edges()}
        outs = {frozenset(e): 0 for e in g.edges()}
        assert not prob.verify(g, ["W", "W", "B"], edges, outs).valid


class TestClasses:
    def test_leaf_label_sets(self):
        prob = edge_3coloring()
        ls = leaf_label_sets(prob, "W")["-"]
        assert ls == frozenset({1, 2, 3})

    def test_g_single_node(self):
        prob = edge_3coloring()
        # one incoming edge fixed to {1}: outgoing may be 2 or 3
        out = g_single_node(prob, "W", [("-", frozenset({1}))], "-")
        assert out == frozenset({2, 3})

    def test_node_feasible(self):
        prob = edge_2coloring()
        assert node_feasible(prob, "W", [("-", 1)], [("-", frozenset({2}))])
        assert not node_feasible(prob, "W", [("-", 1)], [("-", frozenset({1}))])

    def test_path_relation_3coloring_is_full(self):
        prob = edge_3coloring()
        rel = path_relation(
            prob, ["W", "B", "W"], ["-", "-"], [[], [], []], ("-", "-")
        )
        assert len(rel) == 9  # any endpoint combination is completable

    def test_path_relation_2coloring_is_parity(self):
        prob = edge_2coloring()
        rel = path_relation(prob, ["W", "B"], ["-"], [[], []], ("-", "-"))
        # two nodes, middle edge: out1 != mid != out2: out1, out2 free? no:
        # out1 != mid and out2 != mid with 2 colors forces out1 == out2
        assert rel == frozenset({(1, 1), (2, 2)})

    def test_maximal_rectangles(self):
        rel = frozenset({(1, 2), (2, 1)})
        rects = maximal_rectangles(rel)
        assert (frozenset({1}), frozenset({2})) in rects
        assert (frozenset({2}), frozenset({1})) in rects
        full = frozenset({(a, b) for a in (1, 2) for b in (1, 2)})
        assert maximal_rectangles(full) == [
            (frozenset({1, 2}), frozenset({1, 2}))
        ]

    def test_empty_relation_no_rects(self):
        assert maximal_rectangles(frozenset()) == []


class TestDecider:
    def test_free_labeling_is_constant(self):
        v = decide_node_averaged_class(free_labeling())
        assert v.klass == "O(1)"
        assert v.witness is not None

    def test_all_equal_is_constant(self):
        assert decide_node_averaged_class(all_equal()).klass == "O(1)"

    def test_edge_3coloring_is_logstar(self):
        v = decide_node_averaged_class(edge_3coloring())
        assert v.klass == "logstar-regime"

    def test_edge_2coloring_has_no_good_function(self):
        v = decide_node_averaged_class(edge_2coloring())
        assert v.klass == "no-good-function"
        assert find_good_function(edge_2coloring()) is None

    def test_good_function_exists_for_3coloring(self):
        got = find_good_function(edge_3coloring())
        assert got is not None
        chooser, outcome = got
        assert outcome.good
        assert not is_constant_good(edge_3coloring(), chooser, outcome)

    def test_verdict_str(self):
        v = decide_node_averaged_class(free_labeling())
        assert "O(1)" in str(v)


#: pinned Theorem-7 verdicts for the registry problems — the O(1)
#: witnesses, the logstar-regime witness and the no-good-function witness
VERDICT_SNAPSHOTS = {
    "free-labeling": (
        "O(1)", "constant-good function found; node-averaged O(1)"),
    "all-equal": (
        "O(1)", "constant-good function found; node-averaged O(1)"),
    "edge-3coloring": (
        "logstar-regime",
        "good function exists but none constant-good: complexity is "
        "(log* n)^{Omega(1)} and O(log* n) node-averaged "
        "(Theorem 7 gap: nothing lives in omega(1)..(log* n)^{o(1)})"),
    "edge-2coloring": (
        "no-good-function",
        "no good f_{Pi,infinity}: outside the log* regime (polynomial or "
        "unsolvable)"),
}

_REGISTRY = (free_labeling, all_equal, edge_3coloring, edge_2coloring)


class TestDeciderSnapshots:
    def test_registry_verdict_snapshots(self):
        for factory in _REGISTRY:
            v = decide_node_averaged_class(factory())
            klass, detail = VERDICT_SNAPSHOTS[v.problem]
            assert (v.klass, v.detail) == (klass, detail)

    def test_witness_presence_matches_klass(self):
        for factory in _REGISTRY:
            v = decide_node_averaged_class(factory())
            assert (v.witness is not None) == (v.klass != "no-good-function")


class TestDeciderMemoization:
    def test_verdicts_identical_with_and_without_cache(self):
        # the GapCache may only change the work done, never the verdict
        for factory in _REGISTRY:
            memo = decide_node_averaged_class(factory(), memoize=True)
            cold = decide_node_averaged_class(factory(), memoize=False)
            assert (memo.problem, memo.klass, memo.detail) == \
                (cold.problem, cold.klass, cold.detail)
            if memo.witness is None:
                assert cold.witness is None
            else:
                assert memo.witness.choices == cold.witness.choices

    def test_census_space_verdicts_identical(self):
        # same equivalence, witness choices included, over all of ml2/Δ2
        # and evenly spaced slices of ml3/Δ2 and ml2/Δ3; at delta 3 the
        # compiled transfer rows carry pendants
        for max_labels, delta, count in ((2, 2, None), (3, 2, 32),
                                         (2, 3, 96)):
            for enc in _space_slice(max_labels, delta, count):
                memo = decide_node_averaged_class(
                    spec_to_problem(_decode(enc)), delta=delta, memoize=True)
                cold = decide_node_averaged_class(
                    spec_to_problem(_decode(enc)), delta=delta,
                    memoize=False)
                assert (memo.klass, memo.detail) == \
                    (cold.klass, cold.detail), enc
                if memo.witness is None:
                    assert cold.witness is None
                else:
                    assert memo.witness.choices == cold.witness.choices, enc

    def test_find_good_function_accepts_shared_cache(self):
        from repro.gap import GapCache

        problem = edge_3coloring()
        cache = GapCache(problem)
        got = find_good_function(problem, cache=cache)
        again = find_good_function(problem, cache=cache)
        assert got is not None and again is not None
        assert got[0].choices == again[0].choices
        assert cache.rake  # the shared closure memo actually filled

    def test_testing_procedure_budget_respected_with_cache(self):
        # budget accounting counts enumerated combinations even when the
        # cache skips the enumeration — exhaustion must be identical
        from repro.gap import GapCache, RectangleChooser
        from repro.gap.testing import run_testing_procedure

        from repro.gap.testing import UnseenRelation

        problem = free_labeling()
        for memoize in (True, False):
            cache = GapCache(problem, memoize=memoize)
            # warm the cache (the empty chooser stops at the first
            # compress relation, after the rake closure is computed)
            with pytest.raises(UnseenRelation):
                run_testing_procedure(
                    problem, RectangleChooser({}), cache=cache)
            # rerun with a budget that cannot cover even that first rake
            # closure: cached and uncached runs must starve identically
            starved = run_testing_procedure(
                problem, RectangleChooser({}), combo_budget=3, cache=cache)
            assert starved.reason == "combination budget exceeded"
            assert not starved.good

    def test_truncated_rake_closure_not_cached(self):
        # the budget aborts the closure mid-enumeration; the partial
        # result must never enter the shared memo
        from repro.gap import GapCache, RectangleChooser
        from repro.gap.testing import run_testing_procedure

        problem = free_labeling()
        cache = GapCache(problem)
        starved = run_testing_procedure(
            problem, RectangleChooser({}), combo_budget=3, cache=cache)
        assert starved.reason == "combination budget exceeded"
        assert cache.rake == {}


@lru_cache(maxsize=None)
def _space_slice(max_labels, delta, count):
    """``count`` evenly spaced canonical problems of an enumerated space
    (all of them when ``count`` is ``None``)."""
    encodings = [enc for enc, _ in iter_space(max_labels, delta)]
    if count is None:
        return tuple(encodings)
    step = len(encodings) / count
    return tuple(encodings[int(i * step)] for i in range(count))


def _pair_sets(problem):
    """Every (input, label-set) edge of the problem, the empty label-set
    included — a superset of every reachable pendant or incoming edge."""
    outs = problem.sigma_out
    sets = [frozenset(c) for r in range(len(outs) + 1)
            for c in itertools.combinations(outs, r)]
    return [(inp, ls) for inp in problem.sigma_in for ls in sets]


def _assert_compiled_matches_oracle(problem, delta):
    """Every compiled ``GapCache`` query equals the module-level oracle.
    One cache answers all queries, so a table keyed too coarsely (a row
    without its pendant, say) serves a stale answer and fails here."""
    cache = GapCache(problem)
    edges = _pair_sets(problem)
    fixed_options = [[]] + [
        [(inp, lab)] * k
        for inp in problem.sigma_in for lab in problem.sigma_out
        for k in (1, 2)
    ]
    for color in (WHITE, BLACK):
        opp = BLACK if color == WHITE else WHITE
        assert cache.leaf_label_sets(color) == \
            leaf_label_sets(problem, color)
        for x in range(delta + 1):
            for free in itertools.combinations_with_replacement(edges, x):
                free = list(free)
                for out_inp in problem.sigma_in:
                    assert cache.g_single_node(color, free, out_inp) == \
                        g_single_node(problem, color, free, out_inp)
                for fixed in fixed_options:
                    assert cache.node_feasible(color, fixed, free) == \
                        node_feasible(problem, color, fixed, free)
        for length in range(1, 5):
            colors = [color if i % 2 == 0 else opp for i in range(length)]
            pendants = [[[] for _ in colors]]
            for i in range(length):
                for edge in edges:
                    pendant = [[] for _ in colors]
                    pendant[i] = [edge]
                    pendants.append(pendant)
            for edge_inputs in itertools.product(problem.sigma_in,
                                                 repeat=length - 1):
                for outs in itertools.product(problem.sigma_in, repeat=2):
                    for pendant in pendants:
                        args = (colors, list(edge_inputs), pendant, outs)
                        assert cache.path_relation(*args) == \
                            path_relation(problem, *args), (length, pendant)


class TestCompiledCache:
    """The compiled ``GapCache`` tables against the module-level oracle:
    ``path_relation`` at lengths 1-4 with no pendant and with each single
    pendant, and ``node_feasible`` / ``g_single_node`` with 0..delta
    incoming label-sets, the empty one included."""

    @pytest.mark.parametrize("factory", _REGISTRY)
    @pytest.mark.parametrize("delta", [2, 3])
    def test_registry_problems(self, factory, delta):
        _assert_compiled_matches_oracle(factory(), delta)

    @pytest.mark.parametrize("max_labels,delta,count", [
        (2, 2, None), (3, 2, 24), (2, 3, 48),
    ])
    def test_census_spaces(self, max_labels, delta, count):
        for enc in _space_slice(max_labels, delta, count):
            _assert_compiled_matches_oracle(
                spec_to_problem(_decode(enc)), delta)

    def test_one_allows_call_per_code_multiset(self):
        problem = edge_3coloring()
        seen = []
        allows = problem.allows

        def counted(color, pairs):
            seen.append((color, tuple(sorted(pairs))))
            return allows(color, pairs)

        problem.allows = counted
        decide_node_averaged_class(problem, delta=3)
        assert seen and len(seen) == len(set(seen))
