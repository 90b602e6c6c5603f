"""Tests for the Section-11 gap machinery: black-white formalism, classes,
testing procedure, and the Theorem-7 decider."""

import itertools
from functools import lru_cache

import pytest

import repro.gap.classes as classes

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
from repro.gap.canonical import ProblemSpec, get_context, iter_space
from repro.gap.census import _decode, spec_to_problem
from repro.gap.classes import clear_registry
from repro.gap.testing import UnseenRelation, run_testing_procedure
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
        # and evenly spaced slices of ml3/Δ2 and ml2/Δ3 (at delta 3 the
        # compiled transfer rows carry pendants), with the shared
        # registry cold for every problem, warmed by the problems before
        # it, warmed by the problems after it, and warmed by the whole
        # slice: a table filled by one problem must serve every other
        for max_labels, delta, count in ((2, 2, None), (3, 2, 32),
                                         (2, 3, 96)):
            encodings = _space_slice(max_labels, delta, count)
            want = {enc: _verdict(enc, delta, memoize=False)
                    for enc in encodings}
            for enc in encodings:
                clear_registry()
                assert _verdict(enc, delta) == want[enc], enc
            for order in (encodings, encodings[::-1]):
                clear_registry()
                for enc in order:
                    assert _verdict(enc, delta) == want[enc], enc
            for enc in encodings:  # warmed by the whole slice
                assert _verdict(enc, delta) == want[enc], enc

    def test_evicting_registry_keeps_verdicts(self, monkeypatch):
        # a registry held to a few entries drops its oldest ones while
        # live caches still read them; verdicts must not change
        monkeypatch.setattr(classes, "REGISTRY_LIMIT", 5)
        clear_registry()
        for enc in _space_slice(3, 2, 32):
            assert _verdict(enc, 2) == _verdict(enc, 2, memoize=False), enc
            assert len(classes._REGISTRY) <= 5

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


def _verdict(enc, delta, memoize=True):
    """What the census keeps of one decision, witness choices included."""
    v = decide_node_averaged_class(
        spec_to_problem(_decode(enc)), delta=delta, memoize=memoize)
    return v.klass, v.detail, v.witness and v.witness.choices


def _masked_problem(n_out, delta, white, black):
    """The census problem over one input label and ``n_out`` outputs whose
    constraints are the masks ``white`` and ``black`` at ``delta``."""
    enc = get_context(1, n_out, delta).encoding_from_masks(white, black)
    return spec_to_problem(_decode(enc))


class TestSharedRegistry:
    """Census problems share compiled tables through one process-wide
    registry, keyed by alphabets, delta and the allowed-multiset mask."""

    def test_equal_masks_share_tables_only_on_one_alphabet_and_delta(self):
        clear_registry()
        base = GapCache(_masked_problem(2, 2, 0b10110, 0b01011))
        same = GapCache(_masked_problem(2, 2, 0b10110, 0b10110))
        assert same._tables[WHITE] is base._tables[WHITE]
        assert same._tables[BLACK] is base._tables[WHITE]
        assert base._tables[BLACK] is not base._tables[WHITE]
        assert classes._REGISTRY[(0,), (0, 1), 2, 0b10110] is \
            base._tables[WHITE]
        for n_out, delta in ((3, 2), (2, 3)):
            other = GapCache(_masked_problem(n_out, delta, 0b10110, 0b01011))
            assert classes._REGISTRY[
                (0,), tuple(range(n_out)), delta, 0b10110] is \
                other._tables[WHITE]
            for color in (WHITE, BLACK):
                assert other._tables[color] is not base._tables[color]
            # alphabet tables follow the alphabets alone
            assert (other._bits is base._bits) == (n_out == 2)

    def test_registry_problems_never_touch_the_registry(self):
        clear_registry()
        for factory in _REGISTRY:
            assert factory().constraint_masks is None
            for delta in (2, 3):
                decide_node_averaged_class(factory(), delta=delta)
        assert find_good_function(edge_3coloring()) is not None
        assert classes._REGISTRY == {}

    def test_a_spec_outside_its_universe_gets_no_masks(self):
        spec = _decode(_space_slice(2, 2, None)[7])
        assert spec_to_problem(spec).constraint_masks is not None
        wide = ProblemSpec(spec.n_in, spec.n_out, spec.delta,
                           spec.white | {((0, 0),) * 3}, spec.black)
        assert spec_to_problem(wide).constraint_masks is None

    def test_shared_values_are_read_only(self):
        clear_registry()
        for problem in (edge_3coloring(), _masked_problem(2, 2, 22, 11)):
            cache = GapCache(problem)
            leaves = cache.leaf_label_sets(WHITE)
            with pytest.raises(TypeError):
                leaves[problem.sigma_in[0]] = frozenset()
            rel = frozenset({(a, b) for a in problem.sigma_out
                             for b in problem.sigma_out})
            rects = cache.maximal_rectangles(rel)
            assert rects == tuple(maximal_rectangles(rel))
            with pytest.raises(TypeError):
                rects[0] = (frozenset(), frozenset())
            with pytest.raises(AttributeError):
                rects.append((frozenset(), frozenset()))


class _OracleCache(GapCache):
    """``memoize=False`` — the per-item compress loop, every budget check
    and chooser call included — with the oracle's path relations kept
    per path, so sweeping every budget stays affordable."""

    def __init__(self, problem):
        super().__init__(problem, memoize=False)
        self._paths = {}

    def path_relation(self, colors, edge_inputs, pendant, out_inputs):
        key = (tuple(colors), tuple(edge_inputs), tuple(map(tuple, pendant)),
               tuple(out_inputs))
        hit = self._paths.get(key)
        if hit is None:
            hit = self._paths[key] = super().path_relation(
                colors, edge_inputs, pendant, out_inputs)
        return hit


def _outcome(problem, chooser, delta, budget, cache):
    """What the decider sees of one testing run."""
    try:
        out = run_testing_procedure(problem, chooser, delta=delta,
                                    combo_budget=budget, cache=cache)
    except UnseenRelation as unseen:
        return ("unseen", unseen.relation)
    return (out.good, out.reason, out.entries, out.relations, out.iterations)


def _choosers(problem, delta):
    """An empty chooser, a full one (the first maximal rectangle of every
    relation a run meets, added until no run raises) and the full one
    less its last choice, which raises late in the run."""
    full, added = RectangleChooser(), []
    while True:
        try:
            run_testing_procedure(problem, full, delta=delta)
            break
        except UnseenRelation as unseen:
            full.choices[unseen.relation] = \
                maximal_rectangles(unseen.relation)[0]
            added.append(unseen.relation)
    partial = RectangleChooser(full.choices)
    if added:
        del partial.choices[added[-1]]
    return [RectangleChooser(), partial, full]


def _x_agree_y_proper():
    """Two inputs, so step 2f's items differ by edge-input pair: a white
    node's ``x`` edges agree and its ``y`` edges differ, a black node's
    ``x`` edges avoid label 2.  The testing run closes in two
    iterations."""
    def white(pairs):
        ys = [o for i, o in pairs if i == "y"]
        return (len({o for i, o in pairs if i == "x"}) <= 1
                and len(ys) == len(set(ys)))

    def black(pairs):
        return all(o != 2 for i, o in pairs if i == "x")

    return BlackWhiteLCL("x-agree-y-proper", ("x", "y"), (0, 1, 2),
                         white, black)


def _proper_x_not_2():
    """Two inputs: proper at both colours, and a black node's ``x`` edges
    avoid label 2.  Compress entries make the second rake closure fail."""
    def white(pairs):
        outs = [o for _, o in pairs]
        return len(outs) == len(set(outs))

    def black(pairs):
        return white(pairs) and all(o != 2 for i, o in pairs if i == "x")

    return BlackWhiteLCL("proper-x-not-2", ("x", "y"), (0, 1, 2),
                         white, black)


def _plan_problems():
    """The registry problems at delta 2 and 3, two two-input problems at
    delta 2 (at delta 3 their full runs cost tens of thousands of budget
    units), and three of the first O(1) problems of ml2/delta3, whose
    compress paths carry pendants (one input; two inputs, closing in two
    iterations and in one)."""
    ids, problems = [], []
    for factory in _REGISTRY:
        for delta in (2, 3):
            ids.append(f"{factory.__name__}-d{delta}")
            problems.append((factory, delta))
    for factory in (_x_agree_y_proper, _proper_x_not_2):
        ids.append(f"{factory.__name__[1:]}-d2")
        problems.append((factory, 2))
    for index in (21, 1329, 1332):
        ids.append(f"ml2d3-{index}")
        problems.append((index, 3))
    return pytest.mark.parametrize("source,delta", problems, ids=ids)


def _plan_problem(source):
    if callable(source):
        return source()
    return spec_to_problem(_decode(_space_slice(2, 3, None)[source]))


class TestCompressPlan:
    """The memoized compress plan against the per-item loop."""

    @_plan_problems()
    def test_every_budget_matches_per_item_loop(self, source, delta):
        # budgets 0 .. the full run's consumption, so the budget runs out
        # in every rake closure and at every item of step 2f; one memo is
        # shared by the whole ascending sweep (plans cut short are built
        # again at the next budget), one holds the full run's plans
        problem = _plan_problem(source)
        choosers = _choosers(problem, delta)
        oracle, shared, warm = \
            _OracleCache(problem), GapCache(problem), GapCache(problem)
        _outcome(problem, choosers[-1], delta, 200_000, warm)
        budget = 0
        while True:
            for chooser in choosers:
                want = _outcome(problem, chooser, delta, budget, oracle)
                assert _outcome(problem, chooser, delta, budget,
                                shared) == want, budget
                assert _outcome(problem, chooser, delta, budget,
                                warm) == want, budget
            if want[1] != "combination budget exceeded":
                break
            budget += 1
        # the full run met compress relations, so the sweep ran out of
        # budget inside step 2f; only edge-2coloring at delta 3 fails in
        # its first rake closure
        assert want[3] or (problem.name, delta) == ("edge-2coloring", 3)

    @_plan_problems()
    def test_empty_rectangle_matches_per_item_loop(self, source, delta):
        problem = _plan_problem(source)
        full = _choosers(problem, delta)[-1]
        cache = GapCache(problem)
        for relation, (s1, s2) in full.choices.items():
            for empty in ((frozenset(), s2), (s1, frozenset())):
                chooser = RectangleChooser({**full.choices, relation: empty})
                want = _outcome(problem, chooser, delta, 200_000,
                                _OracleCache(problem))
                assert want[1] == "chooser returned an empty rectangle"
                assert _outcome(problem, chooser, delta, 200_000,
                                cache) == want

    def test_truncated_compress_plan_not_cached(self):
        # a budget that pays for the first rake closure and one compress
        # item: the plan cut short there must never enter the shared memo
        problem = free_labeling()
        chooser = _choosers(problem, 2)[-1]
        warm = GapCache(problem)
        run_testing_procedure(problem, chooser, cache=warm)
        (closure,) = warm.rake.values()
        budget = closure[-1] + len(problem.sigma_out) ** 2
        cache = GapCache(problem)
        starved = run_testing_procedure(
            problem, chooser, combo_budget=budget, cache=cache)
        assert starved.reason == "combination budget exceeded"
        assert cache.rake and cache.compress == {}
        assert run_testing_procedure(problem, chooser, cache=cache).good
        assert list(cache.compress) == list(warm.compress)


@lru_cache(maxsize=None)
def _space_slice(max_labels, delta, count):
    """``count`` evenly spaced canonical problems of an enumerated space
    (all of them when ``count`` is ``None``)."""
    if count is None:
        return tuple(enc for enc, _ in iter_space(max_labels, delta))
    encodings = _space_slice(max_labels, delta, None)
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
        clear_registry()
        problem = edge_3coloring()
        seen = _count_allows(problem)
        decide_node_averaged_class(problem, delta=3)
        assert seen and len(seen) == len(set(seen))

    def test_one_allows_call_per_constraint_per_process(self):
        # a census problem's constraint tables outlive it: the same
        # problem rebuilt asks its predicates nothing
        clear_registry()
        enc = _space_slice(2, 3, 96)[40]
        first = spec_to_problem(_decode(enc))
        seen = _count_allows(first)
        decide_node_averaged_class(first, delta=3)
        assert seen and len(seen) == len(set(seen))
        again = spec_to_problem(_decode(enc))
        assert again is not first
        seen = _count_allows(again)
        decide_node_averaged_class(again, delta=3)
        assert seen == []


def _count_allows(problem):
    """Record each ``problem.allows`` call as (colour, sorted pairs)."""
    seen = []
    allows = problem.allows

    def counted(color, pairs):
        seen.append((color, tuple(sorted(pairs))))
        return allows(color, pairs)

    problem.allows = counted
    return seen
