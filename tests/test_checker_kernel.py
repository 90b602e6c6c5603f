"""Compiled checker kernel vs. per-node reference oracle.

The kernel contract (ISSUE 3): for every ported problem, ``verify`` via
:mod:`repro.lcl.kernel` and the legacy ``verify_reference`` path must
return identical verdicts and identical violation ``(node, rule)`` sets —
on random labelings, on valid solver outputs, and on valid outputs with
injected single-node corruptions.  ``early_exit`` stops at the first
violation; ``verify_batch`` amortizes the per-graph compile and must
agree with per-call ``verify``.
"""

import random

import pytest

from repro.families import get_family
from repro.lcl import (
    Coloring25,
    Coloring35,
    DFreeWeightProblem,
    HierarchicalLabeling,
    LCLProblem,
    ProperColoring,
    Violation,
    Weighted25,
    Weighted35,
    WeightAugmented25,
    compile_checker,
    valid_coloring25,
)
from repro.lcl.blackwhite import BlackWhiteLCL, two_color_tree
from repro.lcl.dfree import A_INPUT, W_INPUT
from repro.lcl.weighted import ACTIVE, WEIGHT, connect, copy_of, decline
from repro.local import Graph, path_graph


def assert_equivalent(problem, graph, outputs, tag=""):
    """Kernel and reference agree on verdict and (node, rule) sets; the
    early-exit scan agrees on the verdict with at most one violation."""
    ref = problem.verify_reference(graph, outputs)
    ker = problem.compiled().verify(graph, outputs)
    assert ref.valid == ker.valid, (tag, ref.violations[:3], ker.violations[:3])
    ref_set = {(v.node, v.rule) for v in ref.violations}
    ker_set = {(v.node, v.rule) for v in ker.violations}
    assert ref_set == ker_set, (tag, sorted(ref_set ^ ker_set)[:10])
    fast = problem.compiled().verify(graph, outputs, early_exit=True)
    assert fast.valid == ref.valid
    assert len(fast.violations) <= 1
    return ref


FAMILIES = ("random_tree", "caterpillar", "grid", "spider",
            "random_regular_d3", "hypercube", "fragmented_forest")


class TestRandomLabelingEquivalence:
    """Random (overwhelmingly invalid) labelings across graph families."""

    @pytest.mark.parametrize("seed", range(6))
    def test_all_problems(self, seed):
        rng = random.Random(seed)
        for trial in range(12):
            g = get_family(rng.choice(FAMILIES)).instance(
                rng.randint(1, 36), rng.randint(0, 5))
            n = g.n
            k = rng.randint(1, 3)
            for prob in (Coloring25(k), Coloring35(k)):
                outs = [rng.choice(list(prob.sigma_out) + ["Q"])
                        for _ in range(n)]
                assert_equivalent(prob, g, outs, ("hier", k, seed, trial))
            prob = ProperColoring(3)
            outs = [rng.choice([0, 1, 2, 7]) for _ in range(n)]
            assert_equivalent(prob, g, outs, ("proper", seed, trial))
            gi = g.with_inputs(
                [rng.choice([A_INPUT, W_INPUT]) for _ in range(n)])
            outs = [rng.choice(["Decline", "Connect", "Copy", "x"])
                    for _ in range(n)]
            assert_equivalent(
                DFreeWeightProblem(5, 2), gi, outs, ("dfree", seed, trial))
            gw = g.with_inputs(
                [rng.choice([ACTIVE, WEIGHT]) for _ in range(n)])
            for prob in (Weighted25(5, 2, k), Weighted35(5, 2, k)):
                pool = (list(prob.base.sigma_out)
                        + [decline(), connect(), ("Copy",), "zz"]
                        + [copy_of(s) for s in prob.base.sigma_out])
                outs = [rng.choice(pool) for _ in range(n)]
                assert_equivalent(prob, gw, outs, ("weighted", seed, trial))
            prob = HierarchicalLabeling(k)
            outs = [
                (rng.choice(list(prob.sigma_out)),
                 rng.choice([None, None] + list(range(-1, n + 1))))
                for _ in range(n)
            ]
            assert_equivalent(prob, g, outs, ("labeling", seed, trial))
            prob = WeightAugmented25(k)
            outs = [
                rng.choice(list(prob.base.sigma_out) + ["?"])
                if gw.input_of(v) == ACTIVE else
                (rng.choice(list(prob.labeling.sigma_out)),
                 rng.choice([None] + list(range(n))),
                 rng.choice(list(prob.base.sigma_out) + ["Decline"]))
                for v in range(n)
            ]
            assert_equivalent(prob, gw, outs, ("wa25", seed, trial))


class TestValidSolutionsAndCorruptions:
    """Solver outputs verify valid on both paths; every single-node
    corruption yields identical verdicts and violation node-sets."""

    def corruption_sweep(self, problem, graph, outputs, mutants, rng,
                         nodes=None):
        assert problem.verify_reference(graph, outputs).valid
        assert problem.compiled().verify(graph, outputs).valid
        pool = list(nodes if nodes is not None else range(graph.n))
        for v in rng.sample(pool, min(12, len(pool))):
            for mutant in mutants:
                if mutant == outputs[v]:
                    continue
                bad = list(outputs)
                bad[v] = mutant
                assert_equivalent(problem, graph, bad, ("corrupt", v))

    def test_coloring25(self):
        rng = random.Random(0)
        g = get_family("random_tree").instance(120, 3)
        prob = Coloring25(2)
        out = valid_coloring25(g, 2)
        self.corruption_sweep(prob, g, out, ["W", "B", "E", "D"], rng)

    def test_coloring25_grid(self):
        rng = random.Random(1)
        g = get_family("grid").instance(150, 0)
        prob = Coloring25(2)
        out = valid_coloring25(g, 2)
        self.corruption_sweep(prob, g, out, ["W", "B", "E", "D", "R"], rng)

    def test_dfree(self):
        rng = random.Random(2)
        g = get_family("bounded_tree_d3").instance(120, 0).with_inputs(
            [W_INPUT] * 120)
        prob = DFreeWeightProblem(5, 2)
        out = ["Copy"] * 120
        self.corruption_sweep(
            prob, g, out, ["Decline", "Connect", "Copy"], rng)

    def test_weighted25(self):
        from repro.algorithms import run_apoly
        from repro.constructions import build_weighted_construction
        from repro.constructions.lowerbound import paper_lengths
        from repro.local import random_ids

        rng = random.Random(3)
        delta, d, k = 5, 2, 2
        wi = build_weighted_construction(paper_lengths(300, [0.4]), delta, 200)
        ids = random_ids(wi.graph.n, rng=random.Random(7))
        tr = run_apoly(wi.graph, ids, delta, d, k)
        prob = Weighted25(delta, d, k)
        mutants = [decline(), connect(), copy_of("W"), copy_of("E"), "W"]
        self.corruption_sweep(prob, wi.graph, tr.outputs, mutants, rng)

    def test_hierarchical_labeling(self):
        from repro.algorithms import solve_hierarchical_labeling

        rng = random.Random(4)
        g = get_family("bounded_tree_d3").instance(140, 2)
        sol = solve_hierarchical_labeling(g, 3)
        out = sol.as_outputs(g.n)
        prob = HierarchicalLabeling(3)
        mutants = [("R1", None), ("R2", 0), ("C1", None), ("C2", 1)]
        self.corruption_sweep(prob, g, out, mutants, rng)

    def test_proper_coloring(self):
        rng = random.Random(5)
        g = path_graph(90)
        prob = ProperColoring(2)
        out = [v % 2 for v in range(90)]
        self.corruption_sweep(prob, g, out, [0, 1, 2], rng)


class TestEarlyExit:
    def test_first_violation_only(self):
        g = path_graph(50)
        prob = ProperColoring(2)
        bad = [0] * 50  # every edge monochromatic: O(n) violations
        full = prob.verify(g, bad)
        fast = prob.verify(g, bad, early_exit=True)
        assert not full.valid and not fast.valid
        assert len(full.violations) > 10
        assert len(fast.violations) == 1

    def test_valid_labeling_unaffected(self):
        g = path_graph(20)
        prob = ProperColoring(2)
        good = [v % 2 for v in range(20)]
        assert prob.verify(g, good, early_exit=True).valid

    def test_alphabet_early_exit(self):
        g = path_graph(10)
        prob = Coloring25(2)
        res = prob.verify(g, ["?"] * 10, early_exit=True)
        assert not res.valid
        assert len(res.violations) == 1
        assert res.violations[0].rule == "alphabet"

    def test_reference_fallback_truncates(self):
        class Odd(LCLProblem):
            sigma_out = frozenset({0, 1})

            def check_node(self, graph, outputs, v):
                return [Violation(v, "odd")] if outputs[v] else []

        g = path_graph(6)
        prob = Odd()
        assert prob.compiled() is None
        res = prob.verify(g, [1] * 6, early_exit=True)
        assert not res.valid and len(res.violations) == 1


class TestProperColoringKernel:
    """The proper-colouring kernel is one gather-compare over CSR slots:
    its violations come out in slot order, exactly as the reference
    walks them."""

    @staticmethod
    def _several_conflicts():
        # node 0's slots are [3, 2, 1] (edge-insertion order), so its
        # lowest-slot conflict is (0,2), not the lower-numbered (0,1)
        g = Graph(6, [(0, 3), (0, 2), (0, 1), (4, 5), (2, 4)])
        return g, [0, 0, 0, 1, 2, 2]

    def test_early_exit_returns_lowest_csr_slot(self):
        g, colors = self._several_conflicts()
        prob = ProperColoring(3)
        fast = prob.verify(g, colors, early_exit=True)
        assert [(v.node, v.rule, v.detail) for v in fast.violations] == [
            (0, "proper: adjacent equal colors", "(0,2)")
        ]

    def test_full_list_equals_reference(self):
        g, colors = self._several_conflicts()
        prob = ProperColoring(3)
        ker = prob.verify(g, colors).violations
        ref = prob.verify_reference(g, colors).violations
        assert ker == ref
        assert len(ker) == 6

    @pytest.mark.parametrize("seed", range(4))
    def test_random_labelings_equal_reference_in_order(self, seed):
        rng = random.Random(seed)
        for family in FAMILIES:
            g = get_family(family).instance(120, seed)
            for colors in (2, 3, 300):
                prob = ProperColoring(colors)
                outs = [rng.randrange(min(colors, 3)) for _ in range(g.n)]
                assert prob.verify(g, outs).violations == \
                    prob.verify_reference(g, outs).violations

    def test_edgeless_graph_verifies(self):
        prob = ProperColoring(2)
        for n in (1, 4):
            assert prob.verify(Graph(n, []), [0] * n).valid
            assert prob.verify(Graph(n, []), [0] * n, early_exit=True).valid

    def test_shared_memory_attach(self):
        from repro.shm import (SharedGraphPool, shared_graph,
                               worker_attach_specs, worker_detach)

        g = get_family("random_tree").instance(400, 5)
        rng = random.Random(5)
        outs = [rng.randrange(3) for _ in range(g.n)]
        prob = ProperColoring(3)
        with SharedGraphPool() as pool:
            pool.publish("proper-kernel", g)
            worker_attach_specs(pool.specs())
            try:
                attached = shared_graph("proper-kernel")
                assert prob.compiled().verify(attached, outs).violations == \
                    prob.verify_reference(g, outs).violations
            finally:
                worker_detach()

    def test_alphabet_violations_suppress_the_compare(self):
        prob = ProperColoring(2)
        res = prob.verify(path_graph(3), [0, 5, 0])
        assert [(v.node, v.rule) for v in res.violations] == [(1, "alphabet")]


class TestVerifyBatch:
    def test_matches_per_call_verify(self):
        rng = random.Random(9)
        g = get_family("random_tree").instance(60, 1)
        prob = Coloring25(2)
        batch = [
            [rng.choice(["W", "B", "E", "D"]) for _ in range(60)]
            for _ in range(8)
        ]
        batch.append(valid_coloring25(g, 2))
        singles = [prob.verify(g, outs) for outs in batch]
        batched = prob.verify_batch(g, batch)
        assert [r.valid for r in singles] == [r.valid for r in batched]
        for a, b in zip(singles, batched):
            assert {(v.node, v.rule) for v in a.violations} == \
                {(v.node, v.rule) for v in b.violations}

    def test_compile_cache_reused_across_batch(self):
        g = get_family("random_tree").instance(40, 0)
        prob = Coloring25(2)
        checker = prob.compiled()
        checker.verify(g, valid_coloring25(g, 2))
        cached = checker._cache
        assert cached[0] is g
        checker.verify_batch(g, [valid_coloring25(g, 2)] * 3)
        assert checker._cache[1] is cached[1]

    def test_length_mismatch_rejected(self):
        g = path_graph(5)
        prob = ProperColoring(2)
        with pytest.raises(ValueError):
            prob.verify(g, [0, 1])
        with pytest.raises(ValueError):
            prob.verify_batch(g, [[0, 1, 0, 1, 0], [0, 1]])


class TestBlackWhiteKernel:
    def edge_labels(self, graph, rng, labels):
        return {frozenset(e): rng.choice(labels) for e in graph.edges()}

    @pytest.mark.parametrize("seed", range(4))
    def test_differential(self, seed):
        from repro.gap import all_equal, edge_2coloring, edge_3coloring

        rng = random.Random(seed)
        for problem in (all_equal(), edge_2coloring(), edge_3coloring()):
            for _ in range(8):
                g = get_family("random_tree").instance(rng.randint(2, 24),
                                                       rng.randint(0, 3))
                colors = two_color_tree(g)
                inputs = {frozenset(e): "-" for e in g.edges()}
                outs = self.edge_labels(
                    g, rng, list(problem.sigma_out) + ["bad"])
                ref = problem.verify_reference(g, colors, inputs, outs)
                ker = problem.verify(g, colors, inputs, outs)
                assert ref.valid == ker.valid
                assert {(v.node, v.rule) for v in ref.violations} == \
                    {(v.node, v.rule) for v in ker.violations}
                fast = problem.compiled().verify(
                    g, outs, colors=colors, edge_inputs=inputs,
                    early_exit=True)
                assert fast.valid == ref.valid
                assert len(fast.violations) <= 1

    def test_improper_coloring_rejected(self):
        from repro.gap import edge_3coloring

        g = path_graph(3)
        problem = edge_3coloring()
        outs = {frozenset((0, 1)): 1, frozenset((1, 2)): 2}
        inputs = {e: "-" for e in outs}
        res = problem.verify(g, ["W", "W", "B"], inputs, outs)
        assert not res.valid
        assert res.violations[0].rule == "not properly 2-colored"

    def test_default_colors_and_singleton_inputs(self):
        from repro.gap import edge_3coloring

        g = path_graph(4)
        problem = edge_3coloring()
        outs = {frozenset((i, i + 1)): 1 + i % 2 for i in range(3)}
        assert problem.compiled().verify(g, outs).valid
        results = problem.compiled().verify_batch(g, [outs, outs])
        assert all(r.valid for r in results)

    def test_batch_matches_reference(self):
        from repro.gap import all_equal

        rng = random.Random(11)
        g = get_family("random_tree").instance(18, 5)
        problem = all_equal()
        colors = two_color_tree(g)
        inputs = {frozenset(e): "-" for e in g.edges()}
        batch = [self.edge_labels(g, rng, [0, 1]) for _ in range(6)]
        refs = [problem.verify_reference(g, colors, inputs, o) for o in batch]
        kers = problem.compiled().verify_batch(
            g, batch, colors=colors, edge_inputs=inputs)
        assert [r.valid for r in refs] == [r.valid for r in kers]


class _ReprCollider:
    """Unequal labels whose reprs collide — the trap for sorted(key=repr)."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return "collider"

    def __eq__(self, other):
        return isinstance(other, _ReprCollider) and self.tag == other.tag

    def __hash__(self):
        return hash(("collider", self.tag))


class TestAllowsCanonicalization:
    """ISSUE 3 satellite: multiset canonicalization must be stable under
    permutation even when repr order disagrees with equality."""

    def make_problem(self):
        a, b = _ReprCollider("a"), _ReprCollider("b")
        target = None

        def white(pairs):
            # order-sensitive on purpose: equality against one specific
            # tuple; consistent canonicalization makes it permutation-safe
            return pairs == white.target

        problem = BlackWhiteLCL("collider", ("-",), (a, b), white,
                               lambda pairs: True)
        return problem, a, b, white

    def test_permutations_canonicalize_identically(self):
        problem, a, b, white = self.make_problem()
        p1, p2 = ("-", a), ("-", b)
        white.target = problem.canonical_pairs([p1, p2])
        assert problem.canonical_pairs([p1, p2]) == \
            problem.canonical_pairs([p2, p1])
        assert problem.allows("W", [p1, p2])
        assert problem.allows("W", [p2, p1])

    def test_equal_multisets_intern_to_same_key(self):
        problem, a, b, _ = self.make_problem()
        key1 = problem._canonical_indices([("-", a), ("-", b), ("-", a)])
        key2 = problem._canonical_indices([("-", b), ("-", a), ("-", a)])
        assert key1 == key2
        # distinct multisets stay distinct despite identical reprs
        assert problem._canonical_indices([("-", a), ("-", a)]) != \
            problem._canonical_indices([("-", a), ("-", b)])

    def test_memo_does_not_cross_colors(self):
        problem = BlackWhiteLCL(
            "asym", ("-",), (0, 1),
            lambda pairs: True, lambda pairs: False,
        )
        pairs = [("-", 0)]
        assert problem.allows("W", pairs)
        assert not problem.allows("B", pairs)
        # and again, now through the memo
        assert problem.allows("W", pairs)
        assert not problem.allows("B", pairs)


class TestDispatchAndProtocol:
    def test_known_types_compile(self):
        for prob in (Coloring25(2), Coloring35(1), DFreeWeightProblem(4, 1),
                     Weighted25(5, 2, 2), Weighted35(5, 2, 1),
                     HierarchicalLabeling(2), WeightAugmented25(2),
                     ProperColoring(4)):
            checker = compile_checker(prob)
            assert checker is not None
            assert prob.compiled() is prob.compiled()  # cached

    def test_unknown_subclass_falls_back_to_reference(self):
        class Custom(Coloring25):
            """Overrides semantics the kernel cannot see."""

            def check_node(self, graph, outputs, v):
                return [Violation(v, "always")]

        prob = Custom(2)
        assert compile_checker(prob) is None
        g = path_graph(3)
        res = prob.verify(g, ["D", "D", "D"])
        assert not res.valid
        assert all(v.rule == "always" for v in res.violations)

    def test_wide_palette_fallback(self):
        g = path_graph(6)
        prob = ProperColoring(1000)
        good = [500 + (v % 2) for v in range(6)]
        assert prob.verify(g, good).valid
        bad = [500] * 6
        assert_equivalent(prob, g, bad, "wide")
