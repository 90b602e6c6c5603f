"""Property-based tests (hypothesis) on core invariants across the stack."""

import random

from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    run_algorithm_a,
    run_fast_dfree,
    run_generic_fast_forward,
    default_gammas_25,
    default_gammas_35,
    solve_hierarchical_labeling,
)
from repro.algorithms.generic_message import GenericPhaseColoring
from repro.constructions import random_tree
from repro.lcl import (
    Coloring25,
    Coloring35,
    DFreeWeightProblem,
    HierarchicalLabeling,
    compute_levels,
)
from repro.lcl.dfree import A_INPUT, W_INPUT
from repro.local import LocalSimulator, random_ids

trees = st.builds(
    lambda n, seed: random_tree(n, 4, random.Random(seed)),
    st.integers(min_value=2, max_value=80),
    st.integers(min_value=0, max_value=10**6),
)


@settings(max_examples=25, deadline=None)
@given(trees, st.integers(min_value=1, max_value=3),
       st.sampled_from(["2.5", "3.5"]), st.integers(min_value=0, max_value=99))
def test_generic_algorithm_always_valid(g, k, variant, seed):
    """On ANY bounded-degree tree, the generic algorithm's output passes
    the Definition 8/9 checker."""
    ids = random_ids(g.n, rng=random.Random(seed))
    gammas = (
        default_gammas_25(g.n, k) if variant == "2.5" else default_gammas_35(g.n, k)
    )
    tr = run_generic_fast_forward(g, ids, k, gammas, variant)
    prob = Coloring25(k) if variant == "2.5" else Coloring35(k)
    assert prob.verify(g, tr.outputs).valid


class _MessageForm(GenericPhaseColoring):
    """The phase algorithm through its message hooks: with
    ``decide_batch`` (which replays the fast-forward) hidden, the batched
    engine runs the global message dynamics."""

    decide_batch = None


@settings(max_examples=12, deadline=None)
@given(trees, st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=99))
def test_message_equals_fast_forward_on_random_trees(g, k, seed):
    """The distributed execution and the centralized replay agree on
    arbitrary trees, not just the paper's constructions."""
    ids = random_ids(g.n, rng=random.Random(seed))
    gammas = default_gammas_25(g.n, k)
    ff = run_generic_fast_forward(g, ids, k, gammas, "2.5")
    tr = LocalSimulator().run(g, _MessageForm(k, gammas, "2.5"), ids)
    assert tr.outputs == ff.outputs
    assert tr.rounds == ff.rounds


@settings(max_examples=20, deadline=None)
@given(trees, st.integers(min_value=0, max_value=99),
       st.integers(min_value=2, max_value=3))
def test_dfree_solvers_agree_on_validity(g, seed, d):
    """Both d-free solvers produce valid solutions on random instances,
    and the fast solver never uses more Copy nodes than nodes exist."""
    rng = random.Random(seed)
    inputs = [A_INPUT if rng.random() < 0.12 else W_INPUT for _ in range(g.n)]
    inst = g.with_inputs(inputs)
    prob = DFreeWeightProblem(max(6, d + 3), d)
    a = run_algorithm_a(inst, d)
    assert prob.verify(inst, a.outputs).valid
    f = run_fast_dfree(inst, d)
    assert prob.verify(inst, f.outputs).valid
    assert f.outputs.count("Copy") <= g.n


@settings(max_examples=20, deadline=None)
@given(trees, st.integers(min_value=2, max_value=4))
def test_labeling_solver_always_valid(g, k):
    sol = solve_hierarchical_labeling(g, k)
    assert HierarchicalLabeling(k).verify(g, sol.as_outputs(g.n)).valid


@settings(max_examples=25, deadline=None)
@given(trees, st.integers(min_value=1, max_value=4))
def test_levels_cover_and_bound(g, k):
    levels = compute_levels(g, k)
    assert all(1 <= lv <= k + 1 for lv in levels)
    # level sets of index <= k are unions of paths in the peeled graph:
    # every level-i node has at most 2 same-level neighbours
    for v in g.nodes():
        if levels[v] <= k:
            same = sum(1 for w in g.neighbors(v) if levels[w] == levels[v])
            assert same <= 2
