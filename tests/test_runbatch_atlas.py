"""Fuzz ``LocalSimulator.run_batch`` atlas reuse against fresh runs.

``run_batch`` shares a per-topology cache across ID samples: the
frontier scheduler's flat layer cache for ``decide_batch`` algorithms,
neighbour tuples for message algorithms.  The contract is that a cached
run is indistinguishable from a fresh one — pinned here over seeded
corpora drawn from the family generators, deliberately including
disconnected graphs and single-node components (the shapes where
frontier exhaustion and ``sees_whole_component`` short-circuits are
easiest to get wrong).
"""

import random

import pytest

from repro.algorithms import CanonicalTwoColoring, ColeVishkin3Coloring
from repro.families import get_family
from repro.local import (
    CONTINUE,
    ENGINES,
    CommitSchedule,
    Graph,
    LocalAlgorithm,
    LocalSimulator,
    MessageAlgorithm,
    disjoint_union,
    path_graph,
    random_ids,
    run_message_dynamics,
)


def _corpus():
    """Seeded graphs: random forests with singleton components, spiders,
    caterpillars, plus a hand-built multi-singleton forest."""
    cases = []
    for name, n, seed in (
        ("fragmented_forest", 40, 0),
        ("fragmented_forest", 25, 7),
        ("random_forest", 30, 1),
        ("spider", 21, 2),
        ("caterpillar", 18, 3),
    ):
        for i, g in enumerate(get_family(name).instances(n, seed=seed, count=2)):
            cases.append((f"{name}-{n}-{seed}-{i}", g))
    lonely = disjoint_union(
        [Graph(1, []), path_graph(4), Graph(1, []), Graph(1, [])]
    )
    cases.append(("singletons", lonely))
    return cases


CORPUS = _corpus()


class _MinIdRank(LocalAlgorithm):
    """Commits once the whole component is visible; output = rank of own
    ID inside the component (exercises ball contents, not just sizes)."""

    name = "min-id-rank"

    def decide(self, view, n):
        if len(view.nodes()) < n and not view.sees_whole_component():
            return CONTINUE
        ids = sorted(view.id_of(u) for u in view.nodes())
        return ids.index(view.id_of(view.center))


class _FirstVisibleOutput(LocalAlgorithm):
    """Causality probe with ID-dependent commit rounds: min-ID node roots,
    everyone else commits when an output turns visible."""

    name = "first-visible-output"

    def decide(self, view, n):
        me = view.center
        if view.id_of(me) == min(view.id_of(u) for u in view.nodes()):
            if view.sees_whole_component() or len(view.nodes()) == n:
                return "root"
            return CONTINUE
        for u in view.nodes():
            if u != me and view.output_of(u) is not None:
                return view.round
        return CONTINUE


class _DegreeSum2(MessageAlgorithm):
    """Commits at round 2 with the sum of degrees at distance <= 2.  Its
    ``decide_batch`` replays one global run of the dynamics over the
    batch's shared neighbour lists (``BatchedViews.neighbor_lists``);
    with it hidden, the batched engine runs those dynamics itself."""

    name = "degree-sum-2"

    def setup(self, graph, n):
        self._schedule = None

    def decide_batch(self, views, live, t):
        if self._schedule is None:
            self._schedule = CommitSchedule(*run_message_dynamics(
                views.graph, self, list(views.ids), views.budget,
                neighbor_lists=views.neighbor_lists(),
            ))
        return self._schedule.due(t)

    def init_state(self, info, n):
        return {"deg": info.degree, "sum": info.degree, "nbrs": info.neighbors}

    def message(self, state, t):
        return state["sum"] if t == 0 else state["deg"]

    def transition(self, state, incoming, t):
        if t == 0:
            state["sum"] = state["deg"] + sum(incoming)
        return state

    def decide(self, state, t):
        return state["sum"] if t >= 2 else CONTINUE


def _id_samples(g, seed, k=3):
    rng = random.Random(seed)
    return [random_ids(g.n, rng=rng) for _ in range(k)]


# The message tests' forms: both engines on the algorithm as given, and
# "incremental", the batched engine with ``decide_batch`` hidden, so the
# global message dynamics run.  A view algorithm with ``decide_batch``
# hidden would rerun the "reference" form's loop, so the view test takes
# the engines only.
FORMS = ENGINES + ("incremental",)


def _in_form(form, factory):
    """The simulator and algorithm factory of a run form."""
    if form != "incremental":
        return LocalSimulator(engine=form), factory

    def per_node():
        algorithm = factory()
        algorithm.decide_batch = None
        return algorithm

    return LocalSimulator(engine="batched"), per_node


@pytest.mark.parametrize("name,graph", CORPUS, ids=[c[0] for c in CORPUS])
@pytest.mark.parametrize("engine", ENGINES)
def test_view_batch_equals_fresh_runs(name, graph, engine):
    samples = _id_samples(graph, seed=hashlib_seed(name))
    sim = LocalSimulator(engine=engine)
    for make in (CanonicalTwoColoring, _MinIdRank, _FirstVisibleOutput):
        batched = sim.run_batch(graph, make(), samples)
        for ids, trace in zip(samples, batched):
            fresh = sim.run(graph, make(), ids)
            assert trace.rounds == fresh.rounds, (name, engine)
            assert trace.outputs == fresh.outputs, (name, engine)


@pytest.mark.parametrize("name,graph", CORPUS, ids=[c[0] for c in CORPUS])
@pytest.mark.parametrize("form", FORMS)
def test_message_batch_equals_fresh_runs(name, graph, form):
    samples = _id_samples(graph, seed=hashlib_seed(name) + 1)
    sim, make = _in_form(form, _DegreeSum2)
    batched = sim.run_batch(graph, make(), samples)
    for ids, trace in zip(samples, batched):
        fresh = sim.run(graph, make(), ids)
        assert trace.rounds == fresh.rounds, name
        assert trace.outputs == fresh.outputs, name


@pytest.mark.parametrize("form", ("batched", "incremental"))
def test_message_batch_on_paths_matches_reference(form):
    # "batched" exercises the vectorized decide_batch of Cole-Vishkin
    # across run_batch reuse (per-execution array state must reset
    # between the ID samples); "incremental" hides it, so the batched
    # engine runs the global message dynamics over the shared neighbour
    # lists
    g = disjoint_union([path_graph(6), path_graph(3), Graph(1, [])])
    samples = _id_samples(g, seed=99)
    sim, make = _in_form(form, ColeVishkin3Coloring)
    batched = sim.run_batch(g, make(), samples)
    for ids, trace in zip(samples, batched):
        ref = LocalSimulator(engine="reference").run(g, ColeVishkin3Coloring(), ids)
        assert trace.rounds == ref.rounds
        assert trace.outputs == ref.outputs


def hashlib_seed(name: str) -> int:
    import hashlib

    return int.from_bytes(
        hashlib.blake2b(name.encode(), digest_size=4).digest(), "big"
    )
