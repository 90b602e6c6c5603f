"""Batched engine speedup — ``decide_batch`` vs. the global message dynamics.

Micro-benchmark for the batched :mod:`repro.local.simulator` engine: run
Cole–Vishkin 3-coloring on ``cycle_graph(100_000)`` and
``path_graph(100_000)`` (the max-degree-2 tree) through its vectorized
``decide_batch`` port (sweeping flat numpy label arrays) and, with
``decide_batch`` hidden, through the shared global message dynamics (one
Python ``message``/``transition`` call per node per round).  The two must
produce identical ``(T_v, output)`` maps — asserted here and pinned
corpus-wide by ``tests/test_engine_equivalence.py`` — and
``decide_batch`` must be at least 5x faster on both instances (in
practice ~10x).

A second table drives ``decide_batch`` alone at ``n = 10^6`` on both
shapes — the global dynamics are infeasible there, which is the point
of the port; the rows record wall-clock and peak RSS so the million-node
footprint is pinned in ``benchmarks/results/``.  They also split each
run into the time spent inside ``decide_batch`` and the engine's own
time (the run minus ``decide_batch``: ID validation, commit
application, trace lists), and on the path the engine's own time must
stay at most 0.7x ``decide_batch``'s (in practice ~0.4-0.5x; a per-node
commit loop or a second ID conversion puts it above 0.9x).
"""

import random

from harness import record_table, timed

from repro.local import LocalSimulator, cycle_graph, path_graph, random_ids
from repro.algorithms import ColeVishkin3Coloring

N = 100_000
N_LARGE = 1_000_000
MIN_SPEEDUP = 5.0
#: the engine's own time per million-node path run, as a share of the
#: time spent inside ``decide_batch``
MAX_ENGINE_SHARE = 0.7

INSTANCES = [
    ("cycle", cycle_graph),
    ("path", path_graph),  # the max-degree-2 tree
]


class GlobalDynamicsCV(ColeVishkin3Coloring):
    """Cole–Vishkin with ``decide_batch`` hidden: the batched engine runs
    its message hooks through the global dynamics."""

    decide_batch = None


class TimedCV(ColeVishkin3Coloring):
    """Cole–Vishkin that sums the wall time of its ``decide_batch``
    calls over a run in ``decide_s``."""

    def setup(self, graph, n):
        super().setup(graph, n)
        self.decide_s = 0.0

    def decide_batch(self, views, live, t):
        decided, wall, _ = timed(super().decide_batch, views, live, t)
        self.decide_s += wall
        return decided


#: run label -> algorithm class, both on the batched engine
FORMS = {"decide_batch": ColeVishkin3Coloring, "global": GlobalDynamicsCV}


def run_engine(form: str, graph, ids):
    return LocalSimulator(engine="batched").run(graph, FORMS[form](), ids)


def test_batched_engine_speedup(benchmark):
    ids = random_ids(N, rng=random.Random(0))
    graphs = {name: make(N) for name, make in INSTANCES}

    # pytest-benchmark drives decide_batch on the first instance;
    # everything else is timed once (the global-dynamics runs take seconds)
    first = INSTANCES[0][0]
    traces = {(first, "decide_batch"): benchmark(
        run_engine, "decide_batch", graphs[first], ids)}
    wall = {(first, "decide_batch"): benchmark.stats.stats.mean}
    for name, _make in INSTANCES:
        if (name, "decide_batch") not in traces:
            traces[(name, "decide_batch")], wall[(name, "decide_batch")], _ = \
                timed(run_engine, "decide_batch", graphs[name], ids)
        traces[(name, "global")], wall[(name, "global")], _ = timed(
            run_engine, "global", graphs[name], ids)

    rows, speedups = [], {}
    for name, _make in INSTANCES:
        for form in FORMS:
            tr = traces[(name, form)]
            rows.append((name, form, N, tr.worst_case(),
                         f"{tr.node_averaged():.2f}",
                         f"{wall[(name, form)]:.3f}"))
        speedups[name] = wall[(name, "global")] / wall[(name, "decide_batch")]
    record_table(
        "batched_engine_speedup",
        f"Batched engine speedup: Cole-Vishkin 3-coloring at n={N}",
        ["instance", "form", "n", "worst", "avg", "wall_s"],
        rows,
        notes=[f"speedup[{name}]: {s:.1f}x (global dynamics / decide_batch)"
               for name, s in speedups.items()],
    )

    for name, _make in INSTANCES:
        assert traces[(name, "decide_batch")].rounds == \
            traces[(name, "global")].rounds, name
        assert traces[(name, "decide_batch")].outputs == \
            traces[(name, "global")].outputs, name
        assert speedups[name] >= MIN_SPEEDUP, (
            f"decide_batch only {speedups[name]:.1f}x faster on {name}; "
            f"need >= {MIN_SPEEDUP}x"
        )


def test_batched_engine_million_nodes():
    """``decide_batch`` alone at n = 10^6 — construction, execution and
    footprint of the scale the global dynamics cannot reach, and the
    engine's own share of the path run."""
    ids = random_ids(N_LARGE, rng=random.Random(1))
    rows, share = [], {}
    for name, make in INSTANCES:
        graph, wall_build, _ = timed(make, N_LARGE)
        algorithm = TimedCV()
        trace, wall_run, peak_mib = timed(
            LocalSimulator(engine="batched").run, graph, algorithm, ids)
        assert trace.n == N_LARGE
        assert trace.worst_case() <= 64  # Cole-Vishkin: O(log* n) + O(1)
        engine_s = wall_run - algorithm.decide_s
        share[name] = engine_s / algorithm.decide_s
        rows.append((name, N_LARGE, trace.worst_case(),
                     f"{trace.node_averaged():.2f}", f"{wall_build:.3f}",
                     f"{wall_run:.3f}", f"{algorithm.decide_s:.3f}",
                     f"{engine_s:.3f}", f"{share[name]:.2f}",
                     f"{peak_mib:.0f}"))
    record_table(
        "batched_engine_million",
        f"Batched engine at n={N_LARGE}: Cole-Vishkin 3-coloring",
        ["instance", "n", "worst", "avg", "build_s", "run_s",
         "decide_batch_s", "engine_s", "engine/decide", "peak_mib"],
        rows,
        notes=["global dynamics omitted: per-node state machines are "
               "infeasible at this scale (the batched port is the point)",
               "engine_s: the run minus the time inside decide_batch"],
    )
    assert share["path"] <= MAX_ENGINE_SHARE, (
        f"the engine's own time is {share['path']:.2f}x decide_batch's "
        f"on the million-node path; need <= {MAX_ENGINE_SHARE}x"
    )
