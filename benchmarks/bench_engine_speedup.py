"""Engine speedup — global message dynamics vs. the reference engine.

Micro-benchmark for the :mod:`repro.local.simulator` engine split: run
Cole–Vishkin 3-coloring with ``decide_batch`` hidden on
``path_graph(2000)`` under both engines and record wall-clock,
per-engine, in ``benchmarks/results/``.  With ``decide_batch`` hidden the
batched engine runs the global message dynamics, one shared execution of
every node's state machine.  The two engines must produce identical
``(T_v, output)`` maps (also asserted by
``tests/test_engine_equivalence.py``); the global dynamics are required
to be at least 5x faster on this workload — in practice two orders of
magnitude faster, because the reference engine re-derives every node's
state from a freshly extracted ball every round while the global
dynamics advance one shared execution.
"""

import random

from harness import record_table, timed

from repro.local import LocalSimulator, path_graph, random_ids
from repro.algorithms import ColeVishkin3Coloring

N = 2000
MIN_SPEEDUP = 5.0


class GlobalDynamicsCV(ColeVishkin3Coloring):
    """Cole–Vishkin through its message hooks alone (the reference engine
    never calls ``decide_batch``)."""

    decide_batch = None


def run_engine(engine: str, ids):
    g = path_graph(N)
    return LocalSimulator(engine=engine).run(g, GlobalDynamicsCV(), ids)


def test_engine_speedup(benchmark):
    ids = random_ids(N, rng=random.Random(0))
    traces = {"batched": benchmark(run_engine, "batched", ids)}
    wall = {"batched": benchmark.stats.stats.mean}
    traces["reference"], wall["reference"], peak_mib = timed(
        run_engine, "reference", ids)

    rows = [
        (engine, N, traces[engine].worst_case(),
         f"{traces[engine].node_averaged():.2f}", f"{wall[engine]:.3f}")
        for engine in ("batched", "reference")
    ]
    speedup = wall["reference"] / wall["batched"]
    record_table(
        "engine_speedup",
        "Engine speedup: Cole-Vishkin 3-coloring on path_graph(2000)",
        ["engine", "n", "worst", "avg", "wall_s"],
        rows,
        notes=[f"speedup: {speedup:.1f}x (reference / batched global "
               f"dynamics); peak RSS {peak_mib:.0f} MiB"],
    )

    assert traces["batched"].rounds == traces["reference"].rounds
    assert traces["batched"].outputs == traces["reference"].outputs
    assert speedup >= MIN_SPEEDUP, (
        f"global dynamics only {speedup:.1f}x faster; need >= {MIN_SPEEDUP}x"
    )
