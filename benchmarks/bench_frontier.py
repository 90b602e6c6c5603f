"""Frontier scheduler — a cached ID sample vs. the sample that grew the cache.

Micro-benchmark for :mod:`repro.local.frontier`: ``run_batch`` over 3 ID
samples of the canonical 2-colouring on one 1024-node
``bounded_tree_d3`` instance.  Every ball grows to its whole component,
so the first sample expands every layer of every centre; the later
samples re-read all of them from ``run_batch``'s flat per-radius layer
cache without scanning an edge.  The first sample's IDs also run on
the reference engine, which extracts every live node's ball afresh
each round.

Gates:

* every sample's outputs and rounds equal
  :func:`~repro.algorithms.two_coloring_fast_forward`, and the reference
  run's equal the first sample's;
* the first sample runs at least 64x faster than the reference engine,
  so the expansion path has a bound of its own;
* each cached sample runs at least 5x faster than the first.
"""

import random

from harness import record_table, timed

from repro.algorithms import CanonicalTwoColoring, two_coloring_fast_forward
from repro.families import get_family
from repro.local import LocalSimulator, random_ids

N = 1024
SAMPLES = 3
MIN_EXPAND_SPEEDUP = 64.0
MIN_SPEEDUP = 5.0


def test_cached_samples_speedup():
    (graph,) = get_family("bounded_tree_d3").instances(N, seed=0, count=1)
    rng = random.Random(0)
    samples = [random_ids(N, rng=rng) for _ in range(SAMPLES)]
    sim, algorithm = LocalSimulator(), CanonicalTwoColoring()
    ref, ref_wall, _ = timed(LocalSimulator(engine="reference").run, graph,
                             CanonicalTwoColoring(), samples[0])
    # run_batch's loop — one shared atlas across the samples — with each
    # sample timed on its own
    atlas = {}
    traces, walls = [], []
    for ids in samples:
        trace, wall, _ = timed(sim._run, graph, algorithm, ids, atlas=atlas)
        traces.append(trace)
        walls.append(wall)
    assert [(t.rounds, t.outputs) for t in traces] == [
        (t.rounds, t.outputs)
        for t in sim.run_batch(graph, algorithm, samples)
    ]

    assert (ref.rounds, ref.outputs) == (traces[0].rounds, traces[0].outputs)
    for ids, trace in zip(samples, traces):
        colors, rounds = two_coloring_fast_forward(graph, ids)
        assert trace.outputs == colors
        assert trace.rounds == rounds

    expand_speedup = ref_wall / walls[0]
    speedups = [walls[0] / w for w in walls[1:]]
    rows = [("0", "reference engine", f"{ref_wall:.4f}", "-")]
    rows += [(k, "grows" if k == 0 else "cached", f"{w:.4f}",
              f"{expand_speedup:.1f} vs reference" if k == 0
              else f"{speedups[k - 1]:.1f} vs sample 0")
             for k, w in enumerate(walls)]
    record_table(
        "frontier_cache",
        f"Frontier layer cache: two_coloring, run_batch of {SAMPLES} ID "
        f"samples on one n={N} bounded_tree_d3 instance",
        ["sample", "layers", "wall_s", "speedup"],
        rows,
        notes=[f"gate: the first sample >= {MIN_EXPAND_SPEEDUP:.0f}x "
               "faster than the reference engine on the same IDs",
               f"gate: every cached sample >= {MIN_SPEEDUP:.0f}x faster "
               "than the first"],
    )
    assert expand_speedup >= MIN_EXPAND_SPEEDUP, (
        f"the first sample only {expand_speedup:.1f}x faster than the "
        f"reference engine; need >= {MIN_EXPAND_SPEEDUP}x"
    )
    for k, s in enumerate(speedups, start=1):
        assert s >= MIN_SPEEDUP, (
            f"cached sample {k} only {s:.1f}x faster than the first; "
            f"need >= {MIN_SPEEDUP}x"
        )
