"""Rake-and-compress schedule — array passes vs. their per-node forms.

Micro-benchmark for the schedule ``RakeCompressLayering`` replays, on
one 10^5-node Prüfer tree (``random_tree``, the ``sweep_tree``
family).  ``rake_compress`` first checks that its input is a forest;
``Graph.is_forest`` counts components with a numpy hook-and-shortcut
pass, where the per-node form is the BFS of ``connected_components``.
The schedule then comes from the decomposition's step array.

Gates:

* ``is_forest()`` equals ``m == n - len(connected_components())`` and
  runs at least 2x faster than that BFS count;
* ``RakeCompressLayering``'s ``(rounds, labels)`` hash to
  :data:`PINNED_SCHEDULE`, the digest of the schedule the per-layer
  dict loop computed before layers were recorded as steps.
"""

import hashlib
import json

from harness import record_table, timed

from repro.algorithms import RakeCompressLayering
from repro.families import get_family

N = 100_000
REPEATS = 3
MIN_SPEEDUP = 2.0

#: sha256 of ``[[rounds, labels]]`` (compact JSON) for gamma=1, ell=2 on
#: instance 0 of ``random_tree`` at n=10^5, seed 0.
PINNED_SCHEDULE = (
    "07fb4317eddf221740fd3611dd3affc9084a26f6789eafa4a3effcb0a6adcbd2")


def bfs_is_forest(graph):
    return graph.m == graph.n - len(graph.connected_components())


def test_rake_schedule_array_passes():
    (graph,) = get_family("random_tree").instances(N, seed=0, count=1)
    # alternate the two forms and keep each one's best wall time
    fast_walls, bfs_walls = [], []
    for _ in range(REPEATS):
        fast, wall, _ = timed(graph.is_forest)
        fast_walls.append(wall)
        slow, wall, _ = timed(bfs_is_forest, graph)
        bfs_walls.append(wall)
        assert fast is slow is True
    speedup = min(bfs_walls) / min(fast_walls)

    algorithm = RakeCompressLayering(gamma=1, ell=2)
    algorithm.setup(graph, graph.n)
    (rounds, labels), schedule_wall, _ = timed(algorithm._rounds, graph)
    digest = hashlib.sha256(json.dumps(
        [[rounds.tolist(), labels]], separators=(",", ":")).encode()
    ).hexdigest()
    assert digest == PINNED_SCHEDULE

    record_table(
        "rake_schedule",
        f"Rake-and-compress schedule on one n={N} random_tree instance",
        ["step", "wall_s", "note"],
        [("is_forest (numpy count)", f"{min(fast_walls):.4f}",
          f"{speedup:.1f}x vs BFS"),
         ("m == n - #BFS components", f"{min(bfs_walls):.4f}", "-"),
         ("schedule (step array)", f"{schedule_wall:.4f}",
          "rake_compress included")],
        notes=[f"gate: is_forest >= {MIN_SPEEDUP:.0f}x faster than the "
               f"BFS count (best of {REPEATS} alternating runs)",
               "gate: (rounds, labels) hash to the pinned per-layer "
               "schedule"],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"is_forest only {speedup:.1f}x faster than the BFS count; "
        f"need >= {MIN_SPEEDUP}x"
    )
