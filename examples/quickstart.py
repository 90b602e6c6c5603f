"""Quickstart: run LOCAL algorithms and measure node-averaged complexity.

Shows the three layers of the library:
1. the LOCAL simulator (view-based and message-passing algorithms),
2. an LCL problem + its verifier,
3. the node-averaged vs worst-case complexity measures.

Run:  python examples/quickstart.py
"""

import random

from repro.algorithms import (
    CanonicalTwoColoring,
    ColeVishkin3Coloring,
    default_gammas_35,
    run_generic_fast_forward,
)
from repro.lcl import Coloring35
from repro.local import LocalSimulator, path_graph, random_ids
from repro.constructions import build_lower_bound_graph


def main() -> None:
    rng = random.Random(0)

    # --- 1. 3-coloring a path: node-averaged ~ log* n ------------------
    # LocalSimulator runs both formulations; on the default batched
    # engine Cole-Vishkin decides for the whole path at once through its
    # vectorized decide_batch (engine="reference" is the cross-check oracle).
    g = path_graph(2000)
    ids = random_ids(g.n, rng=rng)
    trace = LocalSimulator().run(g, ColeVishkin3Coloring(), ids)
    print(f"Cole-Vishkin 3-coloring of a {g.n}-node path:")
    print(f"  node-averaged = {trace.node_averaged():.1f} rounds,"
          f" worst-case = {trace.worst_case()} rounds")
    assert all(trace.outputs[i] != trace.outputs[i + 1] for i in range(g.n - 1))

    # --- 2. 2-coloring the same path: Theta(n) both ways ---------------
    g2 = path_graph(300)
    trace2 = LocalSimulator().run(g2, CanonicalTwoColoring(), random_ids(g2.n, rng=rng))
    print(f"Canonical 2-coloring of a {g2.n}-node path:")
    print(f"  node-averaged = {trace2.node_averaged():.1f} rounds,"
          f" worst-case = {trace2.worst_case()} rounds  (linear, Cor. 60)")

    # --- 2b. sweeping ID assignments on one topology -------------------
    samples = [random_ids(g2.n, rng=rng) for _ in range(5)]
    batch = LocalSimulator().run_batch(g2, CanonicalTwoColoring(), samples)
    avg = sum(t.node_averaged() for t in batch) / len(batch)
    print(f"  run_batch over {len(batch)} ID samples: mean node-averaged = {avg:.1f}")

    # --- 3. the paper's 3.5-coloring on its lower-bound graph ----------
    k = 2
    lb = build_lower_bound_graph([40, 100])
    ids = random_ids(lb.graph.n, rng=rng)
    gammas = default_gammas_35(lb.graph.n, k)
    trace3 = run_generic_fast_forward(lb.graph, ids, k, gammas, "3.5")
    result = Coloring35(k).verify(lb.graph, trace3.outputs)
    print(f"{k}-hierarchical 3.5-coloring on the Def.18 graph "
          f"(n={lb.graph.n}, gammas={gammas}):")
    print(f"  node-averaged = {trace3.node_averaged():.1f}, "
          f"worst-case = {trace3.worst_case()}, valid = {result.valid}")


if __name__ == "__main__":
    main()
