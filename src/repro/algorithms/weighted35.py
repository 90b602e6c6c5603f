"""The generic algorithm for ``Pi^{3.5}_{Delta,d,k}`` (Section 8.2,
Theorem 5).

It is :mod:`repro.algorithms.weighted25`'s ``Pi^Z`` composition with two
choices of its own:

* active nodes run the generic phase algorithm (variant 3.5) with
  ``gamma_i = (log* n)^{alpha_i}``, the Lemma-36 exponents evaluated at
  the *relaxed* efficiency ``x' = log(Delta-d+1)/log(Delta-1)`` — this is
  what makes the upper bound ``O((log* n)^{alpha_1(x')})`` instead of the
  lower bound's ``alpha_1(x)``;
* weight nodes run the adapted fast-decomposition d-free solver
  (:mod:`repro.algorithms.fast_decomposition`): Decline/Connect nodes
  terminate at O(1) node-averaged time (Corollary 49), Copy components
  ``C'(v)`` have size ``O(|C(v)|^{x'})`` (Lemma 52).

Requires ``d >= 3`` and ``Delta >= d + 3`` (Theorem 5's hypotheses; the
fast solver itself needs ``d >= 2``).
"""

from __future__ import annotations

from typing import Sequence

from ..local.graph import Graph
from ..local.metrics import ExecutionTrace
from .fast_decomposition import run_fast_dfree
from .weighted25 import apoly_gammas, solve_pi_z

__all__ = ["run_weighted35"]


def run_weighted35(
    graph: Graph,
    ids: Sequence[int],
    delta: int,
    d: int,
    k: int,
    gammas: Sequence[int] = None,
    id_exponent: int = 3,
) -> ExecutionTrace:
    """Theorem 5's algorithm for ``Pi^{3.5}_{Delta,d,k}``."""
    if d < 3 or delta < d + 3:
        raise ValueError("Theorem 5 requires d >= 3 and Delta >= d + 3")
    if gammas is None:
        gammas = apoly_gammas(graph.n, delta, d, k, "logstar")
    rounds, outputs, _ = solve_pi_z(
        graph, ids, k, gammas, "3.5", id_exponent,
        lambda forest: run_fast_dfree(forest, d),
    )
    return ExecutionTrace(
        rounds=rounds,
        outputs=outputs,
        algorithm="weighted35-fast",
        meta={"gammas": list(gammas)},
    )
