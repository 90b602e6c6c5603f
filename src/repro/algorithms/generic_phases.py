"""The generic phase algorithm for k-hierarchical 2½-/3½-coloring
(Section 4.1).

Phases ``i = 1..k-1`` with parameters ``gamma_1..gamma_{k-1}``:

* *fixing paths of level i*: among the not-yet-terminated nodes, each
  maximal path of level-``i`` nodes of length (node count) ``>= gamma_i``
  outputs ``D``; shorter paths see themselves entirely and 2-colour
  canonically (``W``/``B`` alternating from the smaller-ID endpoint).
  Decisions land ``2 * gamma_i`` rounds into the phase (the paper's charge).
* *E-propagation*: nodes of level ``> i`` adjacent to a lower-level node
  labeled ``W/B/E`` output ``E``; iterated (< k steps, one round each).

Phase ``k``: surviving level-``k`` paths are 2-coloured in linear time
(variant 2.5) or 3-coloured with Cole–Vishkin mapped onto ``R/G/Y``
(variant 3.5).  Level-``(k+1)`` nodes output ``E`` as soon as they know
their level.

Two executors with identical ``(T_v, output)`` semantics:

* :func:`run_generic_fast_forward` — centralized replay of the schedule
  (used for large-``n`` benchmarks);
* :class:`GenericPhaseColoring` — a faithful message-passing LOCAL
  state machine (tests assert it agrees with the fast-forward).

The round schedule both follow: levels are known at round ``k + 2``
(``k+1`` peeling exchanges plus one level-announcement exchange);
``S_1 = k + 2``; phase ``i`` decides at ``S_i + 2*gamma_i``; its
E-propagation occupies the next ``k + 1`` rounds, so
``S_{i+1} = S_i + 2*gamma_i + k + 2``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..lcl.hierarchical import B, D, E, W, COLORS_3
from ..lcl.levels import compute_levels
from ..local import vec
from ..local.graph import Graph
from ..local.ids import id_space_size
from ..local.metrics import ExecutionTrace
from .symmetry_breaking import three_color_path

__all__ = [
    "phase_schedule",
    "default_gammas_25",
    "default_gammas_35",
    "run_generic_fast_forward",
]


def phase_schedule(k: int, gammas: Sequence[int]) -> List[int]:
    """Start rounds ``S_1..S_k`` of the phases."""
    if len(gammas) != k - 1:
        raise ValueError("need exactly k-1 gamma values")
    starts = [k + 2]
    for g in gammas:
        starts.append(starts[-1] + 2 * g + k + 2)
    return starts


def default_gammas_25(n: int, k: int, alpha1: Optional[float] = None) -> List[int]:
    """``gamma_i = n^{alpha_i}`` with ``alpha_i = (2-x)^{i-1} alpha_1``;
    the unweighted problem is the ``x = 0`` case (``gamma_i = t^{2^{i-1}}``
    for ``t = n^{1/(2^k - 1)}``, Lemma 14's choice)."""
    from ..analysis.landscape import alpha1_poly

    # alpha_i = (2 - x)^{i-1} * alpha_1; the unweighted default is x = 0,
    # where the ratio between consecutive exponents is exactly 2.
    a1 = alpha1 if alpha1 is not None else alpha1_poly(0.0, k)
    gammas = []
    a = a1
    for _ in range(k - 1):
        gammas.append(max(2, int(round(n**a))))
        a *= 2.0
    return gammas


def default_gammas_35(n: int, k: int) -> List[int]:
    """``gamma_i = t^{2^{i-1}}`` for ``t = (log* n)^{1/2^{k-1}}``
    (Lemma 14)."""
    from ..analysis.mathutil import log_star

    t = max(2.0, float(log_star(n))) ** (1.0 / 2 ** (k - 1))
    return [max(2, int(round(t ** (2 ** (i - 1))))) for i in range(1, k)]


# ----------------------------------------------------------------------
# fast-forward executor
# ----------------------------------------------------------------------
def run_generic_fast_forward(
    graph: Graph,
    ids: Sequence[int],
    k: int,
    gammas: Sequence[int],
    variant: str = "2.5",
    id_exponent: int = 3,
    levels: Optional[Sequence[int]] = None,
    restrict: Optional[Sequence[int]] = None,
    time_offset: int = 0,
) -> ExecutionTrace:
    """Centralized replay of the generic phase algorithm.

    ``restrict`` runs the algorithm on an induced node subset (used by the
    weighted solvers on active components); nodes outside get ``T_v = 0``
    and output ``None``.  ``time_offset`` shifts all commit times (for
    embedding into a larger execution).
    """
    n = graph.n
    if variant not in ("2.5", "3.5"):
        raise ValueError("variant must be '2.5' or '3.5'")
    member = [True] * n if restrict is None else _member_mask(n, restrict)
    if levels is None:
        levels = compute_levels(
            graph, k, restrict=None if restrict is None else restrict
        )

    starts = phase_schedule(k, gammas)
    rounds = [0] * n
    outputs: List = [None] * n
    alive = [member[v] for v in range(n)]
    meta: Dict = {"phase_starts": list(starts), "remaining_after_phase": {}}
    # every node labeled W/B/E so far: where E-propagation spreads from
    labeled: List[int] = []

    # level-(k+1) nodes: E as soon as the level is known
    for v in range(n):
        if member[v] and levels[v] == k + 1:
            _commit(v, E, k + 2 + time_offset, rounds, outputs, alive)
            labeled.append(v)

    for i in range(1, k):
        gamma = gammas[i - 1]
        decide_at = starts[i - 1] + 2 * gamma
        for path in _alive_level_paths(graph, levels, alive, i):
            if len(path) >= gamma:
                for v in path:
                    _commit(v, D, decide_at + time_offset, rounds, outputs, alive)
            else:
                for v, col in zip(path, _canonical_2coloring(path, ids)):
                    _commit(v, col, decide_at + time_offset, rounds, outputs, alive)
                labeled.extend(path)
        _propagate_exempt(
            graph, levels, alive, rounds, outputs, labeled, k,
            start_time=decide_at + 1 + time_offset,
        )
        meta["remaining_after_phase"][i] = sum(alive)

    # phase k
    s_k = starts[k - 1]
    space = id_space_size(max(2, n), id_exponent)
    for path in _alive_level_paths(graph, levels, alive, k):
        if variant == "2.5":
            colors = _canonical_2coloring(path, ids)
            m = len(path)
            for idx, (v, col) in enumerate(zip(path, colors)):
                # endpoint-flags travel with the gathered segments, so a
                # node knows its whole path after exactly ecc exchanges
                ecc = max(idx, m - 1 - idx)
                _commit(v, col, s_k + ecc + time_offset, rounds, outputs, alive)
        else:
            cv_colors, t_cv = three_color_path([ids[v] for v in path], space)
            for v, c in zip(path, cv_colors):
                _commit(
                    v, COLORS_3[c], s_k + t_cv + time_offset, rounds, outputs, alive
                )
    # phases 1..k commit every alive path of their level and level k + 1
    # committed up front, so no E-propagation can follow phase k: the
    # stranded check below would raise on any node one could commit
    meta["remaining_after_phase"][k] = sum(alive)

    stranded = [v for v in range(n) if alive[v]]
    if stranded:
        raise RuntimeError(f"generic algorithm left {len(stranded)} nodes alive")
    return ExecutionTrace(
        rounds=rounds, outputs=outputs,
        algorithm=f"generic-phases-{variant}", meta=meta,
    )


def _member_mask(n: int, restrict: Sequence[int]) -> List[bool]:
    mask = [False] * n
    for v in restrict:
        mask[v] = True
    return mask


def _commit(v, label, t, rounds, outputs, alive) -> None:
    assert alive[v], f"double commit at node {v}"
    rounds[v] = t
    outputs[v] = label
    alive[v] = False


def _alive_level_paths(
    graph: Graph, levels: Sequence[int], alive: Sequence[bool], i: int
) -> List[List[int]]:
    """Maximal paths of alive level-``i`` nodes, in path order, traced by
    :func:`repro.local.vec.member_paths`."""
    np = vec.np
    member = np.array(alive, dtype=bool) & (
        np.array(levels, dtype=np.int64) == i
    )
    try:
        return vec.member_paths(graph, member)
    except ValueError:
        raise AssertionError(f"level-{i} alive component is not a path")


def _canonical_2coloring(path: Sequence[int], ids: Sequence[int]) -> List[str]:
    """``W/B`` alternation anchored at the endpoint with the smaller ID."""
    if ids[path[0]] <= ids[path[-1]]:
        first = 0
    else:
        first = (len(path) - 1) % 2
    return [W if (idx - first) % 2 == 0 else B for idx in range(len(path))]


def _propagate_exempt(
    graph: Graph,
    levels: Sequence[int],
    alive: List[bool],
    rounds: List[int],
    outputs: List,
    labeled: List[int],
    k: int,
    start_time: int,
) -> None:
    """Iterated E-assignment: an alive node of level ``2..k`` with a
    lower-level neighbour labeled ``W/B/E`` outputs ``E``; one step per
    round, at most ``k`` steps (levels strictly increase along chains).

    ``labeled`` lists every node labeled ``W/B/E`` so far (the caller
    knows what it committed), and the pass appends its own commits.
    Each step gathers the eligible nodes' incident edges once instead of
    scanning every node's neighbourhood in Python; ``tests/test_vec.py``
    keeps the per-node scan of ``outputs`` as its oracle.  Commits still
    go through ``_commit`` so the caller's list state stays the source
    of truth."""
    np = vec.np
    n = graph.n
    indptr, indices = vec.csr_arrays(graph)
    lv = np.array(levels, dtype=np.int64)
    elig = np.array(alive, dtype=bool) & (lv >= 2) & (lv <= k)
    trig = np.zeros(n, dtype=bool)
    trig[np.array(labeled, dtype=np.intp)] = True
    step = 0
    while True:
        candidates = np.nonzero(elig)[0]
        if candidates.size == 0:
            break
        src, nbr = vec.expand_segments(indptr, indices, candidates)
        hit = trig[nbr] & (lv[nbr] > 0) & (lv[nbr] < lv[src])
        newly = np.unique(src[hit])
        if newly.size == 0:
            break
        newly_list = newly.tolist()
        for v in newly_list:
            _commit(v, E, start_time + step, rounds, outputs, alive)
        labeled.extend(newly_list)
        elig[newly] = False
        trig[newly] = True
        step += 1
        assert step <= k + 1, "E-propagation exceeded its window"
