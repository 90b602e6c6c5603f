"""Synchronous LOCAL-model simulator with two execution engines.

Rounds proceed ``t = 0, 1, 2, ...``.  In round ``t`` every node that has not
yet committed is handed its radius-``t`` view (see
:class:`repro.local.algorithm.View`) and may commit an output.  All decisions
within a round are simultaneous: a commit at round ``t`` is visible to a node
at distance ``delta`` only from round ``t + delta`` on.  ``T_v`` is the round
at which ``v`` commits.

Engines
-------
:class:`LocalSimulator` accepts ``engine="batched"`` (the default) or
``engine="reference"``.  Both produce identical ``(T_v, output)`` maps —
``tests/test_engine_equivalence.py`` asserts this over a corpus of graphs,
algorithms and ID assignments — but they trade transparency for speed:

* ``reference`` — the executable definition of the model.  Every round,
  every live node's radius-``t`` ball is re-extracted from scratch and (for
  message-passing algorithms) the node's state is re-derived by simulating
  the message dynamics *inside the ball only*, restricted to the causal
  cone.  No state is carried between rounds, so nothing can leak: this is
  the oracle to cross-check against whenever engine behaviour is in doubt,
  and the right engine for new-algorithm debugging.  Cost:
  Θ(Σ_t live_t · |ball_t|) and worse — effectively cubic on paths.
* ``batched`` — the production engine.  Algorithms implementing
  ``decide_batch(views, live, t)`` (see
  :class:`repro.local.algorithm.BatchedAlgorithm`) decide over the whole
  live set at once with array-level operations: ``live`` is a sorted
  int64 array, each round's commits come back as one aligned
  ``(nodes, labels)`` pair, and ball facts come from one
  :class:`repro.local.frontier.FrontierScheduler` that grows *all* live
  balls together (one flat CSR sweep per round, or a read of the layers
  an earlier ``run_batch`` sample grew).  Algorithms without
  ``decide_batch`` run unmodified.  Message algorithms advance through
  one shared global execution of their state machine — the standard
  equivalence between the message-passing and full-information
  formulations, exploited instead of re-derived per node.  View
  algorithms run the reference loop, so their views are the reference
  engine's own.

Both engines keep a run's commit state as arrays — an int64
``commit_round`` (``-1`` until the node commits) and an object
``outputs`` — and apply a round's commits through one shared
:func:`_apply_commits`: the ``(nodes, labels)`` pair is validated
(integer handles, alignment, range, repeated commits) and applied with
array operations — one scatter into each state array and into the
commit flags, one mask over the live array.  The trace's lists are
built once per run, with one ``tolist`` per state array.

The structured algorithms in :mod:`repro.algorithms` additionally ship
"fast-forward" executors that compute the same ``(T_v, output)`` map
centrally for large-``n`` benchmarking; tests assert they agree with this
simulator.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

from .algorithm import CONTINUE, View
from .graph import Graph
from .ids import sequential_ids, validate_ids
from .metrics import ExecutionTrace

__all__ = ["LocalSimulator", "SimulationError", "ENGINES"]

#: Recognised engine names: the production engine, then its oracle.
ENGINES = ("batched", "reference")


class SimulationError(RuntimeError):
    """Raised when an execution exceeds its round budget."""


def _has_decide_batch(algorithm) -> bool:
    """Whether the algorithm natively supports the batched engine's
    whole-live-set protocol."""
    return callable(getattr(algorithm, "decide_batch", None))


class LocalSimulator:
    """Execute a LOCAL algorithm on a graph with given IDs.

    Accepts both algorithm formulations: a view-based
    :class:`~repro.local.algorithm.LocalAlgorithm` or a message-passing
    :class:`~repro.local.message.MessageAlgorithm` (the two are equivalent
    in the LOCAL model, and this simulator is the single entry point for
    either).

    Engine contract
    ---------------
    ``engine="batched"`` (the default) and ``engine="reference"`` must
    be observationally identical: same ``(T_v, output)`` maps, same
    ``SimulationError`` and ``TypeError`` behaviour.  :meth:`_run` is
    the one dispatch: the batched engine runs ``decide_batch`` when the
    algorithm has one, a message algorithm otherwise runs the global
    dynamics (batched) or its causal-cone oracle (reference), and a
    view algorithm with only ``decide`` runs the reference loop on
    either engine.  Whatever the batched engine carries across rounds
    (the frontier scheduler's layers, global message execution, batched
    label arrays) is purely a cache of what the reference engine would
    recompute.  Use ``reference`` as the cross-check oracle when
    validating a new algorithm; use ``batched`` everywhere else.
    """

    def __init__(
        self, max_rounds: Optional[int] = None, engine: str = "batched"
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self._max_rounds = max_rounds
        self.engine = engine

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def run(
        self,
        graph: Graph,
        algorithm,
        ids: Optional[Sequence[int]] = None,
    ) -> ExecutionTrace:
        """Execute ``algorithm`` once and return its :class:`ExecutionTrace`."""
        return self._run(graph, algorithm, ids, atlas=None)

    def run_batch(
        self,
        graph: Graph,
        algorithm,
        id_samples: Sequence[Sequence[int]],
    ) -> List[ExecutionTrace]:
        """Run ``algorithm`` on one graph under many ID assignments.

        The common shape in ``benchmarks/`` and ``analysis``: fixed
        topology, sampled IDs.  Topology-only setup is shared across the
        batch through one atlas dict.  On the batched engine, the
        frontier scheduler keeps the layers it grows in the atlas's flat
        per-radius layer cache, so a later run that grows the same balls
        reads them from it instead of re-scanning edges, and message
        algorithms reuse the per-node neighbour lists.  Per-run work
        that depends on the IDs — the dynamics themselves — is still
        paid per sample, and the reference loops share nothing.
        ``algorithm.setup`` is invoked per run; algorithms must reset
        any per-execution caches there.
        """
        batch_cache: Dict = {}
        return [
            self._run(graph, algorithm, ids, atlas=batch_cache)
            for ids in id_samples
        ]

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _run(
        self,
        graph: Graph,
        algorithm,
        ids: Optional[Sequence[int]],
        # shared per-batch topology cache: "frontier" -> the scheduler's
        # flat per-radius layer cache, "neighbors" -> per-node adjacency
        # tuples (global message dynamics); None outside run_batch
        atlas: Optional[Dict] = None,
    ) -> ExecutionTrace:
        from .message import MessageAlgorithm  # deferred: message.py imports us

        n = graph.n
        if n == 0:
            raise ValueError("cannot run on the empty graph")
        if ids is None:
            ids = sequential_ids(n)
        if len(ids) != n:
            raise ValueError("ids length must equal n")
        # the run's IDs from here on: one read-only int64 copy
        ids = validate_ids(ids)

        batched = self.engine == "batched"
        if batched and _has_decide_batch(algorithm):
            runner = partial(_run_batched, atlas=atlas)
        elif isinstance(algorithm, MessageAlgorithm):
            # one shared global state machine is already the batched
            # execution of a message algorithm
            runner = (partial(_run_message_global, atlas=atlas) if batched
                      else _run_message_reference)
        elif callable(getattr(algorithm, "decide", None)):
            # a view algorithm without decide_batch: the reference loop,
            # on either engine
            runner = _run_view_reference
        elif _has_decide_batch(algorithm):
            raise TypeError(
                f"{algorithm.name} only implements decide_batch; "
                f"run it with engine='batched'"
            )
        else:
            raise TypeError(
                f"{algorithm.name} implements neither decide nor decide_batch"
            )

        algorithm.setup(graph, n)
        budget = self._max_rounds
        if budget is None:
            budget = algorithm.max_rounds_hint(n)
        rounds, outputs = runner(graph, algorithm, ids, budget)
        return ExecutionTrace(
            rounds=rounds,
            outputs=outputs,
            algorithm=algorithm.name,
            meta={"ids": ids, "engine": self.engine},
        )


def _budget_check(algorithm, t: int, budget: int, live) -> None:
    if t > budget:
        raise SimulationError(
            f"{algorithm.name}: exceeded round budget {budget} "
            f"with {len(live)} nodes still running"
        )


# ----------------------------------------------------------------------
# view-based engines
# ----------------------------------------------------------------------
def _live_array(nodes: np.ndarray) -> np.ndarray:
    """Seal a live array before handing it to algorithms: writes raise,
    since a mutated live set would corrupt every later round."""
    nodes.flags.writeable = False
    return nodes


def _commit_state(n: int):
    """A run's fresh commit state: ``commit_round`` (int64, ``-1`` until
    the node commits), ``outputs`` (object, None until it commits), the
    commit-flag ``bytearray`` and the sealed live array of every node."""
    return (np.full(n, -1, dtype=np.int64), np.empty(n, dtype=object),
            bytearray(n), _live_array(np.arange(n, dtype=np.int64)))


def _label_array(labels, k: int):
    """A round's ``k`` labels in the form one scatter stores exactly as
    a per-node loop over ``labels`` would (a numpy ``labels`` array
    over its ``tolist``): a 1-D numpy array as it is, since the object
    cast of the scatter converts each element as ``tolist`` does, and
    anything else as a 1-D object array of its items, so a tuple stays
    one label (``np.asarray`` would read equal-length tuples as one 2-D
    array)."""
    if isinstance(labels, np.ndarray):
        if labels.ndim == 1:
            return labels
        labels = labels.tolist()
    return np.fromiter(labels, dtype=object, count=k)


def _apply_commits(decided, t, commit_round, outputs, live, committed):
    """Apply one round's simultaneous commits; return the new live array.

    ``decided`` is the round's ``(nodes, labels)`` pair: integer handles
    and their aligned labels (any two sequences; a numpy ``labels``
    array lands as its ``tolist`` would, so outputs hold plain Python
    scalars).  Every check and update is an array operation over the
    batch: integer dtype, alignment and range are validated, nodes
    already committed raise, the flags are set in one scatter into the
    shared commit-flag ``bytearray`` (the batched engine's frontier
    scheduler views it zero-copy, so flagged centres drop out of the
    flat frontier on its next sweep), and one mask over the sorted int64
    ``live`` array drops the committed nodes.  ``live`` is exactly the
    unflagged nodes, so the mask drops fewer nodes than the batch holds
    iff the batch repeats one.  The round and the labels then land in
    the ``commit_round`` and ``outputs`` arrays with one scatter each
    (:func:`_label_array`).
    """
    try:
        nodes, labels = decided
    except (TypeError, ValueError):
        raise SimulationError(
            f"decide_batch must return a (nodes, labels) pair (round {t})"
        ) from None
    k = len(nodes)
    if len(labels) != k:
        raise SimulationError(
            f"{k} nodes committed with {len(labels)} labels (round {t})"
        )
    if not k:
        return live
    nodes = np.asarray(nodes)
    if nodes.ndim != 1 or nodes.dtype.kind not in "iu":
        raise SimulationError(
            f"commit handles must be a 1-D integer array, got "
            f"{nodes.dtype} of shape {nodes.shape} (round {t})"
        )
    flags = np.frombuffer(committed, dtype=np.uint8)
    n = len(flags)
    if nodes.min() < 0 or nodes.max() >= n:
        # guard against negative indices silently aliasing node n-1
        v = nodes[(nodes < 0) | (nodes >= n)][0]
        raise SimulationError(f"commit for out-of-range node {v} (round {t})")
    again = flags[nodes] != 0
    if again.any():
        raise SimulationError(
            f"node {nodes[again][0]} committed twice (round {t})"
        )
    flags[nodes] = 1
    kept = live[flags[live] == 0]
    if len(live) - len(kept) != k:
        values, counts = np.unique(nodes, return_counts=True)
        raise SimulationError(
            f"node {values[counts > 1][0]} committed twice (round {t})"
        )
    commit_round[nodes] = t
    outputs[nodes] = _label_array(labels, k)
    return _live_array(kept)


def _run_view_reference(graph, algorithm, ids, budget):
    """Exact recompute-every-round semantics: every live node's ball is
    re-extracted from scratch each round.  The cross-check oracle, and
    the one loop for view algorithms without ``decide_batch`` on either
    engine."""
    n = graph.n
    id_list = ids.tolist()  # View.id_of hands algorithms Python ints
    commit_round, outputs, committed, live = _commit_state(n)

    t = 0
    while len(live):
        _budget_check(algorithm, t, budget, live)
        nodes, labels = [], []
        for v in live.tolist():
            view = View(graph, v, t, id_list, commit_round, outputs)
            decision = algorithm.decide(view, n)
            if decision is not CONTINUE:
                nodes.append(v)
                labels.append(decision)
        live = _apply_commits(
            (nodes, labels), t, commit_round, outputs, live, committed
        )
        t += 1
    return commit_round.tolist(), outputs.tolist()


def _run_batched(graph, algorithm, ids, budget, atlas):
    """One ``decide_batch`` pass for *all* live nodes per round, with
    ball facts from a shared
    :class:`~repro.local.frontier.FrontierScheduler` (flat CSR sweeps
    over the whole live frontier, grown only on demand).  ``ids`` is
    :func:`~repro.local.ids.validate_ids`' read-only int64 array,
    handed to ``decide_batch`` as ``views.ids``."""
    from .frontier import BatchedViews, FrontierScheduler

    n = graph.n
    commit_round, outputs, committed, live = _commit_state(n)
    scheduler = FrontierScheduler(graph, committed, atlas=atlas)
    views = BatchedViews(
        graph, ids, commit_round, outputs, scheduler, budget=budget,
    )

    t = 0
    while len(live):
        _budget_check(algorithm, t, budget, live)
        views.round = t
        live = _apply_commits(
            algorithm.decide_batch(views, live, t), t, commit_round, outputs,
            live, committed,
        )
        t += 1
    return commit_round.tolist(), outputs.tolist()


# ----------------------------------------------------------------------
# message-passing engines
# ----------------------------------------------------------------------
def _run_message_global(graph, algorithm, ids, budget, atlas):
    """One shared global execution of the message state machine — the
    full-information and message-passing formulations are equivalent, so
    the batched engine advances the global dynamics instead of
    re-deriving each node's state from its ball."""
    from .frontier import _atlas_neighbor_lists
    from .message import run_message_dynamics

    return run_message_dynamics(
        graph, algorithm, ids.tolist(), budget,
        neighbor_lists=_atlas_neighbor_lists(graph, atlas),
    )


def _run_message_reference(graph, algorithm, ids, budget):
    """Full-information oracle for message algorithms: each round, each
    live node's state is re-derived from its radius-``t`` ball alone by
    simulating the message dynamics inside the ball, restricted to the
    causal cone (a node at distance ``d`` is advanced only through round
    ``t - d``, exactly the prefix its messages can influence the centre
    by round ``t``)."""
    n = graph.n
    id_list = ids.tolist()  # NodeInfo hands algorithms Python ints
    commit_round, outputs, committed, live = _commit_state(n)

    t = 0
    while len(live):
        _budget_check(algorithm, t, budget, live)
        nodes, labels = [], []
        for v in live.tolist():
            dist = graph.ball(v, t)
            decision = _message_decision_from_ball(
                graph, algorithm, id_list, n, v, t, dist
            )
            if decision is not CONTINUE:
                nodes.append(v)
                labels.append(decision)
        live = _apply_commits(
            (nodes, labels), t, commit_round, outputs, live, committed
        )
        t += 1
    return commit_round.tolist(), outputs.tolist()


def _message_decision_from_ball(graph, algorithm, id_list, n, center, t, dist):
    """Re-derive ``center``'s round-``t`` decision from its ball.

    Nodes at distance ``d`` contribute exactly their first ``t - d``
    state-machine rounds (their later states cannot causally reach the
    centre).  Every node gets its true ``NodeInfo`` — a frontier node's
    round-0 broadcast encodes its full local knowledge in the message
    model, so truncating its neighbour list would diverge from the
    global dynamics.  Frontier nodes never *receive* under the causal
    cone (a node at distance ``d`` is only transitioned through round
    ``t - d``, and ``d = t`` means zero transitions), and every
    transitioned node's neighbours lie inside the ball, so all incoming
    message lists are complete and correctly aligned.
    """
    from .message import NodeInfo

    members = list(dist)
    neighbor_lists = {u: graph.neighbors(u) for u in members}
    states = {
        u: algorithm.init_state(
            NodeInfo(u, id_list[u], graph.degree(u), graph.input_of(u),
                     neighbor_lists[u]),
            n,
        )
        for u in members
    }
    for s in range(t):
        horizon = t - s
        msgs = {
            u: algorithm.message(states[u], s)
            for u in members
            if dist[u] <= horizon
        }
        for u in members:
            if dist[u] <= horizon - 1:
                states[u] = algorithm.transition(
                    states[u], [msgs[w] for w in neighbor_lists[u]], s
                )
    return algorithm.decide(states[center], t)
