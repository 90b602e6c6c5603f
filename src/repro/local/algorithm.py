"""Algorithm API for the LOCAL model: ball views and the algorithm protocol.

A LOCAL algorithm, in the equivalent *full-information* formulation, is a
function from the radius-``t`` view of a node to a decision: after ``t``
synchronous rounds a node knows exactly the topology, identifiers, inputs and
(causally visible) committed outputs within distance ``t`` of itself, and
either commits an output label or continues.  The number of rounds a node
needs before committing is its individual complexity ``T_v``; the paper's
node-averaged complexity is the average of these (see
:mod:`repro.local.metrics`).

Causality of outputs: if node ``u`` commits at round ``s``, a node at
distance ``delta`` learns this at round ``s + delta`` — views expose exactly
that and nothing more.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .graph import Graph

__all__ = ["CONTINUE", "View", "LocalAlgorithm", "BatchedAlgorithm",
           "CommitSchedule"]


class _Continue:
    """Sentinel decision: the node has not committed yet."""

    _instance: Optional["_Continue"] = None

    def __new__(cls) -> "_Continue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "CONTINUE"


CONTINUE = _Continue()


class View:
    """The radius-``t`` knowledge of a node in the LOCAL model.

    Node handles inside a view are the global graph handles for convenience
    of simulation; algorithms must only *use* the exposed information (IDs,
    inputs, topology, visible outputs) — this is the standard simulation
    shortcut and does not change round counts.

    The ball is extracted afresh (``graph.ball(center, t)``) for every
    view, so a view holds only its own round; algorithms must not retain
    views across rounds.

    ``commit_round`` and ``outputs`` are the engine's commit state
    arrays: an int64 array holding each node's commit round (``-1``
    until it commits) and an object array holding its label.
    """

    __slots__ = ("graph", "center", "round", "_dist", "_ids",
                 "_commit_round", "_outputs")

    def __init__(
        self,
        graph: Graph,
        center: int,
        t: int,
        ids: List[int],
        commit_round: np.ndarray,
        outputs: np.ndarray,
    ) -> None:
        self.graph = graph
        self.center = center
        self.round = t
        # read-only: a mutated ball would answer later queries from
        # edited distances, so make the misuse raise
        self._dist = MappingProxyType(graph.ball(center, t))
        self._ids = ids
        self._commit_round = commit_round
        self._outputs = outputs

    # -- topology ------------------------------------------------------
    def nodes(self) -> Mapping[int, int]:
        """``{node: distance}`` of all nodes in the ball (read-only)."""
        return self._dist

    def contains(self, u: int) -> bool:
        return u in self._dist

    def distance(self, u: int) -> int:
        return self._dist[u]

    def neighbors(self, u: int) -> Tuple[int, ...]:
        """Neighbours of ``u`` as known in the view.

        Fully known for nodes at distance ``< t``; for frontier nodes (at
        distance exactly ``t``) only the neighbours inside the ball are
        visible.
        """
        if self._dist[u] < self.round:
            return self.graph.neighbors(u)
        return tuple(w for w in self.graph.neighbors(u) if w in self._dist)

    def degree_known(self, u: int) -> bool:
        """Whether the full degree of ``u`` is visible."""
        return self._dist[u] < self.round

    def sees_whole_component(self) -> bool:
        """True iff the view provably contains the whole component."""
        for u, d in self._dist.items():
            if d >= self.round:
                return False
            for w in self.graph.neighbors(u):
                if w not in self._dist:
                    return False
        return True

    # -- labels --------------------------------------------------------
    def id_of(self, u: int) -> int:
        """The identifier of ``u``; raises ``KeyError`` outside the ball.

        Raising (rather than answering from the global arrays) is what
        keeps the view sound: a radius-``t`` view that answered ID queries
        about nodes beyond distance ``t`` would let an algorithm cheat the
        LOCAL model without either engine noticing.
        """
        if u not in self._dist:
            raise KeyError(u)
        return self._ids[u]

    def input_of(self, u: int):
        """The input label of ``u``; raises ``KeyError`` outside the ball."""
        if u not in self._dist:
            raise KeyError(u)
        return self.graph.input_of(u)

    def output_of(self, u: int):
        """The committed output of ``u`` if causally visible, else None.

        A commit at round ``s`` by a node at distance ``delta`` is visible
        at rounds ``>= s + delta``.  Raises ``KeyError`` outside the ball:
        answering None there while raising for committed nodes would let
        an algorithm distinguish the two — an out-of-horizon signal.
        """
        delta = self._dist[u]
        s = self._commit_round[u]
        if 0 <= s and s + delta <= self.round:
            return self._outputs[u]
        return None

    def has_output(self, u: int) -> bool:
        return self.output_of(u) is not None


class LocalAlgorithm:
    """Base class for LOCAL algorithms in the full-information formulation.

    Subclasses implement :meth:`decide`; the simulator calls it once per
    round per still-running node.  ``n`` (the network size) is provided, as
    is standard in the LOCAL model.
    """

    #: Human-readable algorithm name for traces and reports.
    name: str = "local-algorithm"

    def setup(self, graph: Graph, n: int) -> None:
        """Called once before the execution starts (global parameters only).

        May precompute values every node could compute from ``n`` alone
        (e.g. phase lengths ``gamma_i``); must not inspect the topology.
        """

    def decide(self, view: View, n: int):
        """Return an output label to commit, or :data:`CONTINUE`.

        Must be a deterministic function of the view (plus ``n``).
        """
        raise NotImplementedError

    def max_rounds_hint(self, n: int) -> int:
        """Upper bound on rounds; the simulator errors beyond this."""
        return 4 * n + 64


class BatchedAlgorithm:
    """Base class for algorithms that decide over the whole live set at once.

    The batched engine (``LocalSimulator(engine="batched")``) calls
    :meth:`decide_batch` once per round with the full live set instead of
    calling ``decide`` once per live node, which lets implementations work
    at array level (numpy sweeps over flat per-node state) rather than
    per-node Python.  The observational contract is unchanged: the commits
    returned must be exactly those the per-node formulation would make, so
    traces are engine-independent.

    Any object exposing a ``decide_batch`` method satisfies the protocol —
    the ported structured algorithms add it next to their existing
    ``decide``/message hooks, so one instance runs on every engine.  This
    base class is for *pure* batched algorithms with no per-node form;
    those run only under ``engine="batched"``.
    """

    #: Human-readable algorithm name for traces and reports.
    name: str = "batched-algorithm"

    def setup(self, graph: Graph, n: int) -> None:
        """Called once before the execution starts (global parameters only);
        must also reset any per-execution caches (``run_batch`` reuses one
        instance across many ID samples)."""

    def decide_batch(self, views, live, t: int):
        """Return this round's commits as one aligned pair
        ``(nodes, labels)``.

        ``views`` is a :class:`repro.local.frontier.BatchedViews` exposing
        the run's IDs, commit state and shared ball facts; ``live``
        is the sorted, read-only int64 array of not-yet-committed nodes.
        ``nodes`` holds integer handles (an integer numpy array or a
        sequence of ints) and ``labels[i]`` is the output of
        ``nodes[i]`` (any sequence; a numpy array's labels land as its
        ``tolist`` gives them, so outputs are plain Python scalars, and
        a tuple is one label).  Must only
        commit live nodes, and each at most once; the engine raises
        :class:`~repro.local.simulator.SimulationError` on a non-integer
        or out-of-range handle, misaligned labels or a repeated commit.
        Returning ``((), ())`` means every live node continues.  A
        precomputed schedule streams through :class:`CommitSchedule`.
        """
        raise NotImplementedError

    def max_rounds_hint(self, n: int) -> int:
        """Upper bound on rounds; the simulator errors beyond this."""
        return 4 * n + 64


class CommitSchedule:
    """A precomputed commit schedule, streamed one round at a time.

    Node ``v`` commits ``labels[v]`` at round ``rounds[v]``.
    :meth:`due` returns round ``t``'s bucket in the ``decide_batch``
    return form, so an algorithm that knows its whole schedule up front
    (a replayed fast-forward, a centrally computed decomposition) emits
    each round with one slice instead of filtering the live set.  Rounds
    below 0 fall due at round 0, the engine's first round.
    """

    __slots__ = ("_rounds", "_nodes", "_labels")

    def __init__(self, rounds: Sequence[int], labels: Sequence) -> None:
        r = np.maximum(np.asarray(rounds, dtype=np.int64), 0)
        if r.ndim != 1 or len(r) != len(labels):
            raise ValueError("rounds and labels must be aligned sequences")
        order = np.argsort(r, kind="stable")
        order.flags.writeable = False
        self._rounds = r[order]
        self._nodes = order
        self._labels = [labels[v] for v in order.tolist()]

    def due(self, t: int) -> Tuple[np.ndarray, List]:
        """``(nodes, labels)`` committing at round ``t``: the nodes as an
        ascending read-only int64 array, their labels as a list."""
        lo = int(np.searchsorted(self._rounds, t, side="left"))
        hi = int(np.searchsorted(self._rounds, t, side="right"))
        return self._nodes[lo:hi], self._labels[lo:hi]
