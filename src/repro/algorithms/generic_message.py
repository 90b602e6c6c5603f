"""Faithful message-passing implementation of the generic phase algorithm.

Runs the exact protocol :func:`repro.algorithms.generic_phases.
run_generic_fast_forward` replays centrally — distributed level peeling,
per-phase path gathering with the paper's ``2*gamma_i`` charge,
E-propagation one hop per round, and (for 3½) an embedded Cole–Vishkin on
the surviving level-``k`` paths.  Tests assert the two executors produce
identical ``(T_v, output)`` maps.

Round schedule (shared with the fast-forward):

* transitions ``0..k-1``: peeling (level ``i`` fixed at transition
  ``i-1``; unassigned nodes become level ``k+1``);
* level-``(k+1)`` nodes commit ``E`` at round ``k+2``;
* phase ``i``: gathering starts at transition ``S_i - 1``; the output is
  fixed at transition ``S_i + 2*gamma_i - 1`` and committed at
  ``S_i + 2*gamma_i``;
* E-propagation: an alive node seeing a lower-level ``W/B/E`` neighbour
  fixes ``E`` immediately (one hop per round);
* phase ``k``: 2½ gathers the whole path (commit at ``S_k + ecc``);
  3½ runs Cole–Vishkin (commit at ``S_k + cv_total_rounds``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..lcl.hierarchical import B, COLORS_3, D, E, W
from ..local.algorithm import CONTINUE, CommitSchedule
from ..local.graph import Graph
from ..local.ids import id_space_size
from ..local.message import MessageAlgorithm, NodeInfo
from .symmetry_breaking import cv_iterations, cv_step
from .generic_phases import phase_schedule

__all__ = ["GenericPhaseColoring"]


class _State:
    __slots__ = (
        "vid", "handle", "neighbors", "degree",
        "level", "nbr_level", "out", "commit_at",
        "chains", "side_nbrs", "cv",
    )

    def __init__(self, info: NodeInfo) -> None:
        self.vid = info.vid
        self.handle = info.handle
        self.neighbors = info.neighbors
        self.degree = info.degree
        self.level: Optional[int] = None
        self.nbr_level: Dict[int, Optional[int]] = {}
        self.out = None
        self.commit_at: Optional[int] = None
        # phase gathering: per same-level alive neighbour handle ->
        # (segment of vids going away from that neighbour, closed flag)
        self.chains: Optional[Dict[int, Tuple[Tuple[int, ...], bool]]] = None
        self.side_nbrs: Optional[List[int]] = None
        self.cv: Optional[dict] = None


class GenericPhaseColoring(MessageAlgorithm):
    """Distributed generic phase algorithm for k-hierarchical Z-coloring."""

    def __init__(
        self,
        k: int,
        gammas: Sequence[int],
        variant: str = "2.5",
        id_exponent: int = 3,
    ) -> None:
        if variant not in ("2.5", "3.5"):
            raise ValueError("variant must be '2.5' or '3.5'")
        if len(gammas) != k - 1:
            raise ValueError("need exactly k-1 gamma values")
        self.k = k
        self.gammas = list(gammas)
        self.variant = variant
        self.id_exponent = id_exponent
        self.name = f"generic-phases-{variant}-message"
        self._starts = phase_schedule(k, gammas)
        self._cv_iters = 0
        self._replay: Optional[CommitSchedule] = None

    def setup(self, graph: Graph, n: int) -> None:
        self._cv_iters = cv_iterations(id_space_size(max(2, n), self.id_exponent))
        self._replay = None  # per-execution batched schedule

    # ------------------------------------------------------------------
    def init_state(self, info: NodeInfo, n: int) -> _State:
        return _State(info)

    def message(self, state: _State, t: int):
        # state.cv is mutated in place by transition(); snapshot it so the
        # broadcast reflects this round's state, not the receiver-side
        # mutations that happen later in the same simulator step.
        return {
            "h": state.handle,
            "vid": state.vid,
            "level": state.level,
            "out": state.out,
            "chains": state.chains,
            "cv": dict(state.cv) if state.cv is not None else None,
        }

    def decide(self, state: _State, t: int):
        if state.commit_at is not None and t >= state.commit_at:
            return state.out
        return CONTINUE

    def max_rounds_hint(self, n: int) -> int:
        return self._starts[-1] + 4 * n + self._cv_iters + 64

    def decide_batch(self, views, live, t: int):
        """Batched form: the whole-graph commit schedule is computed once
        and then streamed round by round from a
        :class:`~repro.local.algorithm.CommitSchedule`.  On forests the
        schedule comes from the centralized fast-forward (which replays
        exactly this state machine — the two executors are
        differentially tested), replacing per-node chain gathering for
        every node and round.  On graphs with cycle components the
        fast-forward's level-path walk is undefined, but the state
        machine itself is not — there the schedule is derived from one
        global run of the message dynamics, exactly what the batched
        engine executes for the message hooks alone, so the engines stay
        observationally identical on the algorithm's full input
        domain."""
        if self._replay is None:
            graph, ids = views.graph, views.ids
            if graph.is_forest():
                from .generic_phases import run_generic_fast_forward

                trace = run_generic_fast_forward(
                    graph, ids, self.k, self.gammas, self.variant,
                    id_exponent=self.id_exponent,
                )
                rounds, outs = trace.rounds, trace.outputs
            else:
                from ..local.message import run_message_dynamics

                rounds, outs = run_message_dynamics(
                    graph, self, list(ids), views.budget,
                    neighbor_lists=views.neighbor_lists(),
                )
            self._replay = CommitSchedule(rounds, outs)
        return self._replay.due(t)

    # ------------------------------------------------------------------
    def transition(self, state: _State, incoming: Sequence, t: int) -> _State:
        k = self.k
        by_handle = {msg["h"]: msg for msg in incoming}

        # --- peeling: level i fixed at transition i-1 ------------------
        if state.level is None:
            peeled = sum(1 for msg in incoming if msg["level"] is not None)
            if state.degree - peeled <= 2 and t <= k - 1:
                state.level = t + 1
            elif t == k - 1:
                state.level = k + 1
        for msg in incoming:
            if msg["level"] is not None:
                state.nbr_level[msg["h"]] = msg["level"]

        if state.out is not None:
            return state  # already fixed; keep relaying

        lv = state.level
        if lv is None:
            return state

        # --- level k+1: unconditional E (fixed at transition k+1 so the
        # output becomes visible exactly at its commit round k+2) --------
        if lv == k + 1:
            if state.commit_at is None and t >= k + 1:
                state.out = E
                state.commit_at = k + 2
            return state

        # --- E-propagation (always armed; triggers only in windows) ----
        if 2 <= lv <= k:
            for msg in incoming:
                nbl = state.nbr_level.get(msg["h"])
                if nbl is not None and 0 < nbl < lv and msg["out"] in (W, B, E):
                    state.out = E
                    state.commit_at = t + 1
                    return state

        # --- phase machinery for my own level --------------------------
        s_i = self._starts[lv - 1]
        if t < s_i - 1:
            return state

        if lv < k:
            self._phase_path(state, by_handle, t, s_i, self.gammas[lv - 1])
        elif self.variant == "2.5":
            self._phase_path(state, by_handle, t, s_i, None)
        else:
            self._phase_cv(state, by_handle, t, s_i)
        return state

    # ------------------------------------------------------------------
    def _alive_same_level(self, state: _State, by_handle) -> List[int]:
        out = []
        for h in state.neighbors:
            msg = by_handle.get(h)
            if (
                msg is not None
                and state.nbr_level.get(h) == state.level
                and msg["out"] is None
            ):
                out.append(h)
        return out

    def _phase_path(self, state: _State, by_handle, t: int, s_i: int,
                    gamma: Optional[int]) -> None:
        """Chain gathering and the coloring/D decision for a path phase.

        ``gamma=None`` means phase k of the 2.5 variant: gather the whole
        path and commit as soon as both sides are closed.
        """
        if state.chains is None:
            state.side_nbrs = self._alive_same_level(state, by_handle)
            assert len(state.side_nbrs) <= 2, "level path degree violation"
            state.chains = {}
        cap = gamma if gamma is not None else None

        new_chains: Dict[int, Tuple[Tuple[int, ...], bool]] = {}
        for h in state.side_nbrs:
            others = [o for o in state.side_nbrs if o != h]
            seg: Tuple[int, ...] = (state.vid,)
            closed = not others
            if others:
                o_msg = by_handle.get(others[0])
                o_chain = o_msg["chains"] if o_msg else None
                if o_chain and state.handle in o_chain:
                    ext, ext_closed = o_chain[state.handle]
                    seg = (state.vid,) + ext
                    closed = ext_closed
            if cap is not None and len(seg) > cap:
                seg = seg[:cap]
                closed = False
            new_chains[h] = (seg, closed)
        state.chains = new_chains

        # assemble my current view of the path
        segs = []
        for h in state.side_nbrs:
            msg = by_handle.get(h)
            ch = msg["chains"] if msg else None
            if ch and state.handle in ch:
                segs.append(ch[state.handle])
            else:
                segs.append(((), False))
        while len(segs) < 2:
            segs.append(((), True))
        (left, left_closed), (right, right_closed) = segs[0], segs[1]
        vids = tuple(reversed(left)) + (state.vid,) + right
        complete = left_closed and right_closed

        if gamma is not None:
            if t == s_i + 2 * gamma - 1:
                if complete and len(vids) < gamma:
                    state.out = _canonical_color(vids, len(left))
                else:
                    state.out = D
                state.commit_at = t + 1
        else:
            if complete and state.commit_at is None:
                state.out = _canonical_color(vids, len(left))
                state.commit_at = t + 1

    def _phase_cv(self, state: _State, by_handle, t: int, s_k: int) -> None:
        """Embedded Cole–Vishkin on the surviving level-k path (3.5)."""
        if state.cv is None:
            nbrs = self._alive_same_level(state, by_handle)
            larger = sorted(
                (h for h in nbrs if by_handle[h]["vid"] > state.vid),
                key=lambda h: by_handle[h]["vid"],
            )
            state.cv = {
                "l1": state.vid, "l2": state.vid,
                "p1": larger[0] if len(larger) >= 1 else None,
                "p2": larger[1] if len(larger) >= 2 else None,
                "nbrs": nbrs,
                "comp": None,
            }
            return  # initialized at transition s_k - 1; labels go out at s_k

        cv = state.cv
        j = t - s_k
        iters = self._cv_iters
        if j < iters:
            pl1 = by_handle[cv["p1"]]["cv"]["l1"] if cv["p1"] is not None else None
            pl2 = by_handle[cv["p2"]]["cv"]["l2"] if cv["p2"] is not None else None
            cv["l1"] = cv_step(cv["l1"], pl1)
            cv["l2"] = cv_step(cv["l2"], pl2)
        elif j < iters + 3:
            color = 5 - (j - iters)
            cv["l1"] = self._shed_forest(state, by_handle, 1, color)
            cv["l2"] = self._shed_forest(state, by_handle, 2, color)
            if j == iters + 2:
                cv["comp"] = 3 * cv["l1"] + cv["l2"]
        elif j < iters + 9:
            color = 8 - (j - iters - 3)
            if cv["comp"] == color:
                used = {
                    by_handle[h]["cv"]["comp"]
                    for h in cv["nbrs"]
                    if by_handle.get(h) and by_handle[h]["cv"]
                }
                cv["comp"] = next(c for c in (0, 1, 2) if c not in used)
            if j == iters + 8:
                state.out = COLORS_3[cv["comp"]]
                state.commit_at = t + 1

    def _shed_forest(self, state: _State, by_handle, forest: int, color: int) -> int:
        cv = state.cv
        key = "l1" if forest == 1 else "l2"
        label = cv[key]
        if label != color:
            return label
        used = set()
        parent = cv["p1"] if forest == 1 else cv["p2"]
        if parent is not None:
            used.add(by_handle[parent]["cv"][key])
        pkey = "p1" if forest == 1 else "p2"
        for h in cv["nbrs"]:
            msg = by_handle.get(h)
            if msg and msg["cv"] and msg["cv"][pkey] == state.handle:
                used.add(msg["cv"][key])
        return next(c for c in (0, 1, 2) if c not in used)


def _canonical_color(vids: Sequence[int], my_pos: int) -> str:
    """W/B alternation anchored at the smaller-ID endpoint (same rule as
    the fast-forward's ``_canonical_2coloring``)."""
    if vids[0] <= vids[-1]:
        first = 0
    else:
        first = (len(vids) - 1) % 2
    return W if (my_pos - first) % 2 == 0 else B
