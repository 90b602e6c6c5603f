"""Unified CSR verification kernel for every LCL checker.

An LCL constraint is a finite table over bounded-radius neighbourhoods
(Naor-Stockmeyer), so *checking* a labeling never needs the per-node
Python object traversals the legacy ``check_node`` methods perform: every
checker in :mod:`repro.lcl` lowers to

1. an **interning** step — outputs (and inputs) are mapped to small
   integer codes, one equality-based dict lookup per node, which doubles
   as the alphabet-membership check;
2. a per-graph **compile** step — anything that depends only on the
   instance (levels from :func:`repro.lcl.levels.compute_levels`, the
   active/weight partition, CSR edge ids) is computed once and cached;
3. a single **flat-array pass** over the graph's CSR ``indptr`` /
   ``indices`` arrays comparing integer codes against precomputed
   constraint tables.

:class:`CompiledChecker` is the base of that pipeline and the canonical
implementation of the :class:`Verifier` protocol::

    verify(graph, outputs, early_exit=False)        -> LCLResult
    verify_batch(graph, outputs_list, early_exit=False) -> [LCLResult]

``verify_batch`` amortizes step 2 across the many labelings one topology
produces (exactly the shape ``LocalSimulator.run_batch`` emits: one graph,
many ID samples); ``early_exit`` stops at the first violation instead of
materializing O(n) :class:`~repro.lcl.problem.Violation` objects on badly
invalid labelings — the sweep hot path uses both.

Every compiled scan mirrors its legacy checker *exactly*: same staged
short-circuits (alphabet violations suppress constraint checks), same
rule strings, same violating node sets.  The legacy per-node paths remain
available as ``verify_reference`` — the oracle the differential tests in
``tests/test_checker_kernel.py`` compare against.  Use
:func:`compile_checker` to lower a problem explicitly, or just call
``problem.verify`` — the ported problems route through the kernel and
fall back to the reference path for unknown subclasses.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

try:  # Protocol is typing-only; keep a runtime fallback for exotic setups
    from typing import Protocol
except ImportError:  # pragma: no cover - python < 3.8
    Protocol = object  # type: ignore[assignment]

import numpy as np

from ..local.graph import Graph
from .problem import LCLResult, Violation

__all__ = [
    "Verifier",
    "CompiledChecker",
    "compile_checker",
    "CompiledHierarchicalColoring",
    "CompiledDFree",
    "CompiledWeightedColoring",
    "CompiledHierarchicalLabeling",
    "CompiledWeightAugmented25",
    "CompiledProperColoring",
    "CompiledBlackWhite",
]


class Verifier(Protocol):
    """What the sweep layer (and anything else that checks labelings)
    programs against.

    ``verify`` checks one labeling; ``verify_batch`` checks many labelings
    of the *same* graph, sharing the per-graph compile work (levels,
    interners, edge tables) across the batch.  With ``early_exit`` the
    returned :class:`LCLResult` carries at most one violation and the
    scan stops as soon as the verdict is known to be invalid; without it
    the violation list is complete.  Both :class:`CompiledChecker` and the
    ported :class:`~repro.lcl.problem.LCLProblem` classes satisfy this.
    """

    def verify(
        self, graph: Graph, outputs: Sequence, early_exit: bool = False
    ) -> LCLResult:
        ...

    def verify_batch(
        self,
        graph: Graph,
        outputs_list: Sequence[Sequence],
        early_exit: bool = False,
    ) -> List[LCLResult]:
        ...


class CompiledChecker:
    """Base class: per-graph compile cache + the verify entry points.

    Subclasses implement ``_compile_graph(graph) -> instance-data`` and
    ``_scan(graph, inst, outputs, early_exit) -> [Violation]``.  The
    compile cache keys on graph *identity* (graphs are immutable), keeping
    only the most recent graph — the access pattern everywhere in this
    codebase is "many labelings of one graph, then the next graph".
    """

    def __init__(self, problem) -> None:
        self.problem = problem
        self._cache: Optional[Tuple[Graph, object]] = None

    # -- compile -------------------------------------------------------
    def _instance(self, graph: Graph):
        cached = self._cache
        if cached is not None and cached[0] is graph:
            return cached[1]
        inst = self._compile_graph(graph)
        self._cache = (graph, inst)
        return inst

    def _compile_graph(self, graph: Graph):
        raise NotImplementedError

    def _scan(self, graph, inst, outputs, early_exit) -> List[Violation]:
        raise NotImplementedError

    # -- entry points --------------------------------------------------
    def verify(
        self, graph: Graph, outputs: Sequence, early_exit: bool = False
    ) -> LCLResult:
        if len(outputs) != graph.n:
            raise ValueError("outputs length must equal graph.n")
        return LCLResult(
            self._scan(graph, self._instance(graph), outputs, early_exit)
        )

    def verify_batch(
        self,
        graph: Graph,
        outputs_list: Sequence[Sequence],
        early_exit: bool = False,
    ) -> List[LCLResult]:
        inst = self._instance(graph)
        results = []
        for outputs in outputs_list:
            if len(outputs) != graph.n:
                raise ValueError("outputs length must equal graph.n")
            results.append(
                LCLResult(self._scan(graph, inst, outputs, early_exit))
            )
        return results


# ----------------------------------------------------------------------
# hierarchical 2.5 / 3.5 coloring
# ----------------------------------------------------------------------
# color codes: W/B/E contiguous so "colored" (W|B|E) tests are `code <= 2`
_W, _B, _E, _D, _R, _G, _Y = range(7)
_COLOR_LABELS = ("W", "B", "E", "D", "R", "G", "Y")
_COLOR_CODES = {label: code for code, label in enumerate(_COLOR_LABELS)}

# action-table bits: which work a (level, label) combination requires
_ACT_LOWER = 1   # E-iff: scan lower-level neighbours
_ACT_SAME = 2    # W/B (or level-k RGY in 3.5): scan same-level neighbours
_ACT_STATIC = 4  # emit precomputed level/label violations

# byte-translate table for the constraint-free fast path: every node of
# level >= 2 is scanned; level-1 nodes defer to the per-problem label mask
# (derived from the action table's level-1 row in _label_mask)
_LV_NEEDS_WORK = bytes(1 if x >= 2 else 0 for x in range(256))


def _label_mask(action) -> bytes:
    """Byte-translate table flagging labels with level-1 constraints."""
    return bytes(
        1 if (x < 7 and action[7 + x]) or x >= 7 else 0 for x in range(256)
    )


def _build_color_tables(k: int, three5: bool):
    """Lower the Definition 8/9 per-node constraints to flat tables.

    ``action[lv * 7 + lab]`` says what a node of level ``lv`` with label
    ``lab`` needs (bit mask of ``_ACT_*``); ``static[lv * 7 + lab]`` holds
    the neighbour-independent violations as prebuilt ``(rule, detail)``
    pairs.  Level 0 rows stay empty: in the weighted problems level 0
    marks nodes outside the active-restricted peeling, which this scan
    never visits.
    """
    color_limit = k - 1 if three5 else k
    size = (k + 2) * 7
    action = [0] * size
    static: List[Tuple] = [()] * size
    for lv in range(1, k + 2):
        for lab in range(7):
            label = _COLOR_LABELS[lab]
            sts = []
            if lv == 1 and lab == _E:
                sts.append(("level-1 node labeled E", ""))
            if lv == k + 1 and lab != _E:
                sts.append(("level-(k+1) node not labeled E", f"got {label}"))
            if lab <= _B and (lv > color_limit or lv > k):
                sts.append((f"{label} not allowed at level {lv}", ""))
            if lv == k:
                if three5:
                    if lab == _D or lab <= _B:
                        sts.append((f"level-k node labeled {label} (3.5)", ""))
                elif lab == _D:
                    sts.append(("level-k node labeled D", ""))
            if lab >= _R and (not three5 or lv != k):
                sts.append((f"label {label} not allowed at level {lv}", ""))
            act = 0
            if 2 <= lv <= k:
                act |= _ACT_LOWER
            if lab <= _B or (three5 and lv == k and lab >= _R):
                act |= _ACT_SAME
            if sts:
                act |= _ACT_STATIC
            action[lv * 7 + lab] = act
            static[lv * 7 + lab] = tuple(sts)
    return action, static


def _scan_colored_nodes(
    nodes,
    code,
    levels,
    action,
    static,
    indptr,
    indices,
    outputs,
    bad,
    early_exit,
):
    """The Definition 8/9 per-node constraints over interned codes.

    Shared by the pure hierarchical checker (``nodes`` = the nodes the
    fast-path mask flagged) and the weighted checkers (``nodes`` = active
    nodes, weight neighbours carry level 0 and are transparently skipped
    by the ``0 < level`` / ``level == lv`` filters, exactly as in the
    reference ``check_node_with_levels``).  Returns True when early_exit
    tripped.
    """
    append = bad.append
    for v in nodes:
        lab = code[v]
        lv = levels[v]
        act = action[lv * 7 + lab]
        if not act:
            continue
        if act & _ACT_STATIC:
            for rule, detail in static[lv * 7 + lab]:
                append(Violation(v, rule, detail))
        if act & (_ACT_LOWER | _ACT_SAME):
            has_colored_lower = False
            start, end = indptr[v], indptr[v + 1]
            if act & _ACT_SAME:
                is_wb = lab <= _B
                for i in range(start, end):
                    w = indices[i]
                    lw = levels[w]
                    if 0 < lw < lv:
                        if code[w] <= _E:
                            has_colored_lower = True
                    elif lw == lv:
                        cw = code[w]
                        if is_wb:
                            if cw == lab or cw == _D:
                                append(Violation(
                                    v, "same-level color conflict",
                                    f"{_COLOR_LABELS[lab]} next to "
                                    f"{outputs[w]} at level {lv}",
                                ))
                        elif cw == lab:
                            append(Violation(
                                v, "level-k 3-coloring conflict",
                                f"{_COLOR_LABELS[lab]} next to "
                                f"{_COLOR_LABELS[lab]}",
                            ))
            else:
                for i in range(start, end):
                    w = indices[i]
                    if 0 < levels[w] < lv and code[w] <= _E:
                        has_colored_lower = True
                        break
            if act & _ACT_LOWER and (lab == _E) != has_colored_lower:
                append(Violation(
                    v, "E-iff rule",
                    f"out={_COLOR_LABELS[lab]}, "
                    f"colored-lower-neighbor={has_colored_lower}",
                ))
        if early_exit and bad:
            return True
    return False


def _mask_positions(mask: bytes):
    """Positions of nonzero bytes, via C-speed ``bytes.find`` hops."""
    find = mask.find
    pos = find(1)
    while pos != -1:
        yield pos
        pos = find(1, pos + 1)


def _intern(codes: Dict, outputs) -> List[int]:
    """Outputs to label codes in one C pass; unknown labels become -1."""
    return list(map(codes.get, outputs, repeat(-1)))


def _make_gather(positions: Sequence[int]):
    """A compile-time gather: ``gather(code)`` returns ``code`` permuted
    to ``positions`` in one C call (itemgetter needs >= 2 positions; the
    tiny-graph fallback maps instead)."""
    if len(positions) >= 2:
        return itemgetter(*positions)
    return lambda code: tuple(code[i] for i in positions)


def _alphabet_violations(code, outputs, bad, early_exit) -> bool:
    """Collect ``alphabet`` violations for every -1 code; True if any."""
    if -1 not in code:
        return False
    v = -1
    while True:
        try:
            v = code.index(-1, v + 1)
        except ValueError:
            return True
        bad.append(Violation(v, "alphabet", f"output {outputs[v]!r}"))
        if early_exit:
            return True


class CompiledHierarchicalColoring(CompiledChecker):
    """Kernel lowering of :class:`repro.lcl.hierarchical.HierarchicalColoring`."""

    def __init__(self, problem) -> None:
        super().__init__(problem)
        self._codes = {
            label: _COLOR_CODES[label] for label in problem.sigma_out
        }
        self._tables = _build_color_tables(
            problem.k, problem.variant == "3.5"
        )
        self._lab_mask = _label_mask(self._tables[0])

    def _compile_graph(self, graph: Graph):
        from .levels import compute_levels

        levels = compute_levels(graph, self.problem.k)
        indptr, indices = graph.adjacency()
        # the fast-path level mask is per-graph; label mask is per-scan
        lv_mask = bytes(levels).translate(_LV_NEEDS_WORK)
        return levels, list(indptr), list(indices), lv_mask

    def _scan(self, graph, inst, outputs, early_exit):
        levels, indptr, indices, lv_mask = inst
        code = _intern(self._codes, outputs)
        bad: List[Violation] = []
        if _alphabet_violations(code, outputs, bad, early_exit):
            return bad
        n = graph.n
        if n == 0:
            return bad
        # constraint-free fast path: skip every (level, label) combination
        # whose action-table row is empty — one big-int OR over the two
        # translated masks, then C-speed find() hops to the flagged nodes
        mask = (
            int.from_bytes(lv_mask, "big")
            | int.from_bytes(bytes(code).translate(self._lab_mask), "big")
        ).to_bytes(n, "big")
        action, static = self._tables
        _scan_colored_nodes(
            _mask_positions(mask), code, levels, action, static,
            indptr, indices, outputs, bad, early_exit,
        )
        return bad[:1] if early_exit else bad


# ----------------------------------------------------------------------
# the d-free weight problem
# ----------------------------------------------------------------------
class CompiledDFree(CompiledChecker):
    """Kernel lowering of :class:`repro.lcl.dfree.DFreeWeightProblem`.

    The neighbour tallies (Connect supporters, Decline counts) lower to
    ``bytes.count`` over a flat gather of the neighbour codes along the
    CSR ``indices`` array — both C-speed passes.
    """

    _OUT_CODES = {"Decline": 0, "Connect": 1, "Copy": 2}
    _IN_CODES = {"A": 0, "W": 1}

    def _compile_graph(self, graph: Graph):
        get = self._IN_CODES.get
        in_code = [get(graph.input_of(v), -1) for v in range(graph.n)]
        indptr, indices = graph.adjacency()
        return in_code, list(indptr)[1:], _make_gather(list(indices))

    def _scan(self, graph, inst, outputs, early_exit):
        in_code, ends, gather = inst
        code = _intern(self._OUT_CODES, outputs)
        bad: List[Violation] = []
        if _alphabet_violations(code, outputs, bad, early_exit):
            return bad
        # flat gather: the output code of every CSR neighbour slot
        flat = bytes(gather(code))
        count = flat.count
        d = self.problem.d
        append = bad.append
        s = 0
        for v, out in enumerate(code):
            e = ends[v]
            inp = in_code[v]
            if inp < 0:
                append(
                    Violation(v, "input alphabet", repr(graph.input_of(v)))
                )
            elif out == 1:  # Connect
                need = 1 if inp == 0 else 2
                connected = count(1, s, e)
                if connected < need:
                    append(Violation(
                        v, "P1: Connect support",
                        f"input {graph.input_of(v)}: {connected} < {need}",
                    ))
            elif out == 2:  # Copy
                declines = count(0, s, e)
                if declines > d:
                    append(Violation(
                        v, "P2: Copy with too many Declines",
                        f"{declines} > d={d}",
                    ))
            elif inp == 0:  # A-node outputting Decline
                append(
                    Violation(v, "P3: A-node must output Connect or Copy")
                )
            if early_exit and bad:
                return bad[:1]
            s = e
        return bad


# ----------------------------------------------------------------------
# weighted Pi^Z_{Delta,d,k}
# ----------------------------------------------------------------------
_P_DECLINE, _P_CONNECT, _P_COPY = range(3)


class CompiledWeightedColoring(CompiledChecker):
    """Kernel lowering of :class:`repro.lcl.weighted.WeightedColoring`.

    Encoding: active nodes intern to color codes (``kind`` -1); weight
    nodes carry ``kind`` in {Decline, Connect, Copy} and, for Copy, the
    secondary color code.
    """

    def __init__(self, problem) -> None:
        super().__init__(problem)
        self._color_codes = {
            label: _COLOR_CODES[label] for label in problem.base.sigma_out
        }
        self._tables = _build_color_tables(
            problem.k, problem.variant == "3.5"
        )

    def _compile_graph(self, graph: Graph):
        from .levels import compute_levels
        from .weighted import ACTIVE, WEIGHT

        n = graph.n
        # 1 = active, 0 = weight, -1 = bad input
        is_active = [-1] * n
        active_nodes = []
        for v in range(n):
            inp = graph.input_of(v)
            if inp == ACTIVE:
                is_active[v] = 1
                active_nodes.append(v)
            elif inp == WEIGHT:
                is_active[v] = 0
        levels = compute_levels(graph, self.problem.k, restrict=active_nodes)
        return is_active, active_nodes, levels

    def _scan(self, graph, inst, outputs, early_exit):
        from .weighted import CONNECT, COPY, DECLINE

        is_active, active_nodes, levels = inst
        n = graph.n
        bad: List[Violation] = []
        for v in range(n):
            if is_active[v] < 0:
                bad.append(
                    Violation(v, "input alphabet", repr(graph.input_of(v)))
                )
                if early_exit:
                    return bad
        if bad:
            return bad

        color_codes = self._color_codes
        # kind[v]: active -1; weight 0/1/2 (Decline/Connect/Copy)
        kind = [-1] * n
        # code[v]: active color code; Copy secondary color code; else -9
        code = [-9] * n
        for v in range(n):
            label = outputs[v]
            if is_active[v]:
                c = -1
                if not isinstance(label, tuple):
                    c = color_codes.get(label, -1)
                if c < 0:
                    bad.append(
                        Violation(v, "active output alphabet", repr(label))
                    )
                    if early_exit:
                        return bad
                code[v] = c
            else:
                ok = isinstance(label, tuple)
                if ok:
                    head = label[0]
                    if head == DECLINE:
                        ok = len(label) == 1
                        kind[v] = _P_DECLINE
                    elif head == CONNECT:
                        ok = len(label) == 1
                        kind[v] = _P_CONNECT
                    elif head == COPY:
                        ok = (
                            len(label) == 2
                            and color_codes.get(label[1], -1) >= 0
                        )
                        if ok:
                            kind[v] = _P_COPY
                            code[v] = color_codes[label[1]]
                    else:
                        ok = False
                if not ok:
                    kind[v] = -2
                    bad.append(
                        Violation(v, "weight output alphabet", repr(label))
                    )
                    if early_exit:
                        return bad
        if bad:
            return bad

        indptr, indices = graph.adjacency()
        action, static = self._tables
        d = self.problem.d
        # Property 1: active components satisfy k-hierarchical Z-coloring
        if _scan_colored_nodes(
            active_nodes, code, levels, action, static, indptr, indices,
            outputs, bad, early_exit,
        ):
            return bad[:1]
        for v in range(n):
            if is_active[v]:
                continue
            kv = kind[v]
            start, end = indptr[v], indptr[v + 1]
            active_nbrs = 0
            connect_support = 0
            decline_nbrs = 0
            for i in range(start, end):
                w = indices[i]
                if is_active[w]:
                    active_nbrs += 1
                    connect_support += 1
                elif kind[w] == _P_CONNECT:
                    connect_support += 1
                elif kind[w] == _P_DECLINE:
                    decline_nbrs += 1
            # Property 2
            if active_nbrs and kv == _P_DECLINE:
                bad.append(
                    Violation(v, "P2: weight node next to active declines")
                )
            # Property 3
            if kv == _P_CONNECT and connect_support < 2:
                bad.append(Violation(
                    v, "P3: Connect needs >= 2 active/Connect neighbors",
                    f"have {connect_support}",
                ))
            # Properties 4 and 5
            if kv == _P_COPY:
                if decline_nbrs > d:
                    bad.append(Violation(
                        v, "P4: Copy with too many Decline neighbors",
                        f"{decline_nbrs} > d={d}",
                    ))
                sec = code[v]
                sec_label = outputs[v][1]
                if active_nbrs:
                    matched = False
                    for i in range(start, end):
                        w = indices[i]
                        if is_active[w] and code[w] == sec:
                            matched = True
                            break
                    if not matched:
                        bad.append(Violation(
                            v, "P5: secondary output matches no active neighbor",
                            f"secondary={sec_label!r}",
                        ))
                for i in range(start, end):
                    w = indices[i]
                    if not is_active[w] and kind[w] == _P_COPY and code[w] != sec:
                        bad.append(Violation(
                            v, "P5: adjacent Copy nodes disagree",
                            f"{sec_label!r} vs {outputs[w][1]!r}",
                        ))
            if early_exit and bad:
                return bad[:1]
        return bad


# ----------------------------------------------------------------------
# k-hierarchical labeling (and its weight-augmented extension)
# ----------------------------------------------------------------------
def _scan_labeling_nodes(
    nodes,
    order,
    out,
    member,
    indptr,
    indices,
    labels_of,
    bad,
    early_exit,
):
    """Definition 63 rules 1-6 over interned label orders.

    ``order[v]`` is the label's position in ``R1 < C1 < ... < Rk`` (even =
    rake, odd = compress); ``out[v]`` is the orientation target or -1.
    ``member`` (a byte mask or None) restricts the instance to an induced
    subgraph, exactly like the reference ``check_labeling_rules``.
    Returns True when early_exit tripped.
    """
    for v in nodes:
        ov = out[v]
        start, end = indptr[v], indptr[v + 1]
        if ov != -1:
            found = False
            for i in range(start, end):
                w = indices[i]
                if w == ov and (member is None or member[w]):
                    found = True
                    break
            if not found:
                bad.append(Violation(
                    v, "orientation target is not a neighbour", f"out={ov}"
                ))
                if early_exit:
                    return True
                continue
        lab_o = order[v]
        rake = lab_o % 2 == 0
        same_compress = 0
        pointing: List[int] = []
        for i in range(start, end):
            w = indices[i]
            if member is not None and not member[w]:
                continue
            points_vw = ov == w
            points_wv = out[w] == v
            if rake:
                if not points_vw and not points_wv:
                    bad.append(Violation(
                        v, "rule1: unoriented edge at rake node",
                        f"edge ({v},{w})",
                    ))
                if points_wv:
                    pointing.append(w)
            if points_vw and points_wv:
                bad.append(Violation(v, "doubly oriented edge", f"({v},{w})"))
            if not rake:
                wo = order[w]
                if wo % 2:
                    if wo == lab_o:
                        same_compress += 1
                    else:
                        bad.append(Violation(
                            v, "rule5: adjacent distinct compress labels",
                            f"{labels_of(v)} vs {labels_of(w)}",
                        ))
        if not rake:
            # Rule 2: interior compress nodes have no out-edge
            if same_compress >= 2 and ov != -1:
                bad.append(
                    Violation(v, "rule2: interior compress node has out-edge")
                )
            # Rule 4: each compress label induces disjoint paths
            if same_compress > 2:
                bad.append(Violation(
                    v, "rule4: compress label not a path",
                    f"{same_compress} same-label neighbours",
                ))
        # Rule 3: orientation respects the label order
        if ov != -1 and order[ov] < lab_o:
            bad.append(Violation(
                v, "rule3: orientation decreases label",
                f"{labels_of(v)} -> {labels_of(ov)}",
            ))
        # Rule 6: at most one compress pointer at a rake node; if one
        # exists, all pointers carry strictly lower labels
        if rake and pointing:
            compress_pointing = sum(1 for w in pointing if order[w] % 2)
            if compress_pointing > 1:
                bad.append(Violation(v, "rule6: two compress pointers"))
            if compress_pointing:
                for w in pointing:
                    if order[w] >= lab_o:
                        bad.append(Violation(
                            v, "rule6: pointer label not strictly lower",
                            f"{labels_of(w)} -> {labels_of(v)}",
                        ))
        if early_exit and bad:
            return True
    return False


class CompiledHierarchicalLabeling(CompiledChecker):
    """Kernel lowering of :class:`repro.lcl.labeling.HierarchicalLabeling`."""

    def __init__(self, problem) -> None:
        super().__init__(problem)
        from .labeling import label_order

        self._orders = {
            label: label_order(label) for label in problem.sigma_out
        }

    def _compile_graph(self, graph: Graph):
        return None

    def _scan(self, graph, inst, outputs, early_exit):
        orders = self._orders
        n = graph.n
        order = [0] * n
        out = [-1] * n
        bad: List[Violation] = []
        for v in range(n):
            o = outputs[v]
            ok = isinstance(o, tuple) and len(o) == 2
            if ok:
                lab_o = orders.get(o[0], -1) if isinstance(o[0], str) else -1
                tgt = o[1]
                ok = lab_o >= 0 and (tgt is None or isinstance(tgt, int))
            if not ok:
                bad.append(Violation(v, "alphabet", f"output {o!r}"))
                if early_exit:
                    return bad
            else:
                order[v] = lab_o
                # out-of-range targets can never match a neighbour scan,
                # which reproduces the reference "not a neighbour" rule
                out[v] = tgt if (tgt is not None and 0 <= tgt < n) else (
                    -1 if tgt is None else n
                )
        if bad:
            return bad
        # widen the arrays by a sentinel slot so `order[out[v]]`/`out[w]`
        # stay in-bounds for the out-of-range marker n
        order.append(-1)
        out.append(-1)
        indptr, indices = graph.adjacency()
        _scan_labeling_nodes(
            range(n), order, out, None, indptr, indices,
            lambda v: outputs[v][0] if v < n else None, bad, early_exit,
        )
        return bad[:1] if early_exit else bad


class CompiledWeightAugmented25(CompiledChecker):
    """Kernel lowering of :class:`repro.lcl.labeling.WeightAugmented25`."""

    _SEC_DECLINE = 9  # secondary code for Decline (disjoint from colors)

    def __init__(self, problem) -> None:
        super().__init__(problem)
        from .labeling import label_order

        self._orders = {
            label: label_order(label)
            for label in problem.labeling.sigma_out
        }
        self._color_codes = {
            label: _COLOR_CODES[label] for label in problem.base.sigma_out
        }
        self._tables = _build_color_tables(problem.k, False)

    def _compile_graph(self, graph: Graph):
        from .levels import compute_levels
        from .weighted import ACTIVE, WEIGHT

        n = graph.n
        is_active = [-1] * n
        active_nodes = []
        weight_nodes = []
        member = bytearray(n)
        for v in range(n):
            inp = graph.input_of(v)
            if inp == ACTIVE:
                is_active[v] = 1
                active_nodes.append(v)
            elif inp == WEIGHT:
                is_active[v] = 0
                weight_nodes.append(v)
                member[v] = 1
        levels = compute_levels(graph, self.problem.k, restrict=active_nodes)
        return is_active, active_nodes, weight_nodes, member, levels

    def _scan(self, graph, inst, outputs, early_exit):
        from .labeling import SECONDARY_DECLINE

        is_active, active_nodes, weight_nodes, member, levels = inst
        n = graph.n
        bad: List[Violation] = []
        for v in range(n):
            if is_active[v] < 0:
                bad.append(Violation(v, "input alphabet"))
                if early_exit:
                    return bad
        if bad:
            return bad

        orders = self._orders
        color_codes = self._color_codes
        code = [-9] * n      # active color / weight secondary code
        order = [0] * (n + 1)
        out = [-1] * (n + 1)
        order[n] = -1
        for v in range(n):
            o = outputs[v]
            if is_active[v]:
                c = -1
                if not isinstance(o, tuple):
                    c = color_codes.get(o, -1)
                if c < 0:
                    bad.append(
                        Violation(v, "active output alphabet", repr(o))
                    )
                    if early_exit:
                        return bad
                code[v] = c
            else:
                ok = isinstance(o, tuple) and len(o) == 3
                if ok:
                    lab_o = orders.get(o[0], -1) if isinstance(o[0], str) else -1
                    tgt = o[1]
                    sec = o[2]
                    sec_c = (
                        self._SEC_DECLINE if sec == SECONDARY_DECLINE
                        else color_codes.get(sec, -1)
                        if not isinstance(sec, tuple) else -1
                    )
                    ok = (
                        lab_o >= 0
                        and (tgt is None or isinstance(tgt, int))
                        and sec_c >= 0
                    )
                if not ok:
                    bad.append(
                        Violation(v, "weight output alphabet", repr(o))
                    )
                    if early_exit:
                        return bad
                else:
                    order[v] = lab_o
                    code[v] = sec_c
                    # labeling orientation: weight targets only (rule-3
                    # edges toward active nodes are not labeling edges)
                    out[v] = tgt if (
                        tgt is not None and 0 <= tgt < n and member[tgt]
                    ) else -1
        if bad:
            return bad

        indptr, indices = graph.adjacency()
        action, static = self._tables

        # Item 1: active side solves 2.5-coloring
        if _scan_colored_nodes(
            active_nodes, code, levels, action, static, indptr, indices,
            outputs, bad, early_exit,
        ):
            return bad[:1]

        # Item 2: weight side solves the labeling on the weight subgraph
        if _scan_labeling_nodes(
            weight_nodes, order, out, member, indptr, indices,
            lambda v: outputs[v][0], bad, early_exit,
        ):
            return bad[:1]

        # Items 3-5: secondary outputs
        for v in weight_nodes:
            lab_o = order[v]
            raw_out = outputs[v][1]
            sec = code[v]
            start, end = indptr[v], indptr[v + 1]
            has_active = False
            out_is_active_nbr = False
            for i in range(start, end):
                w = indices[i]
                if is_active[w]:
                    has_active = True
                    if w == raw_out:
                        out_is_active_nbr = True
            if has_active:
                if not out_is_active_nbr:
                    bad.append(Violation(
                        v, "rule3: must point at an active neighbour",
                        f"out={raw_out}",
                    ))
                elif sec != code[raw_out] or sec == self._SEC_DECLINE:
                    bad.append(Violation(
                        v, "rule3: secondary differs from active output",
                        f"{outputs[v][2]!r} vs {outputs[raw_out]!r}",
                    ))
            elif lab_o % 2:  # compress away from active
                if sec != self._SEC_DECLINE:
                    bad.append(Violation(
                        v, "rule5: compress node away from active must Decline",
                        repr(outputs[v][2]),
                    ))
            elif out[v] != -1:  # rake pointing at a weight node
                if sec != code[out[v]]:
                    bad.append(Violation(
                        v, "rule4: secondary differs from pointed-to node",
                        f"{outputs[v][2]!r} vs {outputs[out[v]][2]!r}",
                    ))
            elif sec == self._SEC_DECLINE:  # rake sink
                bad.append(Violation(
                    v, "rule5: rake sink cannot originate Decline"
                ))
            if early_exit and bad:
                return bad[:1]
        return bad


# ----------------------------------------------------------------------
# proper c-coloring
# ----------------------------------------------------------------------
class CompiledProperColoring(CompiledChecker):
    """Kernel lowering of :class:`repro.lcl.proper.ProperColoring`.

    The whole constraint is one numpy gather-compare, for any palette:
    the compile step keeps the graph's zero-copy int64 CSR ``indices``
    and the owning node of every slot (``repeat(arange(n), degrees)``,
    also int64), and a scan interns the outputs as every checker does
    (the alphabet check), then flags the slots where
    ``codes[indices] == codes[owners]`` — exactly the monochromatic
    edge slots, reported in CSR slot order like the reference scan.
    """

    def __init__(self, problem) -> None:
        super().__init__(problem)
        self._codes = {label: label for label in problem.sigma_out}

    def _compile_graph(self, graph: Graph):
        from ..local.vec import csr_arrays

        indptr, indices = csr_arrays(graph)
        owners = np.repeat(np.arange(graph.n, dtype=np.int64),
                           np.diff(indptr))
        return indices, owners

    def _scan(self, graph, inst, outputs, early_exit):
        indices, owners = inst
        code = _intern(self._codes, outputs)
        bad: List[Violation] = []
        if _alphabet_violations(code, outputs, bad, early_exit):
            return bad
        codes = np.fromiter(code, dtype=np.int64, count=len(code))
        slots = np.flatnonzero(codes[indices] == codes[owners])
        if early_exit:
            slots = slots[:1]
        return [
            Violation(v, "proper: adjacent equal colors", f"({v},{w})")
            for v, w in zip(owners[slots].tolist(), indices[slots].tolist())
        ]


# ----------------------------------------------------------------------
# black-white LCLs (edge-labeled)
# ----------------------------------------------------------------------
class CompiledBlackWhite(CompiledChecker):
    """Kernel lowering of :class:`repro.lcl.blackwhite.BlackWhiteLCL`.

    An edge-labeled problem: the "outputs" of the Verifier protocol are a
    mapping ``frozenset({u, v}) -> output label``; node colors and edge
    inputs are part of the instance and supplied via keyword (defaulting
    to the distance-parity 2-coloring and the problem's single input
    label when its input alphabet is a singleton).  The compile step
    aligns a per-CSR-position edge-id array so each scan reads flat
    arrays; constraint predicates are evaluated through the problem's
    interning ``allows`` memo, so each distinct ``(color, pair-multiset)``
    key is judged once per problem instance.
    """

    def _compile_graph(self, graph: Graph):
        edge_ids: Dict[frozenset, int] = {}
        for u, v in graph.edges():
            edge_ids[frozenset((u, v))] = len(edge_ids)
        indptr, indices = graph.adjacency()
        # eid[i]: edge id of CSR slot i (the edge {u, indices[i]})
        eid = [0] * len(indices)
        for u in range(graph.n):
            for i in range(indptr[u], indptr[u + 1]):
                w = indices[i]
                eid[i] = edge_ids[frozenset((u, w))]
        return edge_ids, eid

    def _default_colors(self, graph: Graph) -> List[str]:
        from .blackwhite import two_color_tree

        return two_color_tree(graph)

    def _default_inputs(self, graph: Graph, edge_ids) -> Dict:
        sigma_in = self.problem.sigma_in
        if len(sigma_in) != 1:
            raise ValueError(
                "edge_inputs required: input alphabet is not a singleton"
            )
        fill = sigma_in[0]
        return {e: fill for e in edge_ids}

    def verify(
        self,
        graph: Graph,
        outputs,
        colors: Optional[Sequence[str]] = None,
        edge_inputs=None,
        early_exit: bool = False,
    ) -> LCLResult:
        inst = self._instance(graph)
        if colors is None:
            colors = self._default_colors(graph)
        if edge_inputs is None:
            edge_inputs = self._default_inputs(graph, inst[0])
        return LCLResult(
            self._scan_edges(graph, inst, colors, edge_inputs, outputs,
                             early_exit)
        )

    def verify_batch(
        self,
        graph: Graph,
        outputs_list,
        colors: Optional[Sequence[str]] = None,
        edge_inputs=None,
        early_exit: bool = False,
    ) -> List[LCLResult]:
        inst = self._instance(graph)
        if colors is None:
            colors = self._default_colors(graph)
        if edge_inputs is None:
            edge_inputs = self._default_inputs(graph, inst[0])
        return [
            LCLResult(self._scan_edges(graph, inst, colors, edge_inputs,
                                       outputs, early_exit))
            for outputs in outputs_list
        ]

    def _scan(self, graph, inst, outputs, early_exit):  # pragma: no cover
        raise NotImplementedError("use verify/verify_batch")

    def _scan_edges(self, graph, inst, colors, edge_inputs, edge_outputs,
                    early_exit):
        from .blackwhite import WHITE

        problem = self.problem
        edge_ids, eid = inst
        bad: List[Violation] = []
        for u, v in graph.edges():
            if colors[u] == colors[v]:
                bad.append(Violation(
                    u, "not properly 2-colored", f"edge ({u},{v})"
                ))
                if early_exit:
                    return bad
        if bad:
            return bad

        m = len(edge_ids)
        in_by_id = [None] * m
        out_by_id = [None] * m
        in_ok = bytearray(m)
        out_ok = bytearray(m)
        sigma_in = set(problem.sigma_in)
        sigma_out = set(problem.sigma_out)
        for e, i in edge_ids.items():
            lab_in = edge_inputs[e]
            lab_out = edge_outputs[e]
            in_by_id[i] = lab_in
            out_by_id[i] = lab_out
            if lab_in in sigma_in:
                in_ok[i] = 1
            if lab_out in sigma_out:
                out_ok[i] = 1

        indptr = graph.adjacency()[0]
        allows = problem.allows
        white = WHITE
        for v in range(graph.n):
            pairs = []
            for i in range(indptr[v], indptr[v + 1]):
                e = eid[i]
                if not in_ok[e]:
                    bad.append(
                        Violation(v, "input alphabet", repr(in_by_id[e]))
                    )
                if not out_ok[e]:
                    bad.append(
                        Violation(v, "output alphabet", repr(out_by_id[e]))
                    )
                pairs.append((in_by_id[e], out_by_id[e]))
            if not allows(colors[v], pairs):
                canon = problem.canonical_pairs(pairs)
                bad.append(
                    Violation(v, f"{colors[v]}-constraint", repr(canon))
                )
            if early_exit and bad:
                return bad[:1]
        return bad


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def _compilers() -> Dict[type, Callable]:
    from .blackwhite import BlackWhiteLCL
    from .dfree import DFreeWeightProblem
    from .hierarchical import Coloring25, Coloring35, HierarchicalColoring
    from .labeling import HierarchicalLabeling, WeightAugmented25
    from .proper import ProperColoring
    from .weighted import Weighted25, Weighted35, WeightedColoring

    return {
        HierarchicalColoring: CompiledHierarchicalColoring,
        Coloring25: CompiledHierarchicalColoring,
        Coloring35: CompiledHierarchicalColoring,
        DFreeWeightProblem: CompiledDFree,
        WeightedColoring: CompiledWeightedColoring,
        Weighted25: CompiledWeightedColoring,
        Weighted35: CompiledWeightedColoring,
        HierarchicalLabeling: CompiledHierarchicalLabeling,
        WeightAugmented25: CompiledWeightAugmented25,
        ProperColoring: CompiledProperColoring,
        BlackWhiteLCL: CompiledBlackWhite,
    }


_COMPILER_CACHE: Optional[Dict[type, Callable]] = None


def compile_checker(problem) -> Optional[CompiledChecker]:
    """Lower ``problem`` to its :class:`CompiledChecker`, or None.

    Dispatch is on the problem's *exact* type: an unknown subclass (which
    may override ``check_node`` semantics the kernel cannot see) safely
    falls back to the legacy reference path instead of silently verifying
    the parent problem's constraint.
    """
    global _COMPILER_CACHE
    if _COMPILER_CACHE is None:
        _COMPILER_CACHE = _compilers()
    compiler = _COMPILER_CACHE.get(type(problem))
    return None if compiler is None else compiler(problem)
