"""Problem-space census: Theorem 7 over *every* small black-white LCL.

The paper's headline decidability result (Theorem 7) is a per-problem
decision procedure; this module scales it into a landscape workload in
the spirit of Figures 1/2 and [BBK+23b]'s density results — classify an
**entire enumerated problem space** at once:

1. **Enumerate** every :class:`~repro.lcl.blackwhite.BlackWhiteLCL`
   with ``|Sigma_in| <= max_inputs``, ``|Sigma_out| <= max_labels`` and
   constraints given extensionally as the allowed multisets of
   ``(input, output)`` pairs of sizes ``1..delta`` (the degree bound of
   the tree universe the testing procedure explores) — **streamed** by
   the orderly enumeration of :func:`repro.gap.canonical.iter_space`,
   which yields exactly one representative per symmetry orbit (output
   and input label permutations, white/black swap) in sorted order with
   orbit sizes from orbit--stabilizer, never materializing the raw
   space.
2. **Decide** each canonical problem with
   :func:`~repro.gap.decider.decide_node_averaged_class`, in contiguous
   chunks fanned over a ``fork`` pool with the same task-order
   aggregation discipline as :class:`~repro.sweep.SweepRunner`: the
   JSON payload is **byte-identical at every worker count**.  With a
   result store, the store is both cache and checkpoint: verdicts it
   holds are reused, and each new one is written the moment it is
   decided, so a killed census resumes where it stopped.
3. **Cross-validate**: problems with a registered empirical witness (a
   :data:`repro.sweep.ALGORITHMS` entry solving the node-form problem on
   a witness family) are swept through the existing
   ``SweepRunner``/checker-kernel path, the node-averaged growth across
   sizes is classified as ``flat`` / ``intermediate`` / ``linear``, and
   the census gates on the verdict agreeing with the measured class
   (an ``O(1)`` verdict must coincide with flat growth).

Verdicts are mapped onto the Figure-2 landscape regions via
:func:`repro.analysis.landscape.regions_for_verdict`.  ``--atlas`` emits
the landscape-atlas payload instead: every canonical problem of the
bounded space mapped to its Figure-2 region — the paper's Figure 2,
computed rather than drawn — storable and servable through
``python -m repro.serve atlas``.

CLI
---
::

    python -m repro.gap.census --max-labels 2 --delta 2 --workers 4
    python -m repro.gap.census --max-labels 3 --delta 2 --atlas \
        --store cas --out atlas.json

Exits nonzero if any cross-validated verdict disagrees with its measured
growth class (or a witness sweep produced an invalid labeling).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..analysis.landscape import regions_for_verdict
from ..lcl.blackwhite import BLACK, WHITE, BlackWhiteLCL
from ..parallel import fork_map, stable_digest
from ..store import ResultStore, StoreKey, as_store, atomic_write_text
from .canonical import (
    Encoding,
    Multiset,
    ProblemSpec,
    canonical_encoding,
    enumerate_multisets,
    get_context,
    iter_space,
    legacy_canonical_encoding,
)
from .decider import decide_node_averaged_class
from .problems import (
    PROBLEMS,
    all_equal,
    edge_2coloring,
    edge_3coloring,
    free_labeling,
    within_bounds,
)

__all__ = [
    "ProblemSpec",
    "enumerate_multisets",
    "enumerate_space",
    "canonical_encoding",
    "legacy_canonical_encoding",
    "spec_to_problem",
    "spec_from_problem",
    "decide_encoding",
    "verdict_key",
    "atlas_key",
    "CrossCheck",
    "CROSS_CHECKS",
    "classify_growth",
    "VERDICT_GROWTH_AGREEMENT",
    "run_census",
    "census_json",
    "run_atlas",
    "atlas_json",
    "main",
]


def _decode(encoding: Encoding) -> ProblemSpec:
    n_in, n_out, delta, white, black = encoding
    return ProblemSpec(n_in, n_out, delta,
                       frozenset(white), frozenset(black))


def spec_name(encoding: Encoding) -> str:
    """Deterministic digest name for a canonical problem."""
    n_in, n_out, delta = encoding[0], encoding[1], encoding[2]
    return f"bw{n_in}x{n_out}d{delta}-{stable_digest(encoding, size=6)}"


def spec_to_problem(spec: ProblemSpec) -> BlackWhiteLCL:
    """Materialize the spec as a :class:`BlackWhiteLCL` whose constraints
    are membership in the allowed multiset sets (degree > ``delta`` or an
    empty neighbourhood is disallowed — the census universe is trees of
    maximum degree ``delta``)."""
    in_index = {i: i for i in range(spec.n_in)}
    out_index = {o: o for o in range(spec.n_out)}

    def predicate(allowed: FrozenSet[Multiset]):
        def check(pairs: Tuple) -> bool:
            try:
                ms = tuple(sorted(
                    (in_index[i], out_index[o]) for i, o in pairs
                ))
            except (KeyError, TypeError):
                return False  # off-alphabet label
            return ms in allowed
        return check

    return BlackWhiteLCL(
        spec_name(spec.encode()),
        tuple(range(spec.n_in)),
        tuple(range(spec.n_out)),
        predicate(spec.white),
        predicate(spec.black),
    )


def spec_from_problem(problem: BlackWhiteLCL, delta: int = 2) -> ProblemSpec:
    """Extract the extensional spec of any black-white LCL by probing its
    constraint predicates on every multiset of sizes ``1..delta`` —
    the bridge from the predicate-style registry problems
    (:mod:`repro.gap.problems`) into the census space."""
    n_in, n_out = len(problem.sigma_in), len(problem.sigma_out)
    allowed = {WHITE: set(), BLACK: set()}
    for ms in enumerate_multisets(n_in, n_out, delta):
        pairs = [(problem.sigma_in[i], problem.sigma_out[o]) for i, o in ms]
        for color in (WHITE, BLACK):
            if problem.allows(color, pairs):
                allowed[color].add(ms)
    return ProblemSpec(n_in, n_out, delta,
                       frozenset(allowed[WHITE]), frozenset(allowed[BLACK]))


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------
def space_size(max_labels: int, delta: int, max_inputs: int = 1) -> int:
    """Raw problem count before canonicalization."""
    total = 0
    for n_in in range(1, max_inputs + 1):
        for n_out in range(1, max_labels + 1):
            m = len(enumerate_multisets(n_in, n_out, delta))
            total += (1 << m) ** 2
    return total


def enumerate_space(
    max_labels: int, delta: int, max_inputs: int = 1,
) -> Tuple[List[Encoding], Dict[Encoding, int], int]:
    """Materialized view of the orderly enumeration
    (:func:`repro.gap.canonical.iter_space`) for callers that want the
    whole space at once.

    Returns ``(canonical encodings sorted, orbit sizes, raw count)``:
    each canonical encoding represents its isomorphism class, and
    ``orbit[enc]`` counts the raw problems that collapse onto it (via
    orbit--stabilizer — no raw spec is ever visited).  The census itself
    consumes the generator directly and never builds these structures.
    """
    encodings: List[Encoding] = []
    orbit: Dict[Encoding, int] = {}
    for enc, size in iter_space(max_labels, delta, max_inputs):
        encodings.append(enc)
        orbit[enc] = size
    return encodings, orbit, space_size(max_labels, delta, max_inputs)


# ----------------------------------------------------------------------
# deciding (the fanned-out worker) and the verdict store
# ----------------------------------------------------------------------
def decide_encoding(
    encoding: Encoding, ell: int = 2, max_functions: int = 4096,
):
    """Decide one canonical problem from its encoding: rebuild the
    problem and run the Theorem-7 procedure.  Shared by the census
    workers and :mod:`repro.serve` (``classify --build``)."""
    problem = spec_to_problem(_decode(encoding))
    return decide_node_averaged_class(
        problem, delta=encoding[2], ell=ell, max_functions=max_functions,
    )


def verdict_key(
    store: ResultStore, encoding: Encoding, ell: int, max_functions: int,
) -> StoreKey:
    """The content address of one census verdict — the canonical problem
    form plus every decider parameter the verdict depends on.  Shared
    with :mod:`repro.serve`, which must reconstruct exactly these keys
    to answer classification queries."""
    return store.key("census-verdict", encoding, ell, max_functions)


def _decode_verdict(payload: object) -> Optional[Tuple[str, str]]:
    """Validate a stored verdict payload; ``None`` (→ recompute) on any
    shape surprise."""
    if not isinstance(payload, dict):
        return None
    klass, detail = payload.get("klass"), payload.get("detail")
    if not isinstance(klass, str) or not isinstance(detail, str):
        return None
    return klass, detail


#: one census worker task: (encodings, their verdict keys, ell,
#: max_functions, store root, store salt); without a store every key,
#: the root and the salt are ``None``
_Chunk = Tuple[Tuple[Encoding, ...], Tuple[Optional[StoreKey], ...], int,
               int, Optional[str], Optional[str]]


def _decide_chunk(task: _Chunk) -> List[Tuple[str, str]]:
    """Decide a chunk of canonical problems, rebuilt from their
    encodings inside the worker (only tuples cross the pool boundary).
    With a store root, each verdict is written through the store **as
    soon as it is decided**, under the key the store lookup in
    :func:`_decide_space` already computed — the checkpoint that makes
    a killed census resumable.  Each worker opens its own
    :class:`ResultStore` handle; concurrent writes are safe because
    every write is atomic and no encoding occurs in two chunks, so no
    two workers share a key."""
    encodings, keys, ell, max_functions, root, salt = task
    store = None if root is None else ResultStore(root, salt=salt)
    out: List[Tuple[str, str]] = []
    for enc, key in zip(encodings, keys):
        verdict = decide_encoding(enc, ell, max_functions)
        if store is not None:
            store.put(key, verdict.to_payload())
        out.append((verdict.klass, verdict.detail))
    return out


def _chunk_spec_label(task: _Chunk) -> str:
    encodings = task[0]
    return (f"census chunk of {len(encodings)} problem(s) "
            f"starting {spec_name(encodings[0])}")


# ----------------------------------------------------------------------
# empirical cross-validation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrossCheck:
    """Pairs a census problem with a registered sweep algorithm solving
    its node-form equivalent on a witness family.  The node-averaged
    growth of the algorithm across ``sizes`` is the empirical anchor the
    Theorem-7 verdict must agree with."""

    name: str
    problem: Callable[[], BlackWhiteLCL]
    algorithm: str
    family: str = "path"
    sizes: Tuple[int, ...] = (64, 512)


def _register_census_algorithms() -> None:
    """Register the O(1) empirical witness used by the cross-checks."""
    from ..local.metrics import ExecutionTrace
    from ..sweep import ALGORITHMS, AlgorithmSpec, register_algorithm

    if "constant_labeling_ff" in ALGORITHMS:
        return

    def constant_ff(graph, ids):
        return ExecutionTrace(rounds=[0] * graph.n, outputs=[0] * graph.n,
                              algorithm="constant-labeling-ff")

    register_algorithm(AlgorithmSpec(
        "constant_labeling_ff", fast_forward=constant_ff,
        description="radius-0 constant labeling — the O(1) census witness",
    ))


#: the built-in cross-checks; ``edge-3coloring`` only enters a census
#: whose bounds cover three output labels
CROSS_CHECKS: Tuple[CrossCheck, ...] = (
    CrossCheck("free-labeling", free_labeling, "constant_labeling_ff"),
    CrossCheck("all-equal", all_equal, "constant_labeling_ff"),
    CrossCheck("edge-2coloring", edge_2coloring, "two_coloring"),
    CrossCheck("edge-3coloring", edge_3coloring, "cole_vishkin"),
)

#: which measured growth classes each Theorem-7 verdict tolerates: O(1)
#: demands flat curves; the logstar regime is indistinguishable from flat
#: at feasible sizes but must not look linear; no-good-function problems
#: (polynomial regime or worse) must visibly grow
VERDICT_GROWTH_AGREEMENT: Dict[str, Tuple[str, ...]] = {
    "O(1)": ("flat",),
    "logstar-regime": ("flat", "intermediate"),
    "no-good-function": ("intermediate", "linear"),
}


def classify_growth(points: Sequence[Tuple[int, float]]) -> str:
    """``flat`` / ``intermediate`` / ``linear`` from (n, node-averaged)
    measurements at increasing sizes."""
    if len(points) < 2:
        raise ValueError("need measurements at >= 2 sizes")
    (n0, a0), (n1, a1) = points[0], points[-1]
    if n1 <= n0:
        raise ValueError("sizes must increase")
    ratio = a1 / max(a0, 1.0)
    if ratio <= 2.0:
        return "flat"
    if ratio >= (n1 / n0) / 2.0:
        return "linear"
    return "intermediate"


def _cross_validate(
    checks: Sequence[CrossCheck],
    verdicts: Dict[Encoding, str],
    delta: int,
    workers: int,
) -> List[Dict]:
    """Run each applicable check's witness sweep (validity-checked
    through the compiled kernel) and compare growth vs. verdict."""
    from ..sweep import SweepRunner

    _register_census_algorithms()
    results: List[Dict] = []
    for check in checks:
        problem = check.problem()
        enc = canonical_encoding(spec_from_problem(problem, delta))
        klass = verdicts.get(enc)
        if klass is None:
            continue  # outside the enumerated bounds
        payload = SweepRunner(
            workers=workers, samples=1, instances=1, check=True,
        ).run([check.family], list(check.sizes), [check.algorithm], seed=0)
        points = [
            (cell["n"], cell["node_averaged"]["max"])
            for cell in payload["cells"]
        ]
        violations = sum(
            cell["validity"]["violations"]
            for cell in payload["cells"]
            if cell["validity"] is not None
        )
        growth = classify_growth(points)
        results.append({
            "problem": check.name,
            "key": spec_name(enc),
            "verdict": klass,
            "algorithm": check.algorithm,
            "family": check.family,
            "points": [{"n": n, "node_averaged": a} for n, a in points],
            "growth": growth,
            "violations": violations,
            "agrees": (
                growth in VERDICT_GROWTH_AGREEMENT[klass]
                and violations == 0
            ),
        })
    return results


# ----------------------------------------------------------------------
# progress reporting
# ----------------------------------------------------------------------
class _ProgressReporter:
    """The ``--progress`` line: periodic
    ``census progress: enumerated=... canonical=... decided=.../...
    store-hits=... elapsed=...s`` on **stderr**.  Observability only —
    nothing it touches reaches the JSON payload or the store, so the
    byte-identity contracts are unaffected whether progress is on or
    off."""

    def __init__(self, enabled: bool, interval: float = 2.0) -> None:
        self.enabled = enabled
        self.interval = interval
        self.enumerated = 0
        self.kept = 0
        self.decided = 0
        self.pending = 0
        self.store_hits = 0
        if enabled:
            # lint: allow(DET003) progress timestamps feed stderr only, never a payload or the store
            self._start = self._last = time.monotonic()

    def emit(self, force: bool = False) -> None:
        if not self.enabled:
            return
        # lint: allow(DET003) stderr-only progress clock
        now = time.monotonic()
        if not force and now - self._last < self.interval:
            return
        self._last = now
        print(
            f"census progress: enumerated={self.enumerated} "
            f"canonical={self.kept} decided={self.decided}/{self.pending} "
            f"store-hits={self.store_hits} elapsed={now - self._start:.1f}s",
            file=sys.stderr,
        )

    def on_raw(self, raw: int) -> None:
        """Streaming-enumeration tick: raw specs walked so far."""
        self.enumerated = raw
        self.emit()

    def on_decided(self, count: int) -> None:
        """Decide-phase tick: ``count`` problems, capped at ``pending``."""
        self.decided = min(count, self.pending)
        self.emit()


# ----------------------------------------------------------------------
# the census
# ----------------------------------------------------------------------
#: the most problems one worker task decides, so progress ticks and
#: checkpoints stay fine-grained; chunking never reaches the payload
_MAX_CHUNK = 256


def _decide_space(
    max_labels: int,
    delta: int,
    max_inputs: int,
    ell: int,
    max_functions: int,
    workers: int,
    max_problems: Optional[int],
    store: Optional[ResultStore],
    stats_out: Optional[Dict[str, int]],
    reporter: _ProgressReporter,
) -> Tuple[List[Encoding], Dict[Encoding, int], int, bool,
           Dict[Encoding, Tuple[str, str]]]:
    """The shared enumerate→look up→decide pipeline behind
    :func:`run_census` and :func:`run_atlas`.

    Streams the orderly enumeration (stopping after ``max_problems``
    canonical forms, the sorted prefix), reuses every verdict the store
    (if any) holds, and fans the rest over ``fork_map`` in contiguous
    chunks, four per worker as ``fork_map`` chunks its own tasks.
    Returns ``(canonical encodings, orbit sizes, raw count, truncated,
    verdict map)``.
    """
    if max_labels < 1 or max_inputs < 1:
        raise ValueError("max_labels and max_inputs must be >= 1")
    if delta < 2:
        raise ValueError("delta must be >= 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    encodings: List[Encoding] = []
    orbit: Dict[Encoding, int] = {}
    truncated = False
    stream = iter_space(max_labels, delta, max_inputs,
                        tick=reporter.on_raw if reporter.enabled else None)
    for enc, size in stream:
        if max_problems is not None and len(encodings) >= max_problems:
            truncated = True
            stream.close()
            break
        encodings.append(enc)
        orbit[enc] = size
        reporter.kept = len(encodings)
    raw = space_size(max_labels, delta, max_inputs)
    reporter.enumerated = raw
    reporter.emit(force=True)

    decided_map: Dict[Encoding, Tuple[str, str]] = {}
    keys: Dict[Encoding, StoreKey] = {}
    if store is not None:
        for enc in encodings:
            key = keys[enc] = verdict_key(store, enc, ell, max_functions)
            verdict = _decode_verdict(store.get(key))
            if verdict is not None:
                decided_map[enc] = verdict
    pending = [enc for enc in encodings if enc not in decided_map]
    if stats_out is not None:
        stats_out["reused"] = len(encodings) - len(pending)
        stats_out["computed"] = len(pending)
    reporter.store_hits = len(encodings) - len(pending)
    reporter.pending = len(pending)

    step = max(1, min(_MAX_CHUNK, math.ceil(len(pending) / (4 * workers))))
    root, salt = (None, None) if store is None else (store.root, store.salt)
    chunks = [(tuple(pending[i:i + step]),
               tuple(keys.get(enc) for enc in pending[i:i + step]),
               ell, max_functions, root, salt)
              for i in range(0, len(pending), step)]
    results = fork_map(_decide_chunk, chunks, workers,
                       label=_chunk_spec_label,
                       on_result=lambda done: reporter.on_decided(done * step))
    for chunk, verdicts in zip(chunks, results):
        decided_map.update(zip(chunk[0], verdicts))
    reporter.decided = len(pending)
    reporter.emit(force=True)
    return encodings, orbit, raw, truncated, decided_map


def run_census(
    max_labels: int = 2,
    delta: int = 2,
    max_inputs: int = 1,
    ell: int = 2,
    max_functions: int = 4096,
    workers: int = 1,
    max_problems: Optional[int] = None,
    cross_validate: bool = True,
    store: object = None,
    stats_out: Optional[Dict[str, int]] = None,
    progress: bool = False,
) -> Dict:
    """Enumerate, canonicalize, decide and cross-validate the space.

    Returns a JSON-serializable payload that is byte-identical for every
    ``workers`` value (see :func:`census_json`).  ``max_problems``
    deterministically truncates the canonical list (recorded in the
    spec) for smoke runs over spaces that would otherwise be too big —
    the truncation is a prefix of the sorted canonical stream, so a
    truncated run's checkpoints are exactly the full run's first entries.

    ``store`` (a :class:`repro.store.ResultStore`, a path, or ``None``)
    is both cache and checkpoint: verdicts it already holds are reused,
    and every other verdict is written to it the moment it is decided,
    so a killed census continues from its checkpoints instead of
    restarting.  The payload is byte-identical with the store absent,
    cold or warm; reuse counts go into ``stats_out`` (``{"reused": ...,
    "computed": ...}``), never into the payload.  ``progress`` prints a
    periodic stderr status line and is equally payload-invisible.
    """
    reporter = _ProgressReporter(progress)
    encodings, orbit, raw, truncated, decided_map = _decide_space(
        max_labels, delta, max_inputs, ell, max_functions, workers,
        max_problems, as_store(store), stats_out, reporter,
    )

    verdicts: Dict[Encoding, str] = {}
    problems: List[Dict] = []
    counts: Dict[str, int] = {}
    for enc in encodings:
        klass, detail = decided_map[enc]
        verdicts[enc] = klass
        counts[klass] = counts.get(klass, 0) + 1
        problems.append({
            "key": spec_name(enc),
            "inputs": enc[0],
            "outputs": enc[1],
            "allowed_white": len(enc[3]),
            "allowed_black": len(enc[4]),
            "orbit": orbit[enc],
            "verdict": klass,
            "detail": detail,
        })

    cross = (
        _cross_validate(CROSS_CHECKS, verdicts, delta, workers)
        if cross_validate else []
    )

    return {
        "spec": {
            "max_labels": max_labels,
            "max_inputs": max_inputs,
            "delta": delta,
            "ell": ell,
            "max_functions": max_functions,
            "raw_problems": raw,
            "canonical_problems": len(encodings),
            "max_problems": max_problems,
            "truncated": truncated,
            "cross_validate": cross_validate,
            # deliberately no worker count: the payload must be
            # byte-identical for any parallelism level
        },
        "problems": problems,
        "summary": {
            "verdicts": counts,
            "regions": {
                klass: [
                    {"kind": r.kind, "low": r.low, "high": r.high,
                     "source": r.source}
                    for r in regions_for_verdict(klass)
                ]
                for klass in sorted(counts)
            },
        },
        "cross_validation": cross,
    }


def census_json(**kwargs) -> str:
    """The census payload as canonical JSON (sorted keys, 2-space indent,
    trailing newline) — the byte-comparable artifact."""
    return json.dumps(run_census(**kwargs), sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------------
# the landscape atlas
# ----------------------------------------------------------------------
def atlas_key(
    store: ResultStore,
    max_labels: int,
    max_inputs: int,
    delta: int,
    ell: int,
    max_functions: int,
) -> StoreKey:
    """The content address of one published landscape atlas — the
    enumeration bounds plus every decider parameter the verdicts depend
    on.  Shared with :mod:`repro.serve` (``atlas``), which reconstructs
    exactly this key to answer atlas queries.  Only **complete** atlases
    are stored under it (a truncated smoke atlas would shadow the real
    one)."""
    return store.key(
        "census-atlas", max_labels, max_inputs, delta, ell, max_functions,
    )


def run_atlas(
    max_labels: int = 2,
    delta: int = 2,
    max_inputs: int = 1,
    ell: int = 2,
    max_functions: int = 4096,
    workers: int = 1,
    max_problems: Optional[int] = None,
    store: object = None,
    stats_out: Optional[Dict[str, int]] = None,
    progress: bool = False,
) -> Dict:
    """The landscape atlas: every canonical black-white LCL of the
    bounded space mapped to its Figure-2 region — the paper's Figure 2,
    computed rather than drawn.

    Shares the full enumerate→decide pipeline (and therefore the store
    reuse and checkpoints, truncation and byte-identity contracts) with
    :func:`run_census`, but emits the publishable artifact: per problem
    the exact constraint sets as bit masks over the tuple-lex-ranked
    multiset list (``white_mask``/``black_mask`` — the compact lossless
    form), the orbit size, the verdict, and the verdict→Figure-2-region
    map; plus *landmarks* locating the named registry problems
    (:data:`repro.gap.problems.PROBLEMS`) inside the atlas.  When a
    ``store`` is given and the atlas is complete (not truncated), the
    payload is also published under :func:`atlas_key` for ``python -m
    repro.serve atlas``.
    """
    store = as_store(store)
    reporter = _ProgressReporter(progress)
    encodings, orbit, raw, truncated, decided_map = _decide_space(
        max_labels, delta, max_inputs, ell, max_functions, workers,
        max_problems, store, stats_out, reporter,
    )

    problems: Dict[str, Dict] = {}
    counts: Dict[str, int] = {}
    raw_counts: Dict[str, int] = {}
    for enc in encodings:
        klass, _detail = decided_map[enc]
        counts[klass] = counts.get(klass, 0) + 1
        raw_counts[klass] = raw_counts.get(klass, 0) + orbit[enc]
        ctx = get_context(enc[0], enc[1], enc[2])
        key = spec_name(enc)
        if key in problems:  # pragma: no cover - 48-bit digest collision
            raise RuntimeError(f"atlas key collision: {key}")
        problems[key] = {
            "inputs": enc[0],
            "outputs": enc[1],
            "white_mask": ctx.mask_from_multisets(enc[3]),
            "black_mask": ctx.mask_from_multisets(enc[4]),
            "orbit": orbit[enc],
            "verdict": klass,
        }

    landmarks: Dict[str, Dict] = {}
    for name, factory in sorted(PROBLEMS.items()):
        problem = factory()
        if not within_bounds(problem, max_labels, max_inputs):
            continue  # outside the atlas bounds
        enc = canonical_encoding(spec_from_problem(problem, delta))
        key = spec_name(enc)
        if key not in problems:
            continue  # truncated smoke atlas that stopped before it
        landmarks[name] = {
            "key": key,
            "verdict": problems[key]["verdict"],
        }

    payload = {
        "atlas": {
            "max_labels": max_labels,
            "max_inputs": max_inputs,
            "delta": delta,
            "ell": ell,
            "max_functions": max_functions,
            "raw_problems": raw,
            "canonical_problems": len(encodings),
            # a budget that did not bite is normalized away: the stored
            # payload must be a pure function of the atlas key, which
            # does not (and must not) include the budget
            "max_problems": max_problems if truncated else None,
            "truncated": truncated,
            # deliberately no worker count: the payload must be
            # byte-identical for any parallelism level
        },
        "regions": {
            klass: {
                "problems": counts[klass],
                "raw_problems": raw_counts[klass],
                "figure2": [
                    {"kind": r.kind, "low": r.low, "high": r.high,
                     "source": r.source}
                    for r in regions_for_verdict(klass)
                ],
            }
            for klass in sorted(counts)
        },
        "landmarks": landmarks,
        "problems": problems,
    }
    if store is not None and not truncated:
        # lint: allow(STORE002) workers/progress/stats plumbing cannot reach payload bytes (CI byte-compares workers 1 vs 4), the max_problems budget is normalized away above, and truncated atlases are never stored
        store.put(
            atlas_key(store, max_labels, max_inputs, delta, ell,
                      max_functions),
            payload,
        )
    return payload


def atlas_json(**kwargs) -> str:
    """The atlas payload as canonical JSON (sorted keys, 2-space indent,
    trailing newline) — the byte-comparable published artifact."""
    return json.dumps(run_atlas(**kwargs), sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gap.census",
        description="Enumerate every small black-white LCL up to symmetry, "
        "decide each one's Theorem-7 node-averaged class in parallel, and "
        "cross-validate the verdicts against empirical family sweeps.",
    )
    parser.add_argument("--max-labels", type=int, default=2,
                        help="max |Sigma_out| to enumerate (default: 2)")
    parser.add_argument("--max-inputs", type=int, default=1,
                        help="max |Sigma_in| to enumerate (default: 1)")
    parser.add_argument("--delta", type=int, default=2,
                        help="degree bound of the tree universe (default: 2)")
    parser.add_argument("--ell", type=int, default=2,
                        help="compress path-length parameter (default: 2)")
    parser.add_argument("--max-functions", type=int, default=4096,
                        help="DFS candidate budget per problem "
                        "(default: 4096)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (default: 1)")
    parser.add_argument("--max-problems", type=int, default=None,
                        help="deterministically truncate the canonical "
                        "problem list (smoke runs on big spaces)")
    parser.add_argument("--no-cross-validate", action="store_true",
                        help="skip the empirical witness sweeps")
    parser.add_argument("--atlas", action="store_true",
                        help="emit the landscape-atlas payload (every "
                        "canonical problem mapped to its Figure-2 "
                        "region, with registry-problem landmarks) "
                        "instead of the full census; skips "
                        "cross-validation; with --store a complete "
                        "atlas is also published for "
                        "'python -m repro.serve atlas'")
    parser.add_argument("--progress", action="store_true",
                        help="periodic progress line on stderr "
                        "(enumerated / canonical / decided / "
                        "store-hits, elapsed); never written into the "
                        "JSON payload")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="content-addressed result store directory: "
                        "reuse the verdicts it holds and checkpoint "
                        "every other verdict the moment it is decided, "
                        "so a killed census continues where it stopped; "
                        "the JSON payload is byte-identical with or "
                        "without a store")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write JSON here instead of stdout")
    args = parser.parse_args(argv)

    stats: Dict[str, int] = {}
    common = dict(
        max_labels=args.max_labels, delta=args.delta,
        max_inputs=args.max_inputs, ell=args.ell,
        max_functions=args.max_functions, workers=args.workers,
        max_problems=args.max_problems,
        store=args.store, stats_out=stats,
        progress=args.progress,
    )
    if args.atlas:
        text = atlas_json(**common)
    else:
        text = census_json(
            cross_validate=not args.no_cross_validate, **common,
        )
    if args.store:
        print(f"store: reused={stats['reused']} "
              f"computed={stats['computed']}", file=sys.stderr)
    payload = json.loads(text)
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)

    if args.atlas:
        spec = payload["atlas"]
        counts = {k: v["problems"] for k, v in payload["regions"].items()}
        summary = (
            f"atlas: {spec['raw_problems']} problems -> "
            f"{spec['canonical_problems']} canonical; regions: "
            + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        )
        print(summary, file=sys.stderr)
        if args.store and spec["truncated"]:
            print("atlas: truncated smoke run NOT published to the store",
                  file=sys.stderr)
        return 0

    spec = payload["spec"]
    counts = payload["summary"]["verdicts"]
    summary = (
        f"census: {spec['raw_problems']} problems -> "
        f"{spec['canonical_problems']} canonical; verdicts: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    print(summary, file=sys.stderr)
    disagreements = [
        c for c in payload["cross_validation"] if not c["agrees"]
    ]
    for c in payload["cross_validation"]:
        status = "ok" if c["agrees"] else "DISAGREES"
        print(
            f"cross-validation [{status}]: {c['problem']} verdict "
            f"{c['verdict']} vs measured {c['growth']} growth "
            f"({c['algorithm']} on {c['family']})",
            file=sys.stderr,
        )
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
