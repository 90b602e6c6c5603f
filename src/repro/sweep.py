"""Parallel family sweeps: measure ``AVG_V`` as the paper defines it.

The node-averaged complexity of an algorithm is a supremum over a graph
family *and* an ID assignment (``AVG_V(A) = max_{G} (1/|V|) sum_v T_v``,
:mod:`repro.local.metrics`).  A :class:`SweepRunner` estimates that sup
empirically: it draws ``instances`` seeded graphs per ``(family, n)`` cell
from :mod:`repro.families`, runs every registered algorithm over
``samples`` ID assignments per instance
(:meth:`~repro.local.simulator.LocalSimulator.run_batch`, so the
BFS-layer atlas is shared across the ID samples of an instance), and
aggregates ``max``/``mean`` of the node-averaged and worst-case
complexity per cell.  The ID assignments form an axis of their own
(``id_mode``): digest-seeded random draws by default, or one of the
deterministic adversarial assignments in
:data:`repro.local.ids.ID_MODES`.  Executions default to
``engine="auto"``, which runs the batched engine and is recorded as
``"auto"`` in the payload spec and the store keys.

Validity
--------
Complexity numbers are only meaningful for *correct* labelings, so every
algorithm that declares the LCL it solves (``AlgorithmSpec.problem``) has
each produced labeling verified through the compiled checker kernel
(:mod:`repro.lcl.kernel`; ``verify_batch`` amortizes the per-graph
compile across the instance's ID samples, ``early_exit`` keeps invalid
labelings cheap).  Cells report ``validity: {valid, violations}`` run
counts — ``null`` for algorithms without a declared problem — and
``python -m repro.sweep --check`` exits nonzero on any violation.

Parallelism and determinism
---------------------------
Work is chunked *by instance*: one task = one ``(family, n, instance,
algorithm)`` unit, fanned over a ``multiprocessing`` pool (fork context —
workers inherit dynamically registered families and algorithms).  Every
graph and every ID assignment is derived from a stable digest of
``(family, n, seed, instance, sample)``, and per-cell run sequences are
re-assembled in task order, so ``workers=1`` and ``workers=8`` produce
**byte-identical** JSON — the worker count only changes wall-clock time.
Graphs are rebuilt inside the worker from ``(name, n, seed, index)``
instead of being pickled over IPC.

CLI
---
::

    python -m repro.sweep --family random_tree --sizes 64,256 \
        --algorithms two_coloring --workers 4 --seed 0 --out sweep.json

``--algorithms`` names come from :data:`ALGORITHMS`; add project-specific
entries with :func:`register_algorithm` (benchmarks do this for the
paper's constructions).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .families import FAMILIES, Family, get_family, register_family
from .parallel import fork_map, stable_digest, stable_seed
from .shm import SharedGraphPool, shared_graph, worker_attach_specs
from .store import ResultStore, StoreKey, as_store, atomic_write_text
from .local.graph import Graph
from .local.ids import ID_MODES, id_space_size, make_ids
from .local.metrics import ExecutionTrace
from .local.simulator import ENGINES, LocalSimulator

#: ``engine`` choices for sweeps: the simulator engines plus ``"auto"``,
#: the default, which runs the batched engine.  ``"auto"`` is a value of
#: its own because the payload spec and the store keys record the
#: configured choice; the engine a run used is in its trace's
#: ``meta["engine"]``.
ENGINE_CHOICES = ENGINES + ("auto",)

__all__ = [
    "AlgorithmSpec",
    "ALGORITHMS",
    "register_algorithm",
    "get_algorithm",
    "SweepRunner",
    "unit_key",
    "main",
]


# ----------------------------------------------------------------------
# algorithm registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AlgorithmSpec:
    """A named sweep algorithm.

    Exactly one of the two runners must be set: ``factory(n)`` builds a
    :class:`LocalAlgorithm`/:class:`MessageAlgorithm` executed through
    ``LocalSimulator.run_batch`` (the default path), while
    ``fast_forward(graph, ids)`` computes the same trace centrally for
    algorithms whose simulator runs would be infeasible at sweep sizes.

    ``problem(n)`` optionally names the LCL the algorithm solves: a
    factory returning a :class:`repro.lcl.kernel.Verifier` (any ported
    :class:`~repro.lcl.problem.LCLProblem`).  When set, the sweep pipes
    every produced labeling through ``verify_batch`` on the compiled
    checker kernel and reports per-cell validity counts.
    """

    name: str
    factory: Optional[Callable[[int], object]] = None
    fast_forward: Optional[Callable[[Graph, List[int]], ExecutionTrace]] = None
    problem: Optional[Callable[[int], object]] = None
    description: str = ""

    def __post_init__(self) -> None:
        if (self.factory is None) == (self.fast_forward is None):
            raise ValueError(
                f"algorithm {self.name!r} needs exactly one of "
                "factory / fast_forward"
            )


ALGORITHMS: Dict[str, AlgorithmSpec] = {}


def register_algorithm(spec: AlgorithmSpec, overwrite: bool = False) -> AlgorithmSpec:
    if not overwrite and spec.name in ALGORITHMS:
        raise ValueError(f"algorithm {spec.name!r} already registered")
    ALGORITHMS[spec.name] = spec
    return spec


def get_algorithm(name: str) -> AlgorithmSpec:
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}"
        ) from None


def _make_two_coloring(n: int):
    from .algorithms import CanonicalTwoColoring

    return CanonicalTwoColoring()


def _make_cole_vishkin(n: int):
    from .algorithms import ColeVishkin3Coloring

    return ColeVishkin3Coloring()


def _proper_coloring_problem(colors: int):
    from .lcl import ProperColoring

    def make(n: int):
        return ProperColoring(colors)

    return make


def _make_wait_whole_graph(n: int):
    from .algorithms import WaitForWholeGraph

    def degrees(graph: Graph, ids: Sequence[int]) -> List[int]:
        return [graph.degree(v) for v in graph.nodes()]

    return WaitForWholeGraph(degrees)


def _make_rake_layering(n: int):
    from .algorithms import RakeCompressLayering

    return RakeCompressLayering(gamma=1, ell=2)


def _two_coloring_fast_forward(graph: Graph, ids: List[int]) -> ExecutionTrace:
    from .algorithms import two_coloring_fast_forward

    colors, rounds = two_coloring_fast_forward(graph, ids)
    return ExecutionTrace(rounds=rounds, outputs=colors,
                          algorithm="canonical-2coloring-ff")


def _cv3_path_fast_forward(graph: Graph, ids: List[int]) -> ExecutionTrace:
    from .algorithms import three_color_path

    if graph.m != graph.n - 1 or any(v != u + 1 for u, v in graph.edges()):
        raise ValueError("cv3_path_ff runs on canonical path graphs only")
    colors, rounds = three_color_path(ids, id_space_size(graph.n))
    return ExecutionTrace(rounds=[rounds] * graph.n, outputs=colors,
                          algorithm="cole-vishkin-3coloring-ff")


def _weighted_problem(variant: str, delta: int, d: int, k: int):
    def make(n: int):
        from .lcl import Weighted25, Weighted35

        cls = Weighted25 if variant == "2.5" else Weighted35
        return cls(delta, d, k)

    return make


def _weighted25_fast_forward(graph: Graph, ids: List[int]) -> ExecutionTrace:
    from .algorithms import run_apoly

    return run_apoly(graph, list(ids), 5, 2, 2)


def _weighted35_fast_forward(graph: Graph, ids: List[int]) -> ExecutionTrace:
    from .algorithms import run_weighted35

    return run_weighted35(graph, list(ids), 6, 3, 2)


def _make_weighted25_replay(n: int):
    from .algorithms import replay_apoly

    return replay_apoly(5, 2, 2)


def _make_weighted35_replay(n: int):
    from .algorithms import replay_weighted35

    return replay_weighted35(6, 3, 2)


for _spec in (
    AlgorithmSpec("two_coloring", factory=_make_two_coloring,
                  problem=_proper_coloring_problem(2),
                  description="canonical 2-coloring of forests (Theta(n) avg)"),
    AlgorithmSpec("cole_vishkin", factory=_make_cole_vishkin,
                  problem=_proper_coloring_problem(3),
                  description="Cole-Vishkin 3-coloring (max degree <= 2)"),
    AlgorithmSpec("wait_whole_graph", factory=_make_wait_whole_graph,
                  description="gather-everything baseline (Theta(diameter))"),
    AlgorithmSpec("rake_layering", factory=_make_rake_layering,
                  description="rake-and-compress layering on forests "
                  "(staggered commits, O(log n) rounds at gamma=1)"),
    AlgorithmSpec("two_coloring_ff", fast_forward=_two_coloring_fast_forward,
                  problem=_proper_coloring_problem(2),
                  description="fast-forward canonical 2-coloring"),
    AlgorithmSpec("cv3_path_ff", fast_forward=_cv3_path_fast_forward,
                  problem=_proper_coloring_problem(3),
                  description="fast-forward Cole-Vishkin on canonical paths"),
    AlgorithmSpec("weighted25_ff", fast_forward=_weighted25_fast_forward,
                  problem=_weighted_problem("2.5", 5, 2, 2),
                  description="Theorem 2 (E4): Pi^{2.5} solver at "
                  "(5, 2, 2), centralized fast-forward"),
    AlgorithmSpec("weighted25_replay", factory=_make_weighted25_replay,
                  problem=_weighted_problem("2.5", 5, 2, 2),
                  description="Theorem 2 (E4) solver replayed through the "
                  "batched engine (engine-contract bookkeeping on)"),
    AlgorithmSpec("weighted35_ff", fast_forward=_weighted35_fast_forward,
                  problem=_weighted_problem("3.5", 6, 3, 2),
                  description="Theorem 5 (E5): Pi^{3.5} solver at "
                  "(6, 3, 2), centralized fast-forward"),
    AlgorithmSpec("weighted35_replay", factory=_make_weighted35_replay,
                  problem=_weighted_problem("3.5", 6, 3, 2),
                  description="Theorem 5 (E5) solver replayed through the "
                  "batched engine (engine-contract bookkeeping on)"),
):
    register_algorithm(_spec)
del _spec


# ----------------------------------------------------------------------
# tasks and workers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Task:
    family: str
    n: int
    index: int
    algorithm: str
    samples: int
    seed: int
    engine: str
    id_mode: str
    check: bool
    # zero-copy substrate: the instance's SharedGraphPool key (None on the
    # rebuild path) and the first ID-sample this task covers — shared
    # graphs make per-sample tasks cheap, so sweeps with few cells can
    # still fan out across samples
    graph_key: Optional[str] = None
    sample_base: int = 0


def _sample_seed(family: str, n: int, seed: int, index: int, sample: int) -> int:
    """Stable cross-process seed for one ID draw; independent of the
    algorithm so every algorithm of a cell sees identical IDs."""
    return stable_seed("ids", family, n, seed, index, sample)


def _sample_chunks(samples: int, parts: int) -> Tuple[Tuple[int, int], ...]:
    """Split ``range(samples)`` into ``parts`` contiguous ``(base, count)``
    ranges (first chunks one larger on uneven splits)."""
    parts = max(1, min(parts, samples))
    size, extra = divmod(samples, parts)
    chunks = []
    start = 0
    for i in range(parts):
        count = size + (1 if i < extra else 0)
        chunks.append((start, count))
        start += count
    return tuple(chunks)


def _run_task(
    task: _Task,
) -> Tuple[int, List[Tuple[float, int]], Optional[List[bool]]]:
    """One (instance, algorithm, sample-range) unit: resolve the graph —
    a zero-copy shared-memory attach when the task carries a pool key,
    a rebuild from ``(family, n, seed, index)`` otherwise — run the
    task's ID samples (sharing the topology atlas via ``run_batch``),
    return the instance's actual node count, per-sample
    ``(node_averaged, worst_case)``, and — when the algorithm declares
    its LCL and checking is on — per-sample validity verdicts from the
    checker kernel (``verify_batch`` shares the per-graph compile across
    the ID samples; ``early_exit`` keeps invalid labelings cheap)."""
    graph = shared_graph(task.graph_key) if task.graph_key else None
    if graph is None:
        family = get_family(task.family)
        graph = family.instance(task.n, task.seed, task.index)
    # deterministic id modes (declared on their ID_MODES entry) ignore the
    # rng and would repeat the same assignment for every sample — simulate
    # it once and replicate the per-sample results instead (aggregates are
    # over identical values either way, so the payload is unchanged);
    # rng-consuming modes draw digest-seeded assignments per sample
    deterministic = ID_MODES[task.id_mode].deterministic
    effective_samples = 1 if deterministic else task.samples
    id_samples = [
        make_ids(task.id_mode, graph.n, rng=random.Random(
            _sample_seed(task.family, task.n, task.seed, task.index, s)))
        for s in range(task.sample_base, task.sample_base + effective_samples)
    ]
    spec = get_algorithm(task.algorithm)
    if spec.fast_forward is not None:
        traces = [spec.fast_forward(graph, ids) for ids in id_samples]
    else:
        engine = "batched" if task.engine == "auto" else task.engine
        traces = LocalSimulator(engine=engine).run_batch(
            graph, spec.factory(graph.n), id_samples
        )
    valid: Optional[List[bool]] = None
    if task.check and spec.problem is not None:
        verifier = spec.problem(graph.n)
        valid = [
            bool(result)
            for result in verifier.verify_batch(
                graph, [t.outputs for t in traces], early_exit=True
            )
        ]
    runs = [(t.node_averaged(), t.worst_case()) for t in traces]
    if deterministic and task.samples > 1:
        runs = runs * task.samples
        if valid is not None:
            valid = valid * task.samples
    return (graph.n, runs, valid)


def _task_label(task: _Task) -> str:
    """Human-readable fork_map label: names the failing sweep unit."""
    return (f"sweep {task.family}/n={task.n}/{task.algorithm} "
            f"instance {task.index} samples "
            f"{task.sample_base}..{task.sample_base + task.samples - 1}")


# ----------------------------------------------------------------------
# the result store: one entry per (instance, algorithm) unit
# ----------------------------------------------------------------------
#: a sweep work unit: ``(family, n, algorithm, index)``
_Unit = Tuple[str, int, str, int]


def unit_key(
    store: ResultStore,
    family: str,
    n: int,
    seed: int,
    index: int,
    algorithm: str,
    engine: str,
    id_mode: str,
    check: bool,
    samples: int,
) -> StoreKey:
    """The content address of one sweep unit — every value the unit's
    measured runs are a function of.  Shared with :mod:`repro.serve`,
    which must reconstruct exactly these keys to answer queries."""
    return store.key("sweep-unit", family, n, seed, index, algorithm,
                     engine, id_mode, check, samples)


def _encode_unit(result: Tuple[int, List, Optional[List[bool]]]) -> Dict:
    instance_n, runs, valid = result
    return {"n": instance_n, "runs": [list(r) for r in runs],
            "valid": valid}


def _decode_unit(payload: object) -> Optional[Tuple]:
    """Validate a stored unit payload; ``None`` (→ miss, recompute) on
    any shape surprise, so a wrong-schema entry can never poison an
    aggregate."""
    if not isinstance(payload, dict):
        return None
    instance_n, runs, valid = (payload.get("n"), payload.get("runs"),
                               payload.get("valid"))
    if not isinstance(instance_n, int) or not isinstance(runs, list):
        return None
    if not all(isinstance(r, list) and len(r) == 2 for r in runs):
        return None
    if valid is not None and not (
            isinstance(valid, list) and all(isinstance(v, bool) for v in valid)):
        return None
    return (instance_n, [tuple(r) for r in runs], valid)


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
class SweepRunner:
    """Fan a family x sizes x algorithms sweep over worker processes.

    Parameters
    ----------
    workers:
        Process count; ``1`` runs in-process (no pool).  Aggregates are
        byte-identical for every worker count.
    samples:
        Random ID assignments per instance.
    instances:
        Instances per ``(family, n)`` cell; ``None`` uses each family's
        ``default_count``.
    engine:
        Simulator engine for factory-based algorithms; the default
        ``"auto"`` runs the batched engine (see :data:`ENGINE_CHOICES`).
        The engine each run actually used is recorded in its trace's
        ``meta["engine"]``.
    id_mode:
        Named ID-assignment mode (:data:`repro.local.ids.ID_MODES`):
        ``"random"`` (default) draws digest-seeded random assignments;
        the adversarial modes (``descending``, ``bit_reversal``,
        ``boundary_clustered``, ``sequential``) are deterministic — the
        node-averaged measure is a sup over ID assignments too, so they
        form a sweep axis.  With a deterministic mode every sample of an
        instance sees the same IDs, so each instance is simulated once
        and the result replicated to ``samples`` (the payload is
        unchanged, the redundant work is not done).
    check:
        Verify every produced labeling against the algorithm's declared
        LCL (``AlgorithmSpec.problem``) through the compiled checker
        kernel and record per-cell validity counts.  Algorithms without
        a declared problem report ``validity: null``.
    shared:
        Zero-copy substrate switch.  ``True`` builds every instance once
        in the parent and publishes its CSR arrays through
        :class:`repro.shm.SharedGraphPool`, so workers attach views
        instead of rebuilding; it also splits rng-mode tasks across ID
        samples when the sweep has fewer (instance, algorithm) units than
        workers (attachment makes per-sample tasks cheap).  ``False``
        always rebuilds in the worker.  The default ``None`` resolves to
        ``workers > 1``.  The emitted payload is byte-identical either
        way — sharing is an optimisation, never a semantic switch.
    store:
        Content-addressed result store (a :class:`repro.store.ResultStore`,
        a directory path, or ``None`` to disable).  With a store, every
        ``(family, n, seed, index, algorithm, engine, id_mode, check,
        samples)`` unit is looked up before fan-out; only misses
        simulate (through the shm substrate as usual) and are written
        back.  The JSON aggregates are **byte-identical whether the
        store is cold, warm or disabled, at any worker count** — hit and
        miss counts live in :attr:`last_cache`, never in the payload.
    """

    def __init__(
        self,
        workers: int = 1,
        samples: int = 3,
        instances: Optional[int] = None,
        engine: str = "auto",
        id_mode: str = "random",
        check: bool = True,
        shared: Optional[bool] = None,
        store: Union[None, str, ResultStore] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if samples < 1:
            raise ValueError("samples must be >= 1")
        if instances is not None and instances < 1:
            raise ValueError("instances must be >= 1")
        if engine not in ENGINE_CHOICES:
            raise ValueError(f"unknown engine {engine!r}")
        if id_mode not in ID_MODES:
            raise ValueError(
                f"unknown id mode {id_mode!r}; known: {sorted(ID_MODES)}"
            )
        self.workers = workers
        self.samples = samples
        self.instances = instances
        self.engine = engine
        self.id_mode = id_mode
        self.check = check
        self.shared = workers > 1 if shared is None else bool(shared)
        self.store = as_store(store)
        #: after each :meth:`run`: ``{"hits": ..., "misses": ...}`` when
        #: a store is wired, ``None`` otherwise — deliberately outside
        #: the payload so cold/warm/disabled runs emit identical bytes
        self.last_cache: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    def run(
        self,
        families: Sequence[Union[str, Family]],
        sizes: Sequence[int],
        algorithms: Sequence[str],
        seed: int = 0,
    ) -> Dict:
        """Execute the sweep and return the aggregate payload (a plain
        JSON-serializable dict; see :meth:`run_json`)."""
        family_names = []
        for f in families:
            if isinstance(f, Family):
                # make ad-hoc families resolvable by name inside fork workers
                if FAMILIES.get(f.name) is not f:
                    register_family(f, overwrite=True)
                family_names.append(f.name)
            else:
                get_family(f)  # fail fast on typos
                family_names.append(f)
        for a in algorithms:
            get_algorithm(a)
        if not family_names or not sizes or not algorithms:
            raise ValueError("families, sizes and algorithms must be non-empty")

        counts = {
            name: self.instances or get_family(name).default_count
            for name in family_names
        }
        cells: List[Tuple[str, int, str]] = []
        units: List[_Unit] = []
        for name in family_names:
            for n in sizes:
                for algo in algorithms:
                    cells.append((name, n, algo))
                    for index in range(counts[name]):
                        units.append((name, n, algo, index))
        if len(set(cells)) != len(cells):
            raise ValueError(
                "duplicate (family, n, algorithm) cells — repeated "
                "entries in families/sizes/algorithms would "
                "double-count runs"
            )

        # partition into store hits and misses; only misses simulate
        unit_results: Dict[_Unit, Tuple] = {}
        if self.store is not None:
            for u in units:
                payload = self.store.get(self._unit_key(u, seed))
                decoded = None if payload is None else _decode_unit(payload)
                if decoded is not None:
                    unit_results[u] = decoded
        miss_units = [u for u in units if u not in unit_results]
        self.last_cache = None if self.store is None else {
            "hits": len(units) - len(miss_units),
            "misses": len(miss_units),
        }

        if miss_units:
            pool = SharedGraphPool() if self.shared else None
            try:
                tasks = self._build_tasks(miss_units, seed, pool)
                results = self._map(tasks, pool)
            finally:
                if pool is not None:
                    pool.close()
            # re-assemble sample chunks per unit (tasks are emitted in
            # sample_base-ascending order per unit, zip preserves it)
            fresh: Dict[_Unit, List] = {}
            for task, (instance_n, runs, valid) in zip(tasks, results):
                u = (task.family, task.n, task.algorithm, task.index)
                entry = fresh.setdefault(u, [instance_n, [], []])
                entry[1].extend(runs)
                if valid is None:
                    entry[2] = None
                elif entry[2] is not None:
                    entry[2].extend(valid)
            for u in miss_units:
                instance_n, runs, valid = fresh[u]
                unit_results[u] = (instance_n, runs, valid)
                if self.store is not None:
                    self.store.put(self._unit_key(u, seed),
                                   _encode_unit((instance_n, runs, valid)))

        per_cell: Dict[Tuple[str, int, str], List[Tuple[float, int]]] = {
            cell: [] for cell in cells
        }
        cell_sizes: Dict[Tuple[str, int, str], List[int]] = {
            cell: [] for cell in cells
        }
        cell_valid: Dict[Tuple[str, int, str], Optional[List[bool]]] = {
            cell: [] for cell in cells
        }
        for u in units:
            name, n, algo, _index = u
            instance_n, runs, valid = unit_results[u]
            key = (name, n, algo)
            per_cell[key].extend(runs)
            cell_sizes[key].append(instance_n)
            if valid is None:
                cell_valid[key] = None
            elif cell_valid[key] is not None:
                cell_valid[key].extend(valid)

        payload_cells = []
        for (name, n, algo) in cells:
            runs = per_cell[(name, n, algo)]
            avgs = [avg for avg, _ in runs]
            worsts = [worst for _, worst in runs]
            sizes_seen = cell_sizes[(name, n, algo)]
            valid = cell_valid[(name, n, algo)]
            payload_cells.append({
                "family": name,
                "n": n,
                "algorithm": algo,
                "runs": len(runs),
                # actual built sizes: families like grid or the benchmark
                # lower-bound constructions round the target n
                "instance_n": {"min": min(sizes_seen), "max": max(sizes_seen)},
                "node_averaged": {
                    "max": max(avgs),
                    "mean": sum(avgs) / len(avgs),
                },
                "worst_case": {
                    "max": max(worsts),
                    "mean": sum(worsts) / len(worsts),
                },
                # null when the algorithm declares no LCL (or check=False)
                "validity": None if valid is None else {
                    "valid": sum(1 for ok in valid if ok),
                    "violations": sum(1 for ok in valid if not ok),
                },
            })

        return {
            "spec": {
                "families": list(family_names),
                "sizes": list(sizes),
                "algorithms": list(algorithms),
                "samples": self.samples,
                "instances": {
                    name: self.instances or get_family(name).default_count
                    for name in family_names
                },
                "seed": seed,
                "engine": self.engine,
                "id_mode": self.id_mode,
                "check": self.check,
                # deliberately no worker count: the payload must be
                # byte-identical for any parallelism level
            },
            "cells": payload_cells,
        }

    def run_json(
        self,
        families: Sequence[Union[str, Family]],
        sizes: Sequence[int],
        algorithms: Sequence[str],
        seed: int = 0,
    ) -> str:
        """The sweep aggregates as canonical JSON (sorted keys, 2-space
        indent, trailing newline) — the byte-comparable artifact."""
        payload = self.run(families, sizes, algorithms, seed)
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    # ------------------------------------------------------------------
    def _unit_key(self, unit: _Unit, seed: int) -> StoreKey:
        name, n, algo, index = unit
        return unit_key(self.store, name, n, seed, index, algo,
                        self.engine, self.id_mode, self.check, self.samples)

    def _build_tasks(
        self,
        units: Sequence[_Unit],
        seed: int,
        pool: Optional[SharedGraphPool],
    ) -> List[_Task]:
        """The task list for the units that actually need simulating.

        With a pool, every unique instance is built once here and
        published; tasks then carry only its digest key.  When the sweep
        has fewer (instance, algorithm) units than worker slots and the
        id mode draws per-sample assignments, units are further split
        across contiguous sample ranges — chunking never changes the
        per-cell run order (index-ascending, then sample-ascending), so
        aggregates stay byte-identical at every worker count, with
        sharing on or off, and with the store cold or warm.
        """
        deterministic = ID_MODES[self.id_mode].deterministic
        parts = 1
        if (pool is not None and not deterministic
                and len(units) < 2 * self.workers):
            parts = min(self.samples, -(-2 * self.workers // len(units)))
        chunks = _sample_chunks(self.samples, parts)

        tasks: List[_Task] = []
        graph_keys: Dict[Tuple[str, int, int], Optional[str]] = {}
        for (name, n, algo, index) in units:
            key = None
            if pool is not None:
                gk = (name, n, index)
                if gk not in graph_keys:
                    graph_keys[gk] = self._publish(pool, name, n, seed, index)
                key = graph_keys[gk]
            task_chunks = chunks
            if key is None or deterministic:
                task_chunks = ((0, self.samples),)
            for base, count in task_chunks:
                tasks.append(_Task(
                    family=name, n=n, index=index,
                    algorithm=algo, samples=count, seed=seed,
                    engine=self.engine, id_mode=self.id_mode,
                    check=self.check, graph_key=key,
                    sample_base=base,
                ))
        return tasks

    @staticmethod
    def _publish(
        pool: SharedGraphPool, name: str, n: int, seed: int, index: int
    ) -> Optional[str]:
        graph = get_family(name).instance(n, seed, index)
        key = stable_digest("sweep-graph", name, n, seed, index)
        try:
            pool.publish(key, graph)
        except ValueError:
            # unshareable inputs (alphabet too large) — workers rebuild
            return None
        return key

    def _map(
        self, tasks: List[_Task], pool: Optional[SharedGraphPool] = None
    ) -> List[Tuple[int, List[Tuple[float, int]], Optional[List[bool]]]]:
        if pool is None or len(pool) == 0:
            return fork_map(_run_task, tasks, self.workers,
                            label=_task_label)
        return fork_map(
            _run_task, tasks, self.workers,
            initializer=worker_attach_specs, initargs=(pool.specs(),),
            label=_task_label,
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _csv_ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _csv_names(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Sweep LOCAL algorithms over seeded graph families and "
        "report family-sup node-averaged complexity aggregates as JSON.",
    )
    parser.add_argument(
        "--family", action="append", required=True, metavar="NAME[,NAME...]",
        help=f"family to sweep (repeatable / comma-separated); "
        f"known: {', '.join(sorted(FAMILIES))}",
    )
    parser.add_argument(
        "--sizes", type=_csv_ints, default=[64], metavar="N[,N...]",
        help="comma-separated target instance sizes (default: 64)",
    )
    parser.add_argument(
        "--algorithms", type=_csv_names, default=["two_coloring"],
        metavar="NAME[,NAME...]",
        help=f"comma-separated algorithm registry names (default: "
        f"two_coloring); known: {', '.join(sorted(ALGORITHMS))}",
    )
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (default: 1)")
    parser.add_argument("--seed", type=int, default=0,
                        help="sweep seed (default: 0)")
    parser.add_argument("--samples", type=int, default=3,
                        help="ID assignments per instance (default: 3)")
    parser.add_argument("--instances", type=int, default=None,
                        help="instances per (family, n) cell "
                        "(default: family-specific)")
    parser.add_argument("--engine", choices=list(ENGINE_CHOICES),
                        default="auto",
                        help="simulator engine; auto runs batched "
                        "(default: auto)")
    parser.add_argument("--id-mode", choices=sorted(ID_MODES),
                        default="random", dest="id_mode",
                        help="ID-assignment mode: random (digest-seeded) "
                        "or a deterministic adversarial assignment "
                        "(default: random)")
    parser.add_argument("--shm", action=argparse.BooleanOptionalAction,
                        default=None, dest="shm",
                        help="publish instances to shared memory so workers "
                        "attach zero-copy CSR views instead of rebuilding "
                        "(--no-shm forces the rebuild path; default: on "
                        "when workers > 1); the JSON payload is identical "
                        "either way")
    parser.add_argument("--check", action="store_true",
                        help="verify every produced labeling against its "
                        "algorithm's declared LCL and exit nonzero on any "
                        "violation; without the flag no verification runs "
                        "and cells report validity: null")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="content-addressed result store directory: "
                        "look every sweep unit up before simulating and "
                        "write misses back, so reruns are incremental; "
                        "the JSON payload is byte-identical with the "
                        "store cold, warm or absent")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write JSON here instead of stdout")
    args = parser.parse_args(argv)

    families: List[str] = []
    for chunk in args.family:
        families.extend(_csv_names(chunk))

    runner = SweepRunner(
        workers=args.workers, samples=args.samples,
        instances=args.instances, engine=args.engine,
        id_mode=args.id_mode, check=args.check, shared=args.shm,
        store=args.store,
    )
    text = runner.run_json(families, args.sizes, args.algorithms, args.seed)
    if runner.last_cache is not None:
        print(f"store: hits={runner.last_cache['hits']} "
              f"misses={runner.last_cache['misses']}", file=sys.stderr)
    payload = json.loads(text)
    cells = payload["cells"]
    if args.out:
        atomic_write_text(args.out, text)
        sup = max(c["node_averaged"]["max"] for c in cells)
        print(f"wrote {args.out}: {len(cells)} cells, "
              f"family-sup node-averaged = {sup:.2f}")
    else:
        sys.stdout.write(text)

    if args.check:
        checked = [c for c in cells if c["validity"] is not None]
        violations = sum(c["validity"]["violations"] for c in checked)
        unchecked = len(cells) - len(checked)
        summary = (
            f"validity: {sum(c['validity']['valid'] for c in checked)} valid, "
            f"{violations} violating run(s) across {len(checked)} checked "
            f"cell(s)"
        )
        if unchecked:
            summary += f"; {unchecked} cell(s) declare no LCL (unchecked)"
        print(summary, file=sys.stderr)
        if violations:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
