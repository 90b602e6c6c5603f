"""Spans around the calls into each layer, for the traced run.

The benchmark's own code wraps public functions of each layer (a layer is
a module of ``repro``); nothing under ``src/`` changes.  A span records
its layer, its start and end, and the span that was open when it started,
so a layer's *self* time is its span's duration minus the durations of
its child spans.  Counts come from the wrapped calls' arguments and
results, never from per-node calls, which stay unwrapped.

Spans of the main process stay in memory.  Pool workers leave through
``os._exit``, so a span recorded in a worker is written to its own
``spans-<pid>.jsonl`` the moment it closes.
"""

from __future__ import annotations

import dataclasses
import functools
import glob
import json
import math
import os
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from clock import now

#: one closed span: (pid, id, parent id, layer, start, end, counts)
Record = Tuple[int, int, Optional[int], str, float, float, Optional[Dict]]

ROOT = "workload"
POOL_WAIT = "parallel.fork_map"
POOL_TASK = "parallel.task"

#: the tracer of this process; forked pool workers inherit it, which is
#: how a pickled :class:`TimedTask` finds it on the other side
TRACER: Optional["Tracer"] = None


class Tracer:
    """Span records of one process and of the pool workers it forks,
    which spill theirs under ``spill_dir``; ``forks`` counts the forks."""

    def __init__(self, spill_dir: str) -> None:
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.records: List[Record] = []
        self.forks = 0
        self._stack: List[int] = []
        self._next_id = 0
        self._spill = None
        os.register_at_fork(before=self._before_fork,
                            after_in_child=self._after_fork_in_child)

    def _before_fork(self) -> None:
        self.forks += 1

    def _after_fork_in_child(self) -> None:
        self.pid = os.getpid()
        self.records = []
        self._stack = []
        # line-buffered: every record reaches the file before os._exit
        self._spill = open(os.path.join(self.spill_dir,
                                        f"spans-{self.pid}.jsonl"),
                           "w", encoding="utf-8", buffering=1)

    def call(self, layer: str, fn: Callable, args: tuple, kwargs: dict,
             counts: Optional[Callable[[object], Dict]] = None):
        """``fn(*args, **kwargs)`` inside a ``layer`` span; ``counts``
        maps the result to the span's counters after the clock stops."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = now()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(sid, parent, layer, start, now(), None)
            raise
        end = now()
        self._close(sid, parent, layer, start, end,
                    counts(result) if counts is not None else None)
        return result

    def event(self, layer: str, counts: Dict) -> None:
        """Counters with no duration, attributed to ``layer``."""
        self._store((self.pid, -1, None, layer, 0.0, 0.0, counts))

    def _close(self, sid, parent, layer, start, end, counts) -> None:
        self._stack.pop()
        self._store((self.pid, sid, parent, layer, start, end, counts))

    def _store(self, record: Record) -> None:
        if self._spill is None:
            self.records.append(record)
        else:
            self._spill.write(json.dumps(record) + "\n")

    def all_records(self) -> List[Record]:
        """This process's records plus every worker's spill file."""
        records = list(self.records)
        for path in sorted(glob.glob(os.path.join(self.spill_dir,
                                                  "spans-*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                records.extend(tuple(json.loads(line)) for line in fh)
        return records


class TimedTask:
    """A ``fork_map`` task function that records a ``parallel.task`` span
    in whichever process runs it.  Module-level, so it pickles."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, task):
        return TRACER.call(POOL_TASK, self.fn, (task,), {})


# ----------------------------------------------------------------------
# the wrappers
# ----------------------------------------------------------------------
def _wrap(owner, name: str, layer: str,
          counts: Optional[Callable[[object], Dict]] = None) -> None:
    fn = getattr(owner, name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return TRACER.call(layer, fn, args, kwargs, counts)

    setattr(owner, name, wrapper)


def _wrap_fork_map(module) -> None:
    fork_map = module.fork_map

    @functools.wraps(fork_map)
    def wrapper(fn, tasks, workers, *args, **kwargs):
        tasks = tasks if isinstance(tasks, (list, tuple)) else list(tasks)
        TRACER.event("parallel", {"tasks": len(tasks)})
        if workers == 1 or len(tasks) <= 1:  # fork_map stays in-process
            return fork_map(fn, tasks, workers, *args, **kwargs)
        processes = min(workers, len(tasks))
        return TRACER.call(POOL_WAIT, fork_map,
                           (TimedTask(fn), tasks, workers) + args, kwargs,
                           lambda _: {"processes": processes})

    module.fork_map = wrapper


def _listed(fn: Callable) -> Callable:
    """``decide_batch`` may return any iterable; the engine lists it, so
    listing it inside the span keeps the work inside the span."""
    def listed(*args):
        return list(fn(*args))
    return listed


def _traced_algorithm(make: Callable) -> Callable:
    def factory(n):
        algorithm = make(n)
        batch = getattr(algorithm, "decide_batch", None)
        if callable(batch):
            inner = _listed(batch)

            def decide_batch(views, live, t):
                return TRACER.call(
                    "algorithms", inner, (views, live, t), {},
                    lambda decided: {"live": len(live),
                                     "commits": len(decided)})
            algorithm.decide_batch = decide_batch
        return algorithm
    return factory


def _traced_problem(make: Callable) -> Callable:
    def factory(n):
        verifier = make(n)
        verify = verifier.verify_batch

        def verify_batch(*args, **kwargs):
            return TRACER.call(
                "lcl.kernel", verify, args, kwargs,
                lambda results: {
                    "labelings": len(results),
                    "violations": sum(1 for r in results if not r)})
        verifier.verify_batch = verify_batch
        return verifier
    return factory


def _wrap_grow_to(scheduler_cls) -> None:
    grow_to = scheduler_cls.grow_to

    @functools.wraps(grow_to)
    def wrapper(self, t):
        radius = self.radius
        before = int(self.ball_size.sum()) if t > radius else 0

        def counts(_):
            steps = self.radius - radius
            grown = int(self.ball_size.sum()) - before if steps else 0
            return {"steps": steps, "ball_nodes": grown}
        return TRACER.call("local.frontier", grow_to, (self, t), {}, counts)

    scheduler_cls.grow_to = wrapper


def _wrap_decide_encoding(census) -> None:
    """One span per problem; its ``gap.testing`` children are the DFS
    tries, and a search that tried its whole budget was cut short."""
    decide = census.decide_encoding

    @functools.wraps(decide)
    def wrapper(encoding, ell=2, max_functions=4096):
        return TRACER.call("gap.decider", decide,
                           (encoding, ell, max_functions), {},
                           lambda _: {"budget": max_functions})

    census.decide_encoding = wrapper


def _wrap_iter_space(census) -> None:
    """The canonical stream is a generator: each ``next`` is one span, and
    the raw specs it walked are counted through its progress hook."""
    iter_space = census.iter_space

    @functools.wraps(iter_space)
    def wrapper(*args, **kwargs):
        raw = [0]

        def count_raw(seen):
            raw[0] = seen
        kwargs.update(tick=count_raw, tick_every=1)
        stream = iter_space(*args, **kwargs)
        try:
            while True:
                try:
                    item = TRACER.call("gap.canonical", next, (stream,), {},
                                       lambda _: {"kept": 1})
                except StopIteration:
                    return
                yield item
        finally:
            stream.close()
            TRACER.event("gap.canonical", {"raw": raw[0]})

    census.iter_space = wrapper


def install(spill_dir: str) -> Tracer:
    """Wrap every layer's entry points in this process (before the
    workload imports them) and return the tracer."""
    global TRACER
    import repro.gap.census as census
    import repro.gap.decider as decider
    import repro.lint.runner as lint_runner
    import repro.sweep as sweep
    from repro.families import Family
    from repro.local.frontier import FrontierScheduler
    from repro.local.simulator import LocalSimulator
    from repro.shm import SharedGraphPool
    from repro.store import ResultStore

    TRACER = Tracer(spill_dir)

    _wrap(Family, "instance", "families", lambda g: {"nodes": g.n})
    _wrap(sweep, "make_ids", "local.ids", lambda ids: {"ids": len(ids)})
    _wrap(LocalSimulator, "run_batch", "local.simulator",
          lambda traces: {"runs": len(traces),
                          "rounds": sum(t.worst_case() + 1 for t in traces)})
    _wrap_grow_to(FrontierScheduler)
    for name, spec in list(sweep.ALGORITHMS.items()):
        changes = {}
        if spec.factory is not None:
            changes["factory"] = _traced_algorithm(spec.factory)
        if spec.problem is not None:
            changes["problem"] = _traced_problem(spec.problem)
        sweep.ALGORITHMS[name] = dataclasses.replace(spec, **changes)
    _wrap(SharedGraphPool, "publish", "shm.publish",
          lambda spec: {"bytes": spec.nbytes()})
    _wrap(sweep, "worker_attach_specs", "shm.attach")
    _wrap(sweep, "shared_graph", "shm.attach")
    for module in (sweep, census, lint_runner):
        _wrap_fork_map(module)

    _wrap(census, "run_atlas", "gap.census")
    _wrap_iter_space(census)
    _wrap_decide_encoding(census)
    _wrap(decider, "run_testing_procedure", "gap.testing")
    store_put = ResultStore.put

    @functools.wraps(store_put)
    def put(self, key, payload):
        return TRACER.call(
            "store", store_put, (self, key, payload), {},
            lambda k: {"puts": 1,
                       "bytes": os.path.getsize(self.path_for(k))})
    ResultStore.put = put

    _wrap(lint_runner, "collect_files", "lint.runner",
          lambda files: {"files": len(files)})
    _wrap(lint_runner, "extract_module_facts", "lint.summaries.extract")
    _wrap(lint_runner, "link_project", "lint.summaries.link")
    _wrap(lint_runner, "analyze_file", "lint.core",
          lambda findings: {"findings": len(findings)})
    return TRACER


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: every metric a traced run reports, with its unit; ``trace.overhead_*``
#: compares the traced repetitions with the plain ones, and ``host.*`` is
#: the host's speed against the reference loop and the plain wall time
#: before it was scaled by that speed (``run.py``)
LAYER_UNITS = {
    "trace.wall_s": "s", "trace.overhead_s": "s",
    "trace.overhead_share": "ratio", "trace.unattributed_s": "s",
    "trace.unattributed_share": "ratio",
    "host.speed": "ratio", "host.raw_wall_s": "s",
    "families.self_s": "s", "families.nodes": "count",
    "local.ids.self_s": "s", "local.ids.ids": "count",
    "algorithms.self_s": "s", "algorithms.calls": "count",
    "algorithms.commit_ratio": "ratio",
    "local.simulator.self_s": "s", "local.simulator.runs": "count",
    "local.simulator.rounds": "count",
    "local.frontier.self_s": "s", "local.frontier.steps": "count",
    "local.frontier.ball_nodes": "count",
    "lcl.kernel.self_s": "s", "lcl.kernel.labelings": "count",
    "lcl.kernel.violations": "count",
    "shm.publish_s": "s", "shm.attach_s": "s", "shm.bytes": "B",
    "parallel.tasks": "count", "parallel.forks": "count",
    "parallel.busy_s": "s", "parallel.idle_s": "s",
    "gap.testing.self_s": "s", "gap.testing.calls": "count",
    "gap.decider.self_s": "s", "gap.decider.p50_ms": "ms",
    "gap.decider.p99_ms": "ms", "gap.decider.tries_per_problem": "count",
    "gap.decider.max_tries": "count",
    "gap.decider.budget_exhausted": "count",
    "gap.canonical.self_s": "s", "gap.canonical.raw": "count",
    "gap.canonical.kept": "count", "gap.canonical.keep_ratio": "ratio",
    "gap.census.self_s": "s",
    "store.self_s": "s", "store.puts": "count", "store.bytes": "B",
    "lint.runner.collect_s": "s", "lint.summaries.extract_s": "s",
    "lint.summaries.link_s": "s", "lint.core.analyze_s": "s",
    "lint.core.findings": "count",
}


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer self time and counters of one traced entry call, plus
    the unattributed remainder.

    The work time is the main process's root span, less the time it
    waited on a pool, plus every pool task's span.  Whatever part of it
    no layer span covers is unattributed: the root's self time and the
    pool tasks' self time.
    """
    records = tracer.all_records()
    child_time: Dict[Tuple[int, int], float] = defaultdict(float)
    tries: Counter = Counter()  # gap.testing calls under each decide span
    for pid, sid, parent, layer, start, end, _ in records:
        if sid >= 0 and parent is not None:
            child_time[(pid, parent)] += end - start
            if layer == "gap.testing":
                tries[(pid, parent)] += 1
    self_s: Dict[str, float] = defaultdict(float)
    total: Dict[str, float] = defaultdict(float)
    spans: Counter = Counter()
    counts: Dict[str, Counter] = defaultdict(Counter)
    decide_ms: List[float] = []
    decide_tries: List[int] = []
    exhausted = 0
    pool_capacity = 0.0  # worker-seconds offered while the parent waited
    for pid, sid, parent, layer, start, end, attrs in records:
        if sid >= 0:
            duration = end - start
            self_s[layer] += duration - child_time[(pid, sid)]
            total[layer] += duration
            spans[layer] += 1
        if layer == "gap.decider":
            decide_ms.append(1000.0 * duration)
            decide_tries.append(tries[(pid, sid)])
            exhausted += tries[(pid, sid)] >= attrs["budget"]
        elif layer == POOL_WAIT:
            pool_capacity += duration * attrs["processes"]
        else:
            counts[layer].update(attrs or {})

    work = total[ROOT] - total[POOL_WAIT] + total[POOL_TASK]
    unattributed = self_s[ROOT] + self_s[POOL_TASK]
    live = counts["algorithms"]["live"]
    raw = counts["gap.canonical"]["raw"]
    return {
        "trace.wall_s": total[ROOT],
        "trace.unattributed_s": unattributed,
        "trace.unattributed_share": unattributed / work if work else 0.0,
        "families.self_s": self_s["families"],
        "families.nodes": counts["families"]["nodes"],
        "local.ids.self_s": self_s["local.ids"],
        "local.ids.ids": counts["local.ids"]["ids"],
        "algorithms.self_s": self_s["algorithms"],
        "algorithms.calls": spans["algorithms"],
        "algorithms.commit_ratio":
            counts["algorithms"]["commits"] / live if live else 0.0,
        "local.simulator.self_s": self_s["local.simulator"],
        "local.simulator.runs": counts["local.simulator"]["runs"],
        "local.simulator.rounds": counts["local.simulator"]["rounds"],
        "local.frontier.self_s": self_s["local.frontier"],
        "local.frontier.steps": counts["local.frontier"]["steps"],
        "local.frontier.ball_nodes": counts["local.frontier"]["ball_nodes"],
        "lcl.kernel.self_s": self_s["lcl.kernel"],
        "lcl.kernel.labelings": counts["lcl.kernel"]["labelings"],
        "lcl.kernel.violations": counts["lcl.kernel"]["violations"],
        "shm.publish_s": self_s["shm.publish"],
        "shm.attach_s": self_s["shm.attach"],
        "shm.bytes": counts["shm.publish"]["bytes"],
        "parallel.tasks": counts["parallel"]["tasks"],
        "parallel.forks": tracer.forks,
        "parallel.busy_s": total[POOL_TASK],
        "parallel.idle_s": max(0.0, pool_capacity - total[POOL_TASK]),
        "gap.testing.self_s": self_s["gap.testing"],
        "gap.testing.calls": spans["gap.testing"],
        "gap.decider.self_s": self_s["gap.decider"],
        "gap.decider.p50_ms": _percentile(decide_ms, 0.50),
        "gap.decider.p99_ms": _percentile(decide_ms, 0.99),
        "gap.decider.tries_per_problem":
            sum(decide_tries) / len(decide_tries) if decide_tries else 0.0,
        "gap.decider.max_tries": max(decide_tries, default=0),
        "gap.decider.budget_exhausted": exhausted,
        "gap.canonical.self_s": self_s["gap.canonical"],
        "gap.canonical.raw": raw,
        "gap.canonical.kept": counts["gap.canonical"]["kept"],
        "gap.canonical.keep_ratio":
            counts["gap.canonical"]["kept"] / raw if raw else 0.0,
        "gap.census.self_s": self_s["gap.census"],
        "store.self_s": self_s["store"],
        "store.puts": counts["store"]["puts"],
        "store.bytes": counts["store"]["bytes"],
        "lint.runner.collect_s": self_s["lint.runner"],
        "lint.summaries.extract_s": self_s["lint.summaries.extract"],
        "lint.summaries.link_s": self_s["lint.summaries.link"],
        "lint.core.analyze_s": self_s["lint.core"],
        "lint.core.findings": counts["lint.core"]["findings"],
    }
