"""The five workloads: set-up, the entry call, its item count and its
output check.

Each workload is one closed batch call (or two, for the atlas) through a
public entry point of ``repro``, and each is the only workload in which
some layer does real work:

* ``sweep_tree`` — the only one where graph generation (Prüfer decode)
  matters;
* ``sweep_path`` — the million-node and memory case, and the only real
  work for the checker kernel;
* ``sweep_balls`` — the only one where the frontier scheduler grows balls
  and the only one that forks a pool (and publishes to shared memory);
* ``census_atlas`` — the only one for the Theorem-7 decider and the
  result store;
* ``lint_corpus`` — the only one for the static analyzer.

A workload's operations are the units the failure share counts: ID-sample
runs in the sweeps, problems in the atlas, files in lint.  An operation
fails if the entry call raises or the operation fails its check.
"""

from __future__ import annotations

import math
import os
import tarfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: the frozen lint input: every ``*.py`` under ``src tests benchmarks
#: examples`` at the commit named in the archive's pax header, so a change
#: that adds or deletes source leaves this workload's input unchanged
CORPUS_ARCHIVE = os.path.join(HERE, "lint_corpus.tar.gz")
CORPUS_COMMIT = "a6ffe58ae9cab052375e4b6e8a07bdc1fa4a3a13"
CORPUS_PATHS = ("src", "tests", "benchmarks", "examples")
CORPUS_FILES = 136

#: atlas prefixes ``(max_labels, delta, problems, region counts)``: the
#: first problems of each sorted canonical stream, and the counts the
#: decider gave them when the benchmark was defined (at most 121 DFS tries
#: per problem, far below the 4096-function budget)
ATLAS_PARTS = (
    (3, 2, 3000, {"O(1)": 752, "logstar-regime": 176,
                  "no-good-function": 2072}),
    (2, 3, 2500, {"O(1)": 190, "no-good-function": 2310}),
)

#: registry problems whose Theorem-7 class is known independently of the
#: decider: a free labeling and an all-equal labeling are solvable in zero
#: rounds, and 2-colouring a path needs a linear number of rounds
LANDMARKS = {"free_labeling": "O(1)", "all_equal": "O(1)",
             "edge_2coloring": "no-good-function"}

#: Cole–Vishkin finishes in O(log* n) rounds; log* of the n^3 ID space is 5
CV_ROUND_LIMIT = 64

Check = Tuple[int, int, List[str]]  # (attempted, failed, problems)


@dataclass(frozen=True)
class Workload:
    """``prepare(workdir, scratch)`` does the set-up and returns the
    context ``run(context, seed)`` needs; ``items(result)`` counts the
    work items for ``items_per_s``; ``check(result)`` returns
    ``(attempted, failed, problems)`` over the operations."""

    name: str
    prepare: Callable[[str, str], object]
    run: Callable[[object, int], object]
    items: Callable[[object], int]
    check: Callable[[object], Check]
    operations: int


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepConfig:
    family: str
    sizes: Tuple[int, ...]
    algorithm: str
    workers: int
    samples: int
    instances: int  # the family's default_count, which the sweep uses
    lcl: bool  # whether the algorithm declares the LCL it solves

    @property
    def runs_per_cell(self) -> int:
        return self.instances * self.samples


def _sweep_prepare(config: SweepConfig):
    def prepare(workdir: str, scratch: str):
        from repro.sweep import SweepRunner

        return SweepRunner, config
    return prepare


def _sweep_run(context, seed: int):
    runner_cls, config = context
    runner = runner_cls(workers=config.workers, samples=config.samples,
                        check=True)
    return config, runner.run([config.family], list(config.sizes),
                              [config.algorithm], seed=seed)


def _sweep_items(result) -> int:
    config, payload = result
    return sum(cell["runs"] * cell["instance_n"]["max"]
               for cell in payload["cells"])


def _sweep_checker(round_limit: Callable[[int], int]):
    """Per cell: the expected run count at the requested size, every run
    valid where the algorithm declares an LCL, and the worst case within
    ``round_limit(n)``.  A cell that misses its round limit fails all its
    runs; a violating run fails itself."""
    def check(result) -> Check:
        config, payload = result
        expected = config.runs_per_cell * len(config.sizes)
        problems: List[str] = []
        failed = 0
        seen = 0
        for cell in payload["cells"]:
            n, runs = cell["n"], cell["runs"]
            seen += runs
            where = f"{config.algorithm} on {config.family} n={n}"
            if runs != config.runs_per_cell:
                problems.append(f"{where}: {runs} runs, expected "
                                f"{config.runs_per_cell}")
            if cell["instance_n"] != {"min": n, "max": n}:
                problems.append(f"{where}: instance sizes "
                                f"{cell['instance_n']}")
                failed += runs
                continue
            worst = cell["worst_case"]["max"]
            if worst > round_limit(n):
                problems.append(f"{where}: worst case {worst} rounds "
                                f"exceeds {round_limit(n)}")
                failed += runs
                continue
            validity = cell["validity"]
            if not config.lcl:
                if validity is not None:
                    problems.append(f"{where}: validity {validity} for an "
                                    "algorithm that declares no LCL")
            elif validity is None or (
                    validity["valid"] + validity["violations"] != runs):
                problems.append(f"{where}: validity {validity}")
                failed += runs
            elif validity["violations"]:
                problems.append(f"{where}: {validity['violations']} "
                                "violating runs")
                failed += validity["violations"]
        failed += max(0, expected - seen)
        return expected, min(failed, expected), problems
    return check


def _sweep(name: str, config: SweepConfig,
           round_limit: Callable[[int], int]) -> Workload:
    return Workload(name, _sweep_prepare(config), _sweep_run, _sweep_items,
                    _sweep_checker(round_limit),
                    config.runs_per_cell * len(config.sizes))


# ----------------------------------------------------------------------
# census atlas
# ----------------------------------------------------------------------
def _atlas_prepare(workdir: str, scratch: str):
    from repro.gap.census import run_atlas

    store = os.path.join(scratch, "store")
    os.makedirs(store)
    return run_atlas, store


def _atlas_run(context, seed: int):
    run_atlas, store = context
    return [
        run_atlas(max_labels=labels, delta=delta, workers=1,
                  max_problems=problems, store=store)
        for labels, delta, problems, _counts in ATLAS_PARTS
    ]


def _atlas_items(atlases) -> int:
    return sum(a["atlas"]["canonical_problems"] for a in atlases)


def _atlas_check(atlases) -> Check:
    """Region counts against the pins, landmarks against their known
    classes.  A count above its pin means at least that many problems
    moved region; each is one failed operation."""
    attempted = sum(part[2] for part in ATLAS_PARTS)
    problems: List[str] = []
    failed = 0
    for (labels, delta, prefix, pins), atlas in zip(ATLAS_PARTS, atlases):
        where = f"ml{labels}/delta{delta} prefix {prefix}"
        counts = {k: v["problems"] for k, v in atlas["regions"].items()}
        if atlas["atlas"]["canonical_problems"] != prefix:
            problems.append(f"{where}: "
                            f"{atlas['atlas']['canonical_problems']} problems")
            failed += abs(prefix - atlas["atlas"]["canonical_problems"])
        if counts != pins:
            problems.append(f"{where}: regions {counts}, pinned {pins}")
            failed += sum(max(0, counts.get(k, 0) - pins.get(k, 0))
                          for k in set(counts) | set(pins))
        for name, klass in sorted(LANDMARKS.items()):
            mark = atlas["landmarks"].get(name)
            if mark is not None and mark["verdict"] != klass:
                problems.append(f"{where}: landmark {name} is "
                                f"{mark['verdict']}, expected {klass}")
                failed += 1
    marked = set(atlases[0]["landmarks"])
    if not set(LANDMARKS) <= marked:
        problems.append(f"landmarks missing from the first prefix: "
                        f"{sorted(set(LANDMARKS) - marked)}")
        failed += len(set(LANDMARKS) - marked)
    return attempted, min(failed, attempted), problems


# ----------------------------------------------------------------------
# lint corpus
# ----------------------------------------------------------------------
def unpack_corpus(dest: str) -> None:
    """Unpack the frozen corpus under ``dest`` with its relative paths, so
    the per-directory lint severities resolve as in the real tree."""
    with tarfile.open(CORPUS_ARCHIVE, "r:gz") as tar:
        commit = tar.pax_headers.get("comment")
        if commit != CORPUS_COMMIT:
            raise RuntimeError(f"lint corpus records commit {commit!r}, "
                               f"expected {CORPUS_COMMIT}")
        tar.extractall(dest, filter="data")


def _lint_prepare(workdir: str, scratch: str):
    from repro.lint.runner import run_lint

    root = os.path.join(workdir, "corpus")
    unpack_corpus(root)
    return run_lint, root


def _lint_run(context, seed: int):
    run_lint, root = context
    return run_lint(list(CORPUS_PATHS), jobs=1, root=root)


def _lint_check(report) -> Check:
    problems: List[str] = []
    if report.files != CORPUS_FILES:
        problems.append(f"linted {report.files} files, expected "
                        f"{CORPUS_FILES}")
    bad_files = sorted({f.file for f in report.errors})
    if bad_files:
        problems.append(f"{len(report.errors)} errors in {bad_files[:5]}")
    failed = len(bad_files) + abs(CORPUS_FILES - report.files)
    return CORPUS_FILES, min(failed, CORPUS_FILES), problems


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        _sweep("sweep_tree",
               SweepConfig("random_tree", (100_000,), "rake_layering",
                           workers=1, samples=2, instances=4, lcl=False),
               # rake-and-compress layers a tree in O(log n) rounds
               lambda n: 2 * math.ceil(math.log2(n))),
        _sweep("sweep_path",
               SweepConfig("path", (1_000_000,), "cole_vishkin",
                           workers=1, samples=2, instances=1, lcl=True),
               lambda n: CV_ROUND_LIMIT),
        _sweep("sweep_balls",
               SweepConfig("bounded_tree_d3", (64, 256, 1024),
                           "two_coloring", workers=2, samples=3,
                           instances=4, lcl=True),
               # a node of a tree sees its whole component by radius n - 1
               lambda n: n),
        Workload("census_atlas", _atlas_prepare, _atlas_run, _atlas_items,
                 _atlas_check, sum(part[2] for part in ATLAS_PARTS)),
        Workload("lint_corpus", _lint_prepare, _lint_run,
                 lambda report: report.files, _lint_check, CORPUS_FILES),
    )
}
