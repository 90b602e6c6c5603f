"""The performance ledger: every BENCHMARK.json workload, end to end and
layer by layer, in one committed JSON file.

Run from the root of a checkout::

    python benchmarks/ledger.py --out BENCH_26.json
    python benchmarks/ledger.py --out BENCH_27.json --compare BENCH_26.json
    python benchmarks/ledger.py --ledger BENCH_27.json --compare BENCH_26.json

``--out`` runs ``perfbench/run.py --seconds 0`` for each workload that
BENCHMARK.json lists, three times at ``--trace 0`` (the end-to-end
metrics) and once at ``--trace 1`` (the per-layer metrics), and writes
the ledger with sorted keys: per workload and run, perfbench's host
facts, its ``correct``/``attempted``/``failed`` verdict and its metrics.
Each end-to-end metric is the median of its three runs, so one slow run
of the host does not move it; the entry is correct only if all three
runs are, and its ``failed`` is the largest of the three.  ``--ledger``
reads an existing ledger instead of running anything.

``--compare OLD.json`` prints every metric's ratio (new / old) and flags
each end-to-end metric that is worse than OLD by more than its
BENCHMARK.json bound, and each run that perfbench did not report
correct; the exit status is 1 if anything is flagged.  The ledger takes
no time of its own: every figure in it is perfbench's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RUNS = (("end_to_end", 0), ("per_layer", 1))
#: ``--trace 0`` runs per workload, whose medians the ledger records
END_TO_END_REPEATS = 3
#: perfbench's workload seed; only the sweeps draw from it
SEED = 0


def load_benchmark() -> Dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def run_perfbench(workload: str, trace: int) -> Dict:
    """One ``perfbench/run.py --seconds 0`` run: its host facts, verdict
    and metrics, from the last two lines of its standard output."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"host": detail["host"], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": result["metrics"]}


def median_run(runs: List[Dict]) -> Dict:
    """One ledger entry from repeated runs of a workload: each metric's
    median, correct only if every run is, the largest ``failed``, and
    the first run's host facts and ``attempted``."""
    first = runs[0]
    return {"host": first["host"],
            "correct": all(run["correct"] for run in runs),
            "attempted": first["attempted"],
            "failed": max(run["failed"] for run in runs),
            "metrics": {
                metric: {**spec, "value": statistics.median(
                    run["metrics"][metric]["value"] for run in runs)}
                for metric, spec in first["metrics"].items()}}


def build_ledger(benchmark: Dict) -> Dict:
    workloads = {}
    for spec in benchmark["workloads"]:
        name = spec["name"]
        workloads[name] = {}
        for run, trace in RUNS:
            repeats = END_TO_END_REPEATS if run == "end_to_end" else 1
            runs = []
            for _ in range(repeats):
                print(f"ledger: {name} --trace {trace}", file=sys.stderr)
                runs.append(run_perfbench(name, trace))
            workloads[name][run] = median_run(runs)
    return {"seed": SEED, "workloads": workloads}


def compare(new: Dict, old: Dict, benchmark: Dict) -> List[str]:
    """Print each metric's ratio to OLD; return what is flagged, one line
    each: end-to-end metrics worse than their bound, and runs that are
    not correct."""
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    flagged: List[str] = []
    for name in sorted(set(new["workloads"]) & set(old["workloads"])):
        for run, _trace in RUNS:
            if not new["workloads"][name][run]["correct"]:
                flagged.append(f"{name} {run} run is not correct")
            now = new["workloads"][name][run]["metrics"]
            then = old["workloads"][name].get(run, {}).get("metrics", {})
            for metric in sorted(set(now) & set(then)):
                a, b = then[metric]["value"], now[metric]["value"]
                ratio = f"{b / a:.3f}" if a else "n/a"
                flag = ""
                spec = bounds.get(metric) if run == "end_to_end" else None
                if spec is not None and a:
                    change = (b - a) / a
                    worse = change if spec["better"] == "lower" else -change
                    if worse > spec["bound"]:
                        flag = f"  REGRESSION (bound {spec['bound']:.2f})"
                        flagged.append(f"{name} {metric}: {a:.4g} -> {b:.4g}")
                print(f"{name:14s} {metric:34s} {a:12.4g} {b:12.4g} "
                      f"{ratio:>7s}{flag}")
    return flagged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/ledger.py", description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--out", help="run perfbench and write the ledger")
    source.add_argument("--ledger", help="read this ledger, run nothing")
    parser.add_argument("--compare", metavar="OLD.json",
                        help="print ratios to an older ledger")
    args = parser.parse_args(argv)

    benchmark = load_benchmark()
    if args.out:
        ledger = build_ledger(benchmark)
        with open(args.out, "w") as fh:
            json.dump(ledger, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        with open(args.ledger) as fh:
            ledger = json.load(fh)
    if args.compare:
        with open(args.compare) as fh:
            old = json.load(fh)
        flagged = compare(ledger, old, benchmark)
        for line in flagged:
            print(f"ledger: flagged: {line}", file=sys.stderr)
        return 1 if flagged else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
