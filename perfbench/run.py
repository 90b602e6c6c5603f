"""Run one benchmark workload and print its metrics (see README.md).

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_tree --seed 1 --seconds 10 --trace 0

A run repeats the workload in fresh processes (``child.py``) until
``--seconds`` have passed and at least three repetitions are done, and
reports medians: with ``--trace 0`` the end-to-end metrics (``wall_s``,
``cpu_s``, ``setup_s``, ``peak_rss_mib``, ``items_per_s``), with
``--trace 1`` the per-layer metrics of :mod:`tracing` from alternating
plain and traced repetitions.  Every duration is taken at the reference
speed (README.md, "Reference speed"): the call's are scaled by the
host's speed against a fixed reference loop timed while the call runs,
each set-up time by a start-up yardstick timed right after it.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds host facts and every repetition's raw and scaled figures.

Bytecode is compiled into ``src`` before the first repetition; each
repetition works in ``.perfbench_work/`` of the checkout, and its census
store lives on tmpfs (``/dev/shm``), removed when the repetition ends.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from typing import Dict, List

import clock
import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMPFS = "/dev/shm"

MIN_REPS = 3
MIN_SETUPS = 5
#: a ``start`` child's set-up time (interpreter start-up and numpy's
#: import) at the reference speed, a round figure within the 0.10-0.23 s
#: it took on the 2-vCPU test host (Python 3.11.7, numpy 2.4.6)
START_NOMINAL_S = 0.15
#: a run must end within 180 s; no repetition starts that could end later
DEADLINE_S = 165.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mib": "MiB", "items_per_s": "1/s"}


class RepetitionFailed(RuntimeError):
    """A child process crashed, printed no result, or ran out of time."""


def _spawn(workload: str, seed: int, mode: str, workdir: str, index: int,
           deadline: float) -> Dict:
    """One child process; its JSON line plus ``setup_s``.  The child runs
    in its own session so that a timeout can stop it and any pool
    workers it forked."""
    repdir = os.path.join(workdir, f"rep{index}")
    scratch = os.path.join(TMPFS, f"perfbench-{os.getpid()}-{index}")
    os.makedirs(repdir)
    os.makedirs(scratch)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload,
           str(seed), mode, repdir, scratch]
    try:
        spawned = clock.now()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, deadline - clock.now()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RepetitionFailed(f"{mode} repetition timed out")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.rmtree(repdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepetitionFailed(
            f"{mode} repetition exited {proc.returncode}: "
            f"{err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def _at_reference_speed(rep: Dict) -> Dict:
    """Scale the repetition's durations to the reference speed, keeping
    the raw figures under a ``raw_`` prefix: set-up by the start-up
    yardstick timed right after it (``start_s``), the call's wall-clock
    figures by the speed during it and ``cpu_s`` by the CPU-time speed
    during it."""
    rep["raw_setup_s"] = rep["setup_s"]
    if "start_s" in rep:
        rep["setup_s"] *= START_NOMINAL_S / rep["start_s"]
    if "wall_s" in rep:
        rep["raw_wall_s"], rep["raw_cpu_s"] = rep["wall_s"], rep["cpu_s"]
        rep["wall_s"] *= rep["speed"]
        rep["cpu_s"] *= rep["cpu_speed"]
    for name, value in rep.get("layers", {}).items():
        if tracing.LAYER_UNITS[name] in ("s", "ms"):
            rep["layers"][name] = value * rep["speed"]
    return rep


def _measure(args, workdir: str) -> Dict[str, List[Dict]]:
    """Repetitions until ``--seconds`` have passed and at least
    ``MIN_REPS`` are done; traced runs alternate plain and traced.  In an
    untraced run, every set-up is followed by a ``start`` child, the
    yardstick its set-up time is scaled by."""
    modes = ["plain", "traced"] if args.trace else ["plain"]
    runs: Dict[str, List[Dict]] = {"plain": [], "traced": [], "probe": []}
    start = clock.now()
    deadline = start + DEADLINE_S
    index = 0

    def spawn(mode: str) -> Dict:
        nonlocal index
        rep = _spawn(args.workload, args.seed, mode, workdir, index, deadline)
        index += 1
        if not args.trace:
            rep["start_s"] = _spawn(args.workload, args.seed, "start",
                                    workdir, index, deadline)["setup_s"]
            index += 1
        return _at_reference_speed(rep)

    longest = 0.0
    while True:
        for mode in modes:
            begun = clock.now()
            runs[mode].append(spawn(mode))
            longest = max(longest, clock.now() - begun)
        done = min(len(runs[m]) for m in modes)
        elapsed = clock.now() - start
        if elapsed >= args.seconds and done >= (1 if args.trace else MIN_REPS):
            break
        if elapsed + len(modes) * longest > DEADLINE_S:
            break
    if not args.trace:
        while len(runs["plain"]) + len(runs["probe"]) < MIN_SETUPS:
            runs["probe"].append(spawn("probe"))
    return runs


def _median(reps: List[Dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def _host_facts(ticks_before, ticks_after) -> Dict:
    busy = ticks_after[0] - ticks_before[0]
    steal = ticks_after[1] - ticks_before[1]
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "steal_ticks": steal,
        "busy_ticks": busy,
        "steal_share": steal / (busy + steal) if busy + steal else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    if not os.path.isdir(TMPFS):
        print(f"perfbench: {TMPFS} (tmpfs) is required", file=sys.stderr)
        return 2
    if not (compileall.compile_dir(SRC, quiet=2)
            and compileall.compile_dir(HERE, quiet=2)):
        print("perfbench: compiling the sources failed", file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, str(os.getpid()))
    os.makedirs(workdir)
    ticks_before = clock.cpu_ticks()
    try:
        runs = _measure(args, workdir)
    except RepetitionFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:  # another run still uses it
            pass
    ticks_after = clock.cpu_ticks()

    timed = runs["plain"] + runs["traced"]
    attempted = sum(r["attempted"] for r in timed)
    failed = sum(r["failed"] for r in timed)
    problems = sorted({p for r in timed for p in r["problems"]})
    plain = [r for r in runs["plain"] if "wall_s" in r]
    traced = [r for r in runs["traced"] if "wall_s" in r]
    if not plain or (args.trace and not traced):
        print("perfbench: no repetition completed:\n" + "\n".join(problems),
              file=sys.stderr)
        return 1

    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        untraced = _median(plain, "wall_s")
        layers["trace.overhead_s"] = _median(traced, "wall_s") - untraced
        layers["trace.overhead_share"] = layers["trace.overhead_s"] / untraced
        layers["host.speed"] = _median(plain + traced, "speed")
        layers["host.raw_wall_s"] = _median(plain, "raw_wall_s")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.LAYER_UNITS.items()}
    else:
        setups = [r["setup_s"] for r in runs["plain"] + runs["probe"]]
        values = {
            "wall_s": _median(plain, "wall_s"),
            "cpu_s": _median(plain, "cpu_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": _median(plain, "peak_rss_mib"),
            "items_per_s": statistics.median(r["items"] / r["wall_s"]
                                             for r in plain),
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": _host_facts(ticks_before, ticks_after),
        "repetitions": [
            {k: r[k] for k in ("wall_s", "cpu_s", "setup_s", "raw_wall_s",
                               "raw_cpu_s", "raw_setup_s", "start_s", "speed",
                               "cpu_speed", "samples", "peak_rss_mib",
                               "items", "failed") if k in r}
            | {"mode": mode}
            for mode in ("plain", "traced", "probe") for r in runs[mode]
        ],
        "problems": problems,
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
