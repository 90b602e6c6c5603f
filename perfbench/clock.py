"""The benchmark's only reader of clocks and kernel accounting.

Every duration, CPU time, peak RSS and steal count the benchmark reports
is read here, so the determinism lint (DET003) is allowed nowhere else.
``now`` is ``CLOCK_MONOTONIC``, which is shared by every process on the
host: a time taken in the parent before it spawns a child can be
subtracted from a time taken inside that child.

``Reference`` times a fixed pure-Python loop, the yardstick ``run.py``
scales the timed call's durations by (see README.md, "Reference
speed").
"""

from __future__ import annotations

import contextlib
import glob
import os
import resource
import signal
import statistics
import time
from typing import Iterator, List, Optional, Sequence, Tuple

#: one reference chunk: this many iterations of a fixed integer loop
REFERENCE_ITERATIONS = 50_000
#: the chunk's time at the reference speed, a round figure within the
#: 3.5-6 ms it took on the 2-vCPU test host (Python 3.11.7) as its
#: neighbours' load came and went
REFERENCE_NOMINAL_S = 0.005


def now() -> float:
    """Monotonic seconds, comparable across processes."""
    # lint: allow(DET003) the benchmark measures durations; nothing it times reaches a program payload
    return time.perf_counter()


def _thread_cpu() -> float:
    # CLOCK_PROCESS_CPUTIME_ID reads in whole ticks while ITIMER_PROF runs
    # lint: allow(DET003) the benchmark measures durations; nothing it times reaches a program payload
    return time.thread_time()


Chunk = Tuple[float, float]  # one reference chunk's (wall, CPU) seconds


def _time_chunk() -> Chunk:
    wall, cpu = now(), _thread_cpu()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return now() - wall, _thread_cpu() - cpu


def speed(chunks: Sequence[Chunk], cpu: bool = False) -> float:
    """The host's speed over ``chunks``: ``REFERENCE_NOMINAL_S`` over
    their mean time (CPU time if ``cpu``), so a duration times the speed
    is that duration at the reference speed.  The mean of the times, not
    of their inverses: a chunk hit by a burst of steal or preemption
    then counts as it counts in the call (the mean of inverses would
    barely notice a few chunks held up for several chunk lengths)."""
    times = [chunk[1 if cpu else 0] for chunk in chunks]
    return REFERENCE_NOMINAL_S / statistics.fmean(times)


class Reference:
    """Reference chunks timed in this process and its pool workers.

    ``chunks(k)`` times ``k`` chunks in a row.  Inside ``with
    reference.sampling(interval)``, a ``SIGPROF`` handler times one chunk
    every ``interval`` seconds of CPU time, in this process and in every
    process it forks meanwhile, so the host's speed is sampled where and
    while the timed call runs; the chunks end up in ``samples``.  The
    handler runs between bytecodes of a process's main thread.  Forked
    workers inherit the handler but no interval timer, so the timer is
    armed again after each fork, and a worker writes each chunk to its
    own file under ``spill_dir`` as it is timed (pool workers leave
    through ``os._exit``).  What the samples cost is in
    ``sampled_wall_s`` (this process's) and ``sampled_cpu_s`` (this
    process's and its workers'), for the caller to take out of its own
    measurement.
    """

    def __init__(self, spill_dir: str) -> None:
        self.spill_dir = spill_dir
        self.samples: List[Chunk] = []
        self.sampled_wall_s = 0.0
        self.sampled_cpu_s = 0.0
        self._interval: Optional[float] = None
        self._spill = None

    @staticmethod
    def chunks(count: int) -> List[Chunk]:
        return [_time_chunk() for _ in range(count)]

    def _sample(self, signum, frame) -> None:
        wall, cpu = _time_chunk()
        if self._spill is not None:
            self._spill.write(f"{wall!r} {cpu!r}\n")
        else:
            self.samples.append((wall, cpu))
            self.sampled_wall_s += wall
            self.sampled_cpu_s += cpu

    def _after_fork_in_child(self) -> None:
        if self._interval is None:
            return
        # line-buffered: every sample reaches the file before os._exit
        self._spill = open(os.path.join(self.spill_dir,
                                        f"samples-{os.getpid()}.txt"),
                           "w", encoding="ascii", buffering=1)
        signal.setitimer(signal.ITIMER_PROF, self._interval, self._interval)

    @contextlib.contextmanager
    def sampling(self, interval: float) -> Iterator["Reference"]:
        os.register_at_fork(after_in_child=self._after_fork_in_child)
        previous = signal.signal(signal.SIGPROF, self._sample)
        self._interval = interval
        signal.setitimer(signal.ITIMER_PROF, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
            self._interval = None
        for path in sorted(glob.glob(os.path.join(self.spill_dir,
                                                  "samples-*.txt"))):
            with open(path, encoding="ascii") as fh:
                for line in fh:
                    wall, cpu = (float(v) for v in line.split())
                    self.samples.append((wall, cpu))
                    self.sampled_cpu_s += cpu


def cpu_seconds() -> float:
    """User plus system time of this process and of every child it has
    reaped, in seconds (pool workers are reaped when their pool closes)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib() -> float:
    """High-water resident set size of this process or its largest
    reaped child, in MiB (``ru_maxrss`` is KiB on Linux)."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def cpu_ticks() -> Tuple[int, int]:
    """``(busy, steal)`` ticks summed over all CPUs from ``/proc/stat``,
    or ``(0, 0)`` where it is unreadable.  Steal is time the hypervisor
    ran someone else while this VM wanted the CPU."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0, 0
    if not fields or fields[0] != "cpu":
        return 0, 0
    # user nice system idle iowait irq softirq steal ...
    values = [int(v) for v in fields[1:9]]
    values += [0] * (8 - len(values))
    busy = values[0] + values[1] + values[2] + values[5] + values[6]
    return busy, values[7]
