"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition, so no repetition sees
another's caches or memory high-water mark.  It sets the workload up,
makes the entry call, checks the output and prints one JSON line::

    python3 perfbench/child.py WORKLOAD SEED MODE WORKDIR SCRATCH

``MODE`` is ``plain`` (timed), ``traced`` (timed with layer spans),
``probe`` (set-up only) or ``start`` (the start-up yardstick: import
numpy, nothing else).  ``ready`` in the output is the monotonic time
set-up ended, from which the parent derives the set-up time.  ``speed``
and ``cpu_speed`` are the host's speed against the reference loop
(:class:`clock.Reference`) during the call, sampled in every process
while it runs.  ``wall_s`` excludes what the main process's samples
cost, ``cpu_s`` what all of them cost; a traced call's layer spans
include them.
"""

from __future__ import annotations

import json
import sys
import traceback

import clock
import tracing
from workloads import WORKLOADS

#: reference chunks timed after the call
EDGE_CHUNKS = 16
#: CPU seconds between reference chunks sampled during the call, in the
#: process and in each pool worker it forks
SAMPLE_INTERVAL_S = 0.2
#: with fewer samples than this (a call under 1.6 CPU seconds) the call's
#: speed comes from the chunks after it instead
MIN_SAMPLES = 8


def main(argv) -> int:
    name, seed, mode, workdir, scratch = argv
    if mode == "start":
        import numpy  # noqa: F401 -- the start-up yardstick's whole work
        print(json.dumps({"ready": clock.now()}))
        return 0
    workload = WORKLOADS[name]
    tracer = tracing.install(workdir) if mode == "traced" else None
    reference = clock.Reference(workdir)
    context = workload.prepare(workdir, scratch)
    out = {"ready": clock.now()}
    if mode == "probe":
        print(json.dumps(out))
        return 0
    entry = clock.now()
    cpu = clock.cpu_seconds()
    try:
        with reference.sampling(SAMPLE_INTERVAL_S):
            if tracer is None:
                result = workload.run(context, int(seed))
            else:
                result = tracer.call(tracing.ROOT, workload.run,
                                     (context, int(seed)), {})
    except Exception:
        out.update(attempted=workload.operations,
                   failed=workload.operations,
                   problems=[traceback.format_exc()])
        print(json.dumps(out))
        return 0
    out["wall_s"] = clock.now() - entry - reference.sampled_wall_s
    out["cpu_s"] = clock.cpu_seconds() - cpu - reference.sampled_cpu_s
    samples = reference.samples
    chunks = (samples if len(samples) >= MIN_SAMPLES
              else reference.chunks(EDGE_CHUNKS))
    out["samples"] = len(samples)
    out["speed"] = clock.speed(chunks)
    out["cpu_speed"] = clock.speed(chunks, cpu=True)
    out["peak_rss_mib"] = clock.peak_rss_mib()
    out["items"] = workload.items(result)
    out["attempted"], out["failed"], out["problems"] = workload.check(result)
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
