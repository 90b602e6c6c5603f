"""Gap-decider compile cache — the Theorem-7 census hot path.

The problem-space census (:mod:`repro.gap.census`) runs
``decide_node_averaged_class`` over every canonical problem of an
enumerated space, and each decision replays the testing procedure once
per candidate function.  The :class:`repro.gap.classes.GapCache`
compiles each problem into bitmask tables (``g`` masks and the transfer
rows of compress paths) and shares them, the rake closures and the
maximal rectangles across those replays.  This benchmark times the
decider with and without the cache on two spaces, and asserts the
verdicts (witness choices included) are identical either way:

* the census smoke space (``max_labels=2, delta=2`` — the space the CI
  census smoke job runs), at ``ell`` 2 and 3: gate **>= 2x**;
* the first 2500 canonical problems of ``max_labels=2, delta=3``, where
  paths carry pendant label-sets: gate **>= 3.5x** (a cache that runs
  the per-label path DP for every new path stays near 2x there).
"""

import itertools

from harness import record_table, timed

from repro.gap import decide_node_averaged_class
from repro.gap.canonical import iter_space
from repro.gap.census import _decode, spec_to_problem

#: (max_labels, delta, canonical prefix or None for the whole space,
#: ells, repeats, speedup gate)
SPACES = (
    (2, 2, None, (2, 3), 3, 2.0),
    (2, 3, 2500, (2,), 2, 3.5),
)


def decide_space(encodings, delta, ells, memoize: bool):
    """Decide every canonical problem at each ``ell``; problems are
    rebuilt per run so neither path benefits from a previous run's
    per-problem memos."""
    jobs = [
        (spec_to_problem(_decode(enc)), ell)
        for ell in ells for enc in encodings
    ]
    verdicts, wall, _rss = timed(_decide_jobs, jobs, delta, memoize)
    return wall, [
        (v.klass, v.detail, v.witness and v.witness.choices)
        for v in verdicts
    ]


def _decide_jobs(jobs, delta, memoize: bool):
    return [
        decide_node_averaged_class(p, delta=delta, ell=ell, memoize=memoize)
        for p, ell in jobs
    ]


def test_gap_decider_memoization_speedup():
    rows, notes, failures = [], [], []
    for max_labels, delta, prefix, ells, repeats, gate in SPACES:
        encodings = [enc for enc, _ in itertools.islice(
            iter_space(max_labels, delta), prefix)]
        space = (f"ml{max_labels}/delta{delta}, {len(encodings)} "
                 f"canonical, ell in {ells}")
        best = {True: float("inf"), False: float("inf")}
        verdicts = {}
        for _ in range(repeats):
            for memoize in (True, False):
                wall, got = decide_space(encodings, delta, ells, memoize)
                best[memoize] = min(best[memoize], wall)
                verdicts[memoize] = got
        speedup = best[False] / best[True]
        rows += [
            (space, "unmemoized", f"{best[False]:.4f}", "1.0", ""),
            (space, "GapCache", f"{best[True]:.4f}", f"{speedup:.2f}",
             f">= {gate}x"),
        ]
        notes.append(f"{space}: best of {repeats} repeats per path; "
                     f"verdicts identical: "
                     f"{verdicts[True] == verdicts[False]}")
        assert verdicts[True] == verdicts[False], (
            f"{space}: the cache changed a Theorem-7 verdict"
        )
        if speedup < gate:
            failures.append(f"{space}: cached decider only {speedup:.2f}x "
                            f"faster; need >= {gate}x")

    record_table(
        "gap_decider",
        "Gap decider: compiled GapCache vs the uncached oracle",
        ["space", "path", "wall_s", "speedup", "gate"],
        rows,
        notes=notes,
    )
    assert not failures, "; ".join(failures)
