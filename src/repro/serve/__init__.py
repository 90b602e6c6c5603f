"""Query front end over the content-addressed result store.

The expensive pipelines in this repro are build-once/query-many: the
Theorem-7 decision procedure and the node-averaged sweeps are pure
functions of their naming values, and :mod:`repro.store` persists every
result under a content address.  ``python -m repro.serve`` is the online
half of that split — it answers from the store in milliseconds:

* ``classify`` — the Theorem-7 node-averaged class of one LCL, named
  from the demo registry (:data:`repro.gap.problems.PROBLEMS`) or given
  as an inline extensional spec.  The problem is canonicalized exactly
  as the census does, so a census-populated store answers directly.
* ``curve`` — the node-averaged complexity curve of one algorithm on
  one family across sizes, assembled from stored sweep units and
  classified as flat / intermediate / linear growth.
* ``atlas`` — the published landscape atlas of one bounded problem
  space: every canonical black-white LCL mapped to its Figure-2 region
  (built and stored by ``python -m repro.gap.census --atlas --store``).
* ``stats`` — store introspection: hit/miss counters, per-kind entry
  counts and on-disk footprint.

Reads never compute.  A query whose key is absent exits with status 3
and says so — unless ``--build`` is given, which computes the missing
result through the normal pipeline (the same worker code the census and
sweeps run) and stores it, so the next query is a hit.  Served and
freshly built answers are **byte-identical**: the store carries exactly
the payload the pipelines emit.

::

    python -m repro.serve --store cas classify --problem edge_3coloring
    python -m repro.serve --store cas curve --family random_tree \
        --algorithm two_coloring --sizes 64,256 --build
    python -m repro.serve --store cas stats
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

__all__ = ["main"]

#: exit status for a query whose result is not in the store (and
#: ``--build`` was not given) — distinct from argparse's 2
EXIT_MISS = 3


def _classify(args: argparse.Namespace) -> int:
    from ..analysis.landscape import regions_for_verdict
    from ..gap.census import (
        ProblemSpec, canonical_encoding, decide_encoding, spec_from_problem,
        spec_name, verdict_key, _decode_verdict,
    )
    from ..gap.problems import PROBLEMS
    from ..store import ResultStore, canonical_json

    store = ResultStore(args.store)
    if args.problem is not None:
        factory = PROBLEMS.get(args.problem)
        if factory is None:
            print(f"unknown problem {args.problem!r}; known: "
                  f"{', '.join(sorted(PROBLEMS))}", file=sys.stderr)
            return 2
        name = args.problem
        spec = spec_from_problem(factory(), args.delta)
    else:
        try:
            raw = json.loads(args.spec)
            spec = ProblemSpec(
                int(raw["n_in"]), int(raw["n_out"]), int(raw["delta"]),
                frozenset(
                    tuple(sorted((int(i), int(o)) for i, o in ms))
                    for ms in raw["white"]
                ),
                frozenset(
                    tuple(sorted((int(i), int(o)) for i, o in ms))
                    for ms in raw["black"]
                ),
            )
        except (ValueError, KeyError, TypeError) as exc:
            print(f"bad --spec JSON: {exc}", file=sys.stderr)
            return 2
        name = "inline-spec"
    enc = canonical_encoding(spec)
    key = verdict_key(store, enc, args.ell, args.max_functions)
    payload = store.get(key)
    verdict = None if payload is None else _decode_verdict(payload)
    if verdict is None:
        if not args.build:
            print(f"miss: verdict for {spec_name(enc)} not in store "
                  f"(rerun with --build, or populate via "
                  f"python -m repro.gap.census --store)", file=sys.stderr)
            return EXIT_MISS
        decided = decide_encoding(enc, args.ell, args.max_functions)
        store.put(key, decided.to_payload())
        verdict = (decided.klass, decided.detail)
        print("computed and stored", file=sys.stderr)
    else:
        print("served from store", file=sys.stderr)
    klass, detail = verdict
    sys.stdout.write(canonical_json({
        "problem": name,
        "key": spec_name(enc),
        "verdict": klass,
        "detail": detail,
        "regions": [
            {"kind": r.kind, "low": r.low, "high": r.high,
             "source": r.source}
            for r in regions_for_verdict(klass)
        ],
    }))
    return 0


def _curve(args: argparse.Namespace) -> int:
    from ..families import get_family
    from ..gap.census import classify_growth
    from ..store import ResultStore, canonical_json
    from ..sweep import SweepRunner, get_algorithm, unit_key

    store = ResultStore(args.store)
    get_family(args.family)
    get_algorithm(args.algorithm)
    instances = args.instances or get_family(args.family).default_count
    if not args.build:
        missing = []
        for n in args.sizes:
            for index in range(instances):
                key = unit_key(store, args.family, n, args.seed, index,
                               args.algorithm, args.engine, args.id_mode,
                               args.check, args.samples)
                if key not in store:
                    missing.append((n, index))
        if missing:
            print(f"miss: {len(missing)} sweep unit(s) not in store, "
                  f"first {missing[0]} (rerun with --build, or populate "
                  f"via python -m repro.sweep --store)", file=sys.stderr)
            return EXIT_MISS
    runner = SweepRunner(
        workers=1, samples=args.samples, instances=args.instances,
        engine=args.engine, id_mode=args.id_mode, check=args.check,
        store=store,
    )
    payload = runner.run([args.family], list(args.sizes),
                         [args.algorithm], args.seed)
    if runner.last_cache["misses"] == 0:
        print("served from store", file=sys.stderr)
    else:
        print(f"computed and stored "
              f"({runner.last_cache['misses']} unit(s))", file=sys.stderr)
    points = [
        {"n": cell["n"], "node_averaged": cell["node_averaged"]["max"]}
        for cell in payload["cells"]
    ]
    growth = None
    if len(points) >= 2:
        growth = classify_growth(
            [(p["n"], p["node_averaged"]) for p in points]
        )
    sys.stdout.write(canonical_json({
        "family": args.family,
        "algorithm": args.algorithm,
        "spec": payload["spec"],
        "points": points,
        "growth": growth,
    }))
    return 0


def _atlas(args: argparse.Namespace) -> int:
    from ..gap.census import atlas_key, run_atlas
    from ..store import ResultStore, canonical_json

    store = ResultStore(args.store)
    key = atlas_key(store, args.max_labels, args.max_inputs, args.delta,
                    args.ell, args.max_functions)
    payload = store.get(key)
    if not (isinstance(payload, dict) and "atlas" in payload):
        if not args.build:
            print(f"miss: atlas for max-labels {args.max_labels} / "
                  f"delta {args.delta} not in store (rerun with --build, "
                  f"or publish via python -m repro.gap.census --atlas "
                  f"--store)", file=sys.stderr)
            return EXIT_MISS
        # build through the census pipeline, which reuses the verdicts
        # already checkpointed in this store and publishes the complete
        # atlas under the same key we just missed
        payload = run_atlas(
            max_labels=args.max_labels, delta=args.delta,
            max_inputs=args.max_inputs, ell=args.ell,
            max_functions=args.max_functions, workers=args.workers,
            store=store,
        )
        print("computed and stored", file=sys.stderr)
    else:
        print("served from store", file=sys.stderr)
    sys.stdout.write(canonical_json(payload))
    return 0


def _stats(args: argparse.Namespace) -> int:
    from ..store import ResultStore, canonical_json

    sys.stdout.write(canonical_json(ResultStore(args.store).stats()))
    return 0


def _csv_ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def main(argv: Optional[Sequence[str]] = None) -> int:
    from ..local.ids import ID_MODES
    from ..sweep import ENGINE_CHOICES

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Answer classification and complexity-curve queries "
        "from the content-addressed result store in milliseconds; "
        "--build computes and stores what is missing.",
    )
    parser.add_argument("--store", required=True, metavar="PATH",
                        help="result store directory (see docs/store.md)")
    sub = parser.add_subparsers(dest="command", required=True)

    classify = sub.add_parser(
        "classify",
        help="Theorem-7 node-averaged class of one LCL (exit 3 on a "
        "store miss without --build)",
    )
    which = classify.add_mutually_exclusive_group(required=True)
    which.add_argument("--problem", default=None,
                       help="demo problem name "
                       "(repro.gap.problems.PROBLEMS)")
    which.add_argument("--spec", default=None, metavar="JSON",
                       help='inline extensional spec: {"n_in", "n_out", '
                       '"delta", "white": [[[i,o],...],...], "black": ...}')
    classify.add_argument("--delta", type=int, default=2,
                          help="degree bound of the tree universe "
                          "(default: 2)")
    classify.add_argument("--ell", type=int, default=2,
                          help="compress path-length parameter "
                          "(default: 2)")
    classify.add_argument("--max-functions", type=int, default=4096,
                          help="DFS candidate budget (default: 4096)")
    classify.add_argument("--build", action="store_true",
                          help="on a miss, decide the problem and store "
                          "the verdict instead of exiting 3")
    classify.set_defaults(run=_classify)

    curve = sub.add_parser(
        "curve",
        help="node-averaged complexity curve of one algorithm on one "
        "family across sizes, from stored sweep units (exit 3 on any "
        "miss without --build)",
    )
    curve.add_argument("--family", required=True)
    curve.add_argument("--algorithm", required=True)
    curve.add_argument("--sizes", type=_csv_ints, default=[64, 256],
                       metavar="N[,N...]",
                       help="comma-separated sizes (default: 64,256)")
    curve.add_argument("--seed", type=int, default=0)
    curve.add_argument("--samples", type=int, default=3)
    curve.add_argument("--instances", type=int, default=None)
    curve.add_argument("--engine", choices=list(ENGINE_CHOICES),
                       default="auto")
    curve.add_argument("--id-mode", choices=sorted(ID_MODES),
                       default="random", dest="id_mode")
    # matches the sweep CLI default (no --check): stored units key on
    # the check flag, so the defaults must agree for CLI-populated
    # stores to answer CLI curve queries
    curve.add_argument("--check", action="store_true",
                       help="query/compute validity-checked units "
                       "(must match how the store was populated)")
    curve.add_argument("--build", action="store_true",
                       help="on misses, simulate the missing units and "
                       "store them instead of exiting 3")
    curve.set_defaults(run=_curve)

    atlas = sub.add_parser(
        "atlas",
        help="published landscape atlas of one bounded problem space "
        "(exit 3 on a store miss without --build)",
    )
    atlas.add_argument("--max-labels", type=int, default=2,
                       help="max |Sigma_out| of the atlas (default: 2)")
    atlas.add_argument("--max-inputs", type=int, default=1,
                       help="max |Sigma_in| of the atlas (default: 1)")
    atlas.add_argument("--delta", type=int, default=2,
                       help="degree bound of the tree universe "
                       "(default: 2)")
    atlas.add_argument("--ell", type=int, default=2,
                       help="compress path-length parameter (default: 2)")
    atlas.add_argument("--max-functions", type=int, default=4096,
                       help="DFS candidate budget (default: 4096)")
    atlas.add_argument("--workers", type=int, default=1,
                       help="worker processes for --build (default: 1)")
    atlas.add_argument("--build", action="store_true",
                       help="on a miss, run the census atlas pipeline "
                       "(reusing any checkpointed verdicts) and store "
                       "the atlas instead of exiting 3")
    atlas.set_defaults(run=_atlas)

    stats = sub.add_parser(
        "stats", help="store counters, per-kind entries and footprint",
    )
    stats.set_defaults(run=_stats)

    args = parser.parse_args(argv)
    return args.run(args)
