"""``python -m repro.lint`` — the analyzer's command line.

Exit codes: 0 clean (or warnings only), 1 errors found, 2 usage errors
(a bad option or a path that does not exist).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from .runner import run_lint

__all__ = ["main"]

_DEFAULT_PATHS = ["src", "tests", "benchmarks", "examples"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Contract-aware static analyzer for this repository "
                    "(determinism, engine and shared-memory disciplines).",
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint "
             f"(default: {' '.join(_DEFAULT_PATHS)})")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is byte-identical at any --jobs)")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fork_map workers for file analysis (default: 1)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the active rules and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    opts = parser.parse_args(argv)

    if opts.list_rules:
        from .rules import all_rules
        for rule in all_rules():
            print(f"{rule.id}  [{rule.default_severity}]  {rule.summary}")
        return 0

    paths: List[str] = opts.paths or [
        p for p in _DEFAULT_PATHS if os.path.exists(p)]
    if opts.jobs < 1:
        parser.error("--jobs must be >= 1")
    try:
        report = run_lint(paths, jobs=opts.jobs)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = report.to_json() if opts.format == "json" else report.to_text()
    sys.stdout.write(out)
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
