"""repro.lint — a contract-aware static analyzer for this repository.

The repo's correctness story rests on disciplines stated in prose
(``docs/engine-contract.md``, the :mod:`repro.parallel` docstring) and
pinned by runtime differential tests: every random draw derives from a
``stable_seed`` digest, ``fork_map`` results stay task-ordered, attached
shared-memory graphs are never written, ``decide``/``decide_batch``
stay inside the View API, and per-execution caches reset in ``setup``.
Runtime tests catch a violation only on the inputs they happen to run;
this package catches the *pattern* on every line, at review time — the
same local-checkability idea behind :mod:`repro.lcl.kernel` (verify a
local constraint everywhere, get a global guarantee).

Layout:

* :mod:`repro.lint.core` — the rule framework: :class:`Finding`,
  :class:`Rule`, :class:`ModuleContext` (shared import/scope
  resolution), inline ``# lint: allow(RULE-ID) reason`` suppressions,
  and single-file analysis.
* :mod:`repro.lint.config` — per-directory severity overrides
  (DET rules are errors in ``src/``, relaxed in ``benchmarks/``).
* :mod:`repro.lint.baseline` — the JSON baseline file so CI gates on
  regressions only; every baselined finding must carry a reason.
* :mod:`repro.lint.rules` — the rule packs (DET, ENG, IPD, PAR, SHM,
  STORE).
* :mod:`repro.lint.summaries` / :mod:`repro.lint.callgraph` — the one
  fact extractor (the sites DET001/DET003/ENG001/SHM001 report, the
  per-function summary bits), the project call graph and the fixpoints
  behind the IPD and STORE002 findings.
* :mod:`repro.lint.runner` / ``python -m repro.lint`` — file
  collection, one :func:`repro.parallel.fork_map` pass per file (the
  linter obeys the ordered-fan-out discipline it enforces) and
  deterministic ``text``/``json`` reports, byte-identical at every
  ``--jobs`` count.
"""

from .core import Finding, ModuleContext, Rule, analyze_file, analyze_source
from .rules import all_rules
from .runner import LintReport, run_lint

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "analyze_file",
    "analyze_source",
    "all_rules",
    "LintReport",
    "run_lint",
]
