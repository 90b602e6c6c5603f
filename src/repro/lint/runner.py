"""File collection, one-pass parallel analysis, deterministic reports.

Each file is read, parsed and tokenized once, inside a
:func:`repro.parallel.fork_map` worker: the worker extracts the file's
facts (:func:`repro.lint.summaries.extract_module_facts`), runs the
intramodule rules over the same parse (:func:`repro.lint.core.
analyze_file`) and returns both.  The parent links the facts, runs the
summary fixpoints (:func:`repro.lint.summaries.link_project`) and passes
the interprocedural findings (IPD001–003, STORE002) through the same
severity and suppression filter as every other rule.

``fork_map`` keeps results task-ordered — the fan-out discipline
DET005/PAR001 enforce — and the parent links in path order, so
``--format json`` output is byte-identical at every ``--jobs`` count
(test-gated by ``tests/test_lint.py``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..parallel import fork_map
from .baseline import BaselineKey, load_baseline, split_findings
from .config import normalize_path, severity_for
from .core import Finding, analyze_file, gate
from .rules import all_rules
from .summaries import (
    ModuleFacts,
    extract_module_facts,
    link_project,
    record_set_escapes,
)

__all__ = ["LintReport", "collect_files", "lint_files", "lint_sources",
           "run_lint"]

#: one file's outcome: its intramodule findings and its facts
FileResult = Tuple[List[Finding], ModuleFacts]


def collect_files(paths: Sequence[str],
                  root: str = ".") -> List[Tuple[str, str]]:
    """``(abs_path, display_path)`` pairs, sorted by display path.

    Directories expand to every ``*.py`` beneath them; files are taken
    as given.  Display paths are root-relative and posix-style so the
    report (and baseline keys) are machine-independent.
    """
    root = os.path.abspath(root)
    out: Dict[str, str] = {}

    def add(abs_path: str) -> None:
        rel = os.path.relpath(abs_path, root)
        out[normalize_path(rel.replace(os.sep, "/"))] = abs_path

    for path in paths:
        abs_path = path if os.path.isabs(path) else os.path.join(root, path)
        if os.path.isdir(abs_path):
            for dirpath, dirnames, filenames in os.walk(abs_path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in ("__pycache__", ".git"))
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        add(os.path.join(dirpath, name))
        elif os.path.isfile(abs_path):
            add(abs_path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return [(out[display], display) for display in sorted(out)]


def _lint_source(display_path: str, source: str) -> FileResult:
    """One file, one parse: its facts, then the intramodule rules over
    the same parse, whose DET004 findings seed the set-escape bit."""
    facts = extract_module_facts(display_path, source)
    findings = analyze_file(facts)
    record_set_escapes(facts, findings)
    facts.context = None  # the parse stays in the process that made it
    return findings, facts


def _lint_task(task: Tuple[str, str]) -> FileResult:
    """The fork_map worker (module-level, hence picklable)."""
    abs_path, display_path = task
    with open(abs_path, encoding="utf-8") as fh:
        source = fh.read()
    return _lint_source(display_path, source)


def _check_project(results: Sequence[FileResult]) -> List[Finding]:
    """Every file's findings plus the project rules' findings, which
    pass the same severity and suppression filter, sorted."""
    project = link_project([facts for _, facts in results])
    defaults = {rule.id: rule.default_severity for rule in all_rules()}
    findings: List[Finding] = []
    for file_findings, facts in results:
        findings.extend(file_findings)
        raw = project.get(facts.path)
        if raw:
            findings.extend(gate(facts.path, raw, defaults,
                                 facts.suppressions, severity_for))
    return sorted(findings)


@dataclass
class LintReport:
    """The outcome of one lint run over a set of files."""

    files: int
    findings: List[Finding]                       # active (not baselined)
    baselined: List[Tuple[Finding, str]] = field(default_factory=list)
    stale_baseline: List[BaselineKey] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0

    # -- rendering ------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        return {
            "files": self.files,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "baselined": len(self.baselined),
            "stale_baseline": len(self.stale_baseline),
        }

    def to_json(self) -> str:
        payload = {
            "findings": [f.to_json() for f in self.findings],
            "baselined": [
                dict(f.to_json(), reason=reason)
                for f, reason in self.baselined
            ],
            "stale_baseline": [
                {"file": file, "rule": rule, "line": line}
                for file, rule, line in self.stale_baseline
            ],
            "summary": self.summary(),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f.render() for f in self.findings]
        for key in self.stale_baseline:
            file, rule, line = key
            lines.append(f"{file}:{line}: stale baseline entry for {rule} "
                         "(finding no longer present — prune it)")
        s = self.summary()
        lines.append(
            f"{s['files']} files: {s['errors']} errors, "
            f"{s['warnings']} warnings, {s['baselined']} baselined, "
            f"{s['stale_baseline']} stale baseline entries"
        )
        return "\n".join(lines) + "\n"


def lint_files(tasks: Sequence[Tuple[str, str]],
               jobs: int = 1) -> List[Finding]:
    """Every finding over collected ``(abs_path, display_path)`` files:
    one ``fork_map`` pass, then the project link in the parent."""
    return _check_project(fork_map(_lint_task, list(tasks), workers=jobs))


def lint_sources(sources: Mapping[str, str]) -> List[Finding]:
    """:func:`lint_files` over an in-memory ``{display_path: source}``
    project, in-process."""
    return _check_project([_lint_source(path, sources[path])
                           for path in sorted(sources)])


def run_lint(
    paths: Sequence[str],
    jobs: int = 1,
    baseline_path: Optional[str] = None,
    root: str = ".",
) -> LintReport:
    """Lint ``paths`` with ``jobs`` workers, honouring a baseline file."""
    tasks = collect_files(paths, root=root)
    findings = lint_files(tasks, jobs=jobs)
    baseline = load_baseline(baseline_path) if baseline_path else {}
    active, matched, stale = split_findings(findings, baseline)
    return LintReport(files=len(tasks), findings=active,
                      baselined=matched, stale_baseline=stale)
