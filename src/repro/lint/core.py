"""Rule framework: findings, module context, suppressions, file analysis.

A rule is an :class:`ast.NodeVisitor` subclass over one parsed module.
The framework hands every rule a shared :class:`ModuleContext` — source,
tree, parent links, import resolution, suppressions and the fact
extractor's sites — so individual rules stay small: they pattern-match
nodes and call :meth:`Rule.report`, or, as a :class:`SiteRule`, report
the sites the extractor (:mod:`repro.lint.summaries`) recorded for them.

Suppressions are inline comments::

    risky_call()  # lint: allow(DET003) bench wall-clock column

The reason text after the closing paren is mandatory — an ``allow``
without one does not suppress and is itself reported (``LINT000``), so
every silenced finding is explained at the silencing site.  A
suppression on its own line covers the next line of code.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from .callgraph import build_import_map, module_name_for_path

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "SiteRule",
    "Suppressions",
    "analyze_source",
    "analyze_file",
    "gate",
    "BAD_SUPPRESSION_RULE",
    "PARSE_ERROR_RULE",
]

#: pseudo-rule ids emitted by the framework itself (not in the registry)
BAD_SUPPRESSION_RULE = "LINT000"
PARSE_ERROR_RULE = "LINT001"

#: ``(line, col, rule id, message)`` before severity and suppressions
RawFinding = Tuple[int, int, str, str]


@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding, ordered for deterministic reports."""

    file: str
    line: int
    col: int
    rule: str
    severity: str
    message: str

    def to_json(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }

    def render(self) -> str:
        return (f"{self.file}:{self.line}:{self.col + 1}: "
                f"{self.rule} {self.severity}: {self.message}")


class ModuleContext:
    """Shared per-module facts every rule can lean on.

    * ``imports`` — local name to absolute dotted path for every import
      binding (``import numpy as np`` → ``np: numpy``; ``from random
      import Random`` → ``Random: random.Random``; relative imports
      resolve against the module's package), the same map the call
      graph links with.
    * :meth:`qualname` — resolve a ``Name``/``Attribute`` chain to its
      dotted import path, or ``None`` when the base is not an import
      binding (a local, a parameter, ...).
    * :meth:`is_builtin` — a name that is a Python builtin *here*: not
      shadowed by an import, a module-level assignment or def.
    * :meth:`parent` — enclosing AST node (lazily built parent map).
    * ``suppressions`` — the module's ``# lint: allow`` comments.
    * ``sites`` — the fact extractor's ``(line, col, rule, message)``
      sites of the :class:`SiteRule` patterns.
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.module = module_name_for_path(path)
        self.imports = build_import_map(
            tree, self.module, path.endswith("__init__.py"))
        self.suppressions = Suppressions(source)
        self.sites: List[RawFinding] = []
        self._module_names: Set[str] = set()
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self._module_names.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name):
                            self._module_names.add(n.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                self._module_names.add(stmt.target.id)

    # ------------------------------------------------------------------
    def qualname(self, node: ast.AST) -> Optional[str]:
        """Dotted import path of a ``Name``/``Attribute`` chain, if its
        base resolves through this module's imports."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    def is_builtin(self, name: str) -> bool:
        return name not in self.imports and name not in self._module_names

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        if self._parents is None:
            self._parents = {}
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    self._parents[child] = outer
        return self._parents.get(node)


class Rule(ast.NodeVisitor):
    """Base class for lint rules.

    Subclasses set ``id``/``summary``/``default_severity`` and override
    ``visit_*`` methods, reporting via :meth:`report`.  One instance is
    created per (rule, module) pair, so per-module state lives on
    ``self``.
    """

    id: str = "RULE000"
    summary: str = ""
    default_severity: str = "error"

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.raw: List[Tuple[int, int, str]] = []

    def report(self, node: ast.AST, message: str) -> None:
        self.raw.append((node.lineno, node.col_offset, message))

    def run(self) -> List[Tuple[int, int, str]]:
        self.visit(self.ctx.tree)
        return self.raw


class SiteRule(Rule):
    """A rule whose pattern the fact extractor matches: its findings are
    the extractor's reported sites for its id (a depth-0 query over the
    facts its interprocedural twin propagates)."""

    def run(self) -> List[Tuple[int, int, str]]:
        return [(line, col, message)
                for line, col, rule, message in self.ctx.sites
                if rule == self.id]


class ProjectRule(Rule):
    """A whole-program rule: its findings come from the linked project
    (:func:`repro.lint.summaries.link_project`), none from one module."""

    def run(self) -> List[Tuple[int, int, str]]:
        return []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
_ALLOW_RE = re.compile(
    r"#\s*lint:\s*allow\(\s*([A-Za-z]+\d+(?:\s*,\s*[A-Za-z]+\d+)*)\s*\)(.*)$"
)


class Suppressions:
    """Per-line ``# lint: allow(RULE-ID) reason`` map for one module."""

    def __init__(self, source: str) -> None:
        #: line -> set of rule ids allowed there
        self.allowed: Dict[int, Set[str]] = {}
        #: (line, col) of allow comments missing the mandatory reason
        self.missing_reason: List[Tuple[int, int]] = []
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                match = _ALLOW_RE.search(tok.string)
                if not match:
                    continue
                rules = {r.strip().upper() for r in match.group(1).split(",")}
                reason = match.group(2).strip()
                line, col = tok.start
                if not reason:
                    self.missing_reason.append((line, col))
                    continue
                self.allowed.setdefault(line, set()).update(rules)
                # a standalone comment line covers the next line of code
                prefix = source.splitlines()[line - 1][:col]
                if not prefix.strip():
                    self.allowed.setdefault(line + 1, set()).update(rules)
        except tokenize.TokenError:  # pragma: no cover - parse error path
            pass

    def suppresses(self, line: int, rule: str) -> bool:
        return rule in self.allowed.get(line, ())


# ----------------------------------------------------------------------
# analysis entry points
# ----------------------------------------------------------------------
def gate(path: str, raw: Iterable[RawFinding],
         defaults: Mapping[str, str], suppressions: Suppressions,
         severity_for) -> List[Finding]:
    """One file's raw findings through the configured severity (rules
    ``off`` there drop out) and the file's suppressions.  ``defaults``
    maps each rule id to its default severity."""
    findings: List[Finding] = []
    for line, col, rule, message in raw:
        severity = severity_for(path, rule, defaults[rule])
        if severity != "off" and not suppressions.suppresses(line, rule):
            findings.append(Finding(path, line, col, rule, severity,
                                    message))
    return findings


def analyze_source(
    source: str,
    path: str,
    rules: Optional[Sequence[type]] = None,
    severity_for=None,
) -> List[Finding]:
    """Lint one module given as text, on its own: the project rules
    (IPD001–003, STORE002) need every module (:func:`repro.lint.runner.
    run_lint`).

    ``path`` is the display path (also what per-directory severity
    configuration matches against).  ``rules`` defaults to the full
    registry; ``severity_for(path, rule_id, default)`` defaults to the
    repo configuration in :mod:`repro.lint.config`.
    """
    from .summaries import extract_module_facts
    return analyze_file(extract_module_facts(path, source), rules=rules,
                        severity_for=severity_for)


def analyze_file(facts, rules: Optional[Sequence[type]] = None,
                 severity_for=None) -> List[Finding]:
    """The intramodule findings of one file: the rules run over the
    parse :func:`repro.lint.summaries.extract_module_facts` made
    (``facts.context``); a file that did not parse yields ``LINT001``.
    """
    if rules is None:
        from .rules import all_rules
        rules = all_rules()
    if severity_for is None:
        from .config import severity_for
    ctx = facts.context
    if ctx is None:
        line, col, message = facts.syntax_error
        return [Finding(facts.path, line, col, PARSE_ERROR_RULE, "error",
                        f"syntax error: {message}")]
    findings = [
        Finding(ctx.path, line, col, BAD_SUPPRESSION_RULE, "error",
                "suppression must carry a reason: "
                "# lint: allow(RULE-ID) <why this is intentional>")
        for line, col in ctx.suppressions.missing_reason
    ]
    raw = [(line, col, rule_cls.id, message)
           for rule_cls in rules
           for line, col, message in rule_cls(ctx).run()]
    findings += gate(ctx.path, raw,
                     {rule.id: rule.default_severity for rule in rules},
                     ctx.suppressions, severity_for)
    findings.sort()
    return findings
