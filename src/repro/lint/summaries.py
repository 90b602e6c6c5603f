"""Per-function summaries, fixpoint propagation, interprocedural findings.

Phase 1 of the two-phase analyzer.  Each file is reduced (in a
``fork_map`` worker) to plain-data :class:`~repro.lint.callgraph.
ModuleFacts`: for every function unit, the *locally generated* summary
bits —

* **draws-entropy** — an unseeded ``random``/numpy-global draw
  (the DET001 pattern),
* **reads-wall-clock** — a DET003 clock/entropy source,
* **escapes-set-iteration-order** — a DET004 escape inside the body,
* **touches-view-internals** — a ``param._x`` read, per parameter,
* **writes-attached-buffers** — a ``param[...] =`` store, a write into
  ``param.adjacency()`` arrays, or a ``setflags(write=True)`` un-seal,
  per parameter,
* **flows-into-store-keys** — parameters reaching a
  ``stable_digest``/``<store>.key`` call (the key side of STORE002),

plus every resolvable call site.  Evidence generation honours inline
``# lint: allow(...)`` suppressions and ``severity == off`` config at
the generating site, so a *sanctioned* source (``benchmarks/
harness.py``'s clock) never taints its callers.

The parent process then links the call graph and propagates each bit to
a fixpoint.  Propagation is Jacobi-style — every round reads only the
previous round's state, in sorted function order — so the result is
deterministic regardless of dict order or worker count.  Ambient bits
(entropy, wall-clock, set-escape) flow through every resolved call
edge; per-parameter bits flow only where a caller passes one of its own
parameters *bare* to a callee parameter.

:func:`compute_findings` turns the fixpoint into the interprocedural
findings (IPD001–003, STORE002), each anchored to a single file so
phase 2 can report them under the ordinary per-file severity and
suppression machinery — byte-identical at any ``--jobs`` count.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set,
    Tuple,
)

from .callgraph import (
    ATTACH_CALLS,
    CallGraph,
    CallSite,
    ClassFacts,
    Evidence,
    FunctionFacts,
    ModuleFacts,
    StorePut,
    build_import_map,
    dotted_chain,
    module_name_for_path,
)
from .core import ModuleContext, Suppressions

__all__ = [
    "extract_module_facts",
    "SummaryTable",
    "ProjectIndex",
    "build_project",
    "link_project",
    "IPD_RANDOM",
    "IPD_VIEW",
    "IPD_SHM",
    "STORE_KEY_FLOW",
]

IPD_RANDOM = "IPD001"
IPD_VIEW = "IPD002"
IPD_SHM = "IPD003"
STORE_KEY_FLOW = "STORE002"

#: base rule gating evidence generation: a site suppressed (or turned
#: off by severity config) for the base rule does not generate taint
_EVIDENCE_BASE_RULE = {
    "entropy": "DET001",
    "wall_clock": "DET003",
    "set_escape": "DET004",
    "private": "ENG001",
    "writes": "SHM001",
}

_DIGEST_NAMES = {"stable_digest", "stable_seed"}
_VIEW_PARAMS = {"view", "views"}
_ENTRY_NAMES = {"decide", "decide_batch"}


def _severity_for(path: str, rule_id: str, default: str) -> str:
    from .config import severity_for
    return severity_for(path, rule_id, default)


# ----------------------------------------------------------------------
# local dataflow helpers
# ----------------------------------------------------------------------
def _name_roots(node: ast.AST) -> Set[str]:
    """Every plain name appearing in ``node`` — the (coarse) set of
    local values the expression can depend on."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class _Influences:
    """name → transitively influencing names, within one unit body."""

    def __init__(self) -> None:
        self._direct: Dict[str, Set[str]] = {}
        self._closed: Optional[Dict[str, FrozenSet[str]]] = None

    def add(self, name: str, roots: Iterable[str]) -> None:
        self._direct.setdefault(name, set()).update(roots)
        self._closed = None

    def note_statement(self, node: ast.AST) -> None:
        """Record def-use facts from one assignment-like statement."""
        if isinstance(node, ast.Assign):
            roots = _name_roots(node.value)
            for target in node.targets:
                self._note_target(target, roots)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._note_target(node.target, _name_roots(node.value))
        elif isinstance(node, ast.AugAssign):
            self._note_target(node.target, _name_roots(node.value))
        elif isinstance(node, ast.For):
            self._note_target(node.target, _name_roots(node.iter))
        elif isinstance(node, ast.withitem) and node.optional_vars:
            self._note_target(node.optional_vars,
                              _name_roots(node.context_expr))
        elif isinstance(node, ast.NamedExpr):
            self._note_target(node.target, _name_roots(node.value))

    def _note_target(self, target: ast.AST, roots: Set[str]) -> None:
        if isinstance(target, ast.Name):
            self.add(target.id, roots)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._note_target(elt, roots)
        elif isinstance(target, ast.Starred):
            self._note_target(target.value, roots)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            # d[k] = v / o.attr = v: the container absorbs the roots
            base = target.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name):
                self.add(base.id, roots | _name_roots(target))

    def _close(self) -> Dict[str, FrozenSet[str]]:
        if self._closed is None:
            closed: Dict[str, Set[str]] = {
                k: set(v) for k, v in self._direct.items()
            }
            changed = True
            guard = 0
            while changed and guard <= len(closed) + 1:
                changed = False
                guard += 1
                for name in closed:
                    extra: Set[str] = set()
                    for dep in closed[name]:
                        extra |= closed.get(dep, set())
                    if not extra <= closed[name]:
                        closed[name] |= extra
                        changed = True
            self._closed = {k: frozenset(v) for k, v in closed.items()}
        return self._closed

    def expand(self, roots: Iterable[str]) -> FrozenSet[str]:
        """``roots`` plus everything that influences them."""
        closed = self._close()
        out: Set[str] = set()
        for r in roots:
            out.add(r)
            out |= closed.get(r, frozenset())
        return frozenset(out)


# ----------------------------------------------------------------------
# per-file extraction
# ----------------------------------------------------------------------
def _iter_unit_nodes(body: Sequence[ast.stmt]):
    """Walk a unit body in source order without entering nested
    ``def``/``class`` statements (they are their own units)."""
    stack: List[ast.AST] = list(reversed(list(body)))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _lambda_params(node: ast.Lambda) -> Tuple[str, ...]:
    args = node.args
    return tuple(a.arg for a in (args.posonlyargs + args.args
                                 + args.kwonlyargs))


def _def_params(node: ast.AST) -> Tuple[str, ...]:
    args = node.args
    return tuple(a.arg for a in (args.posonlyargs + args.args
                                 + args.kwonlyargs))


class _Extractor:
    """Single-file fact extraction (runs inside phase-1 workers)."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.module = module_name_for_path(path)
        self.tree = tree
        self.imports = build_import_map(
            tree, self.module, path.endswith("__init__.py"))
        self.suppressions = Suppressions(source)
        self.facts = ModuleFacts(path=path, module=self.module)
        #: module-level def/class names → qualname
        self.module_defs: Dict[str, str] = {}
        self._source = source

    # -- gating ---------------------------------------------------------
    def _evidence(self, kind: str, line: int, detail: str,
                  ) -> Optional[Evidence]:
        base = _EVIDENCE_BASE_RULE[kind]
        if self.suppressions.suppresses(line, base):
            return None
        if _severity_for(self.path, base, "error") == "off":
            return None
        return Evidence(self.path, line, detail)

    # -- symbolic call targets ------------------------------------------
    def _qual_of(self, node: ast.AST) -> Optional[str]:
        chain = dotted_chain(node)
        if chain is None:
            return None
        base, parts = chain
        root = self.imports.get(base)
        if root is None:
            return None
        return ".".join((root,) + parts)

    def _call_target(self, func: ast.AST,
                     scope: Dict[str, str],
                     class_qual: Optional[str]) -> Tuple[str, str]:
        if isinstance(func, ast.Name):
            name = func.id
            if name in scope:
                return ("qual", scope[name])
            if name in self.module_defs:
                return ("qual", self.module_defs[name])
            if name in self.imports:
                return ("qual", self.imports[name])
            return ("bare", name)
        chain = dotted_chain(func)
        if chain is None:
            return ("bare", "")
        base, parts = chain
        if base == "self" and class_qual is not None and len(parts) == 1:
            return ("self", parts[0])
        if base in self.imports:
            return ("qual", ".".join((self.imports[base],) + parts))
        if base in self.module_defs:
            return ("qual", ".".join((self.module_defs[base],) + parts))
        return ("bare", ".".join((base,) + parts))

    # -- digest / writer detection --------------------------------------
    def _is_digest_call(self, node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _DIGEST_NAMES:
                return True
            target = self.imports.get(func.id, "")
            return target.rsplit(".", 1)[-1] in _DIGEST_NAMES
        if isinstance(func, ast.Attribute):
            qual = self._qual_of(func)
            if qual is not None and qual.rsplit(".", 1)[-1] in _DIGEST_NAMES:
                return True
            if func.attr == "key":
                return any("store" in part.lower()
                           for part in _receiver_parts(func.value))
        return False

    @staticmethod
    def _is_store_put(node: ast.Call) -> bool:
        func = node.func
        return (isinstance(func, ast.Attribute) and func.attr == "put"
                and len(node.args) >= 2
                and any("store" in part.lower()
                        for part in _receiver_parts(func.value)))

    # -- unit extraction -------------------------------------------------
    def run(self) -> ModuleFacts:
        # first pass: module-level defs/classes (call resolution targets)
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.module_defs[stmt.name] = f"{self.module}.{stmt.name}"
        exports = dict(self.imports)
        exports.update(self.module_defs)
        self.facts.exports = exports
        # units: module body, defs (recursively), named lambdas
        module_unit = self._new_unit(
            f"{self.module}.<module>", "<module>", 1, 0,
            getattr(self.tree, "end_lineno", None) or 1, (), None)
        self._extract_unit(module_unit, self.tree.body, {}, None)
        self._collect_defs(self.tree.body, self.module, None, {})
        self._assign_set_escapes()
        return self.facts

    def _new_unit(self, qualname: str, name: str, line: int, col: int,
                  end_line: int, params: Tuple[str, ...],
                  class_qual: Optional[str]) -> FunctionFacts:
        unit = FunctionFacts(
            qualname=qualname, name=name, path=self.path,
            module=self.module, line=line, col=col, end_line=end_line,
            params=params, class_qual=class_qual)
        self.facts.functions.append(unit)
        return unit

    def _collect_defs(self, body: Sequence[ast.stmt], prefix: str,
                      class_qual: Optional[str],
                      outer_scope: Dict[str, str]) -> None:
        """Register every def/class/named-lambda under ``prefix`` and
        extract each function unit's facts."""
        # names visible to siblings (nested defs see each other)
        scope = dict(outer_scope)
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope[stmt.name] = f"{prefix}.{stmt.name}"
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{stmt.name}"
                unit = self._new_unit(
                    qual, stmt.name, stmt.lineno, stmt.col_offset,
                    getattr(stmt, "end_lineno", None) or stmt.lineno,
                    _def_params(stmt), class_qual)
                self._extract_unit(unit, stmt.body, scope, class_qual)
                self._collect_defs(stmt.body, qual, None, scope)
            elif isinstance(stmt, ast.ClassDef):
                cls_qual = f"{prefix}.{stmt.name}"
                bases = []
                for b in stmt.bases:
                    target = self._call_target(b, scope, None)
                    if target[0] == "qual":
                        bases.append(target[1])
                self.facts.classes[cls_qual] = ClassFacts(
                    qualname=cls_qual, name=stmt.name, bases=tuple(bases))
                self._collect_defs(stmt.body, cls_qual, cls_qual, scope)
            elif isinstance(stmt, ast.Assign) and isinstance(
                    stmt.value, ast.Lambda):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        qual = f"{prefix}.{target.id}"
                        unit = self._new_unit(
                            qual, target.id, stmt.lineno, stmt.col_offset,
                            getattr(stmt, "end_lineno", None) or stmt.lineno,
                            _lambda_params(stmt.value), class_qual)
                        self._extract_unit(
                            unit, [ast.Expr(value=stmt.value.body)],
                            scope, class_qual)
                        break

    def _extract_unit(self, unit: FunctionFacts, body: Sequence[ast.stmt],
                      scope: Dict[str, str],
                      class_qual: Optional[str]) -> None:
        influences = _Influences()
        params = set(unit.params)
        adjacency_of: Dict[str, str] = {}  # derived array name → param
        calls: List[ast.Call] = []
        for node in _iter_unit_nodes(body):
            influences.note_statement(node)
            if isinstance(node, ast.Call):
                calls.append(node)
                self._note_entropy(unit, node)
                self._note_setflags_write(unit, node, params)
            elif isinstance(node, ast.Attribute):
                self._note_wall_clock(unit, node)
                self._note_private_read(unit, node, params)
            elif isinstance(node, ast.Name):
                self._note_wall_clock_name(unit, node)
            if isinstance(node, ast.Assign):
                self._note_tracking(unit, node, params, adjacency_of)
                for target in node.targets:
                    self._note_subscript_write(
                        unit, target, params, adjacency_of)
                    self._note_writeable_unseal(
                        unit, node, target, params)
            elif isinstance(node, ast.AugAssign):
                self._note_subscript_write(
                    unit, node.target, params, adjacency_of)
        # second pass over calls now that tracking/influences are complete
        digest_params: Set[str] = set()
        for node in calls:
            target = self._call_target(node.func, scope, class_qual)
            site = self._call_site(node, target, influences)
            unit.calls.append(site)
            if self._is_digest_call(node):
                unit.has_digest = True
                roots: Set[str] = set()
                for arg in node.args:
                    if not isinstance(arg, ast.Starred):
                        roots |= _name_roots(arg)
                for kw in node.keywords:
                    roots |= _name_roots(kw.value)
                digest_params |= set(influences.expand(roots)) & set(
                    unit.params)
            if self._is_fork_map(target):
                self._note_fork_workers(unit, node, scope, class_qual)
            if self._is_store_put(node):
                self._note_store_put(unit, node, scope, class_qual,
                                     influences)
        unit.digest_params = tuple(sorted(digest_params))
        unit.calls.sort(key=lambda s: (s.line, s.col))

    # -- individual fact recorders --------------------------------------
    def _note_entropy(self, unit: FunctionFacts, node: ast.Call) -> None:
        if unit.entropy is not None:
            return
        from .rules.determinism import unseeded_entropy
        entropy = unseeded_entropy(self._qual_of(node.func), node)
        if entropy is not None:
            ev = self._evidence("entropy", node.lineno, entropy[0])
            if ev is not None:
                unit.entropy = ev

    def _note_wall_clock(self, unit: FunctionFacts,
                         node: ast.Attribute) -> None:
        if unit.wall_clock is not None:
            return
        from .rules.determinism import WallClockRule
        qual = self._qual_of(node)
        if qual in WallClockRule._SOURCES:
            ev = self._evidence("wall_clock", node.lineno, qual)
            if ev is not None:
                unit.wall_clock = ev

    def _note_wall_clock_name(self, unit: FunctionFacts,
                              node: ast.Name) -> None:
        if unit.wall_clock is not None or not isinstance(
                node.ctx, ast.Load):
            return
        from .rules.determinism import WallClockRule
        qual = self.imports.get(node.id)
        if qual in WallClockRule._SOURCES:
            ev = self._evidence("wall_clock", node.lineno, qual)
            if ev is not None:
                unit.wall_clock = ev

    def _note_private_read(self, unit: FunctionFacts, node: ast.Attribute,
                           params: Set[str]) -> None:
        base = node.value
        if (isinstance(base, ast.Name) and base.id in params
                and base.id != "self"
                and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            if base.id not in unit.private_reads:
                ev = self._evidence(
                    "private", node.lineno, f"{base.id}.{node.attr}")
                if ev is not None:
                    unit.private_reads[base.id] = ev

    def _note_setflags_write(self, unit: FunctionFacts, node: ast.Call,
                             params: Set[str]) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr == "setflags"):
            return
        root = func.value
        while isinstance(root, (ast.Attribute, ast.Subscript)):
            root = root.value
        if not (isinstance(root, ast.Name) and root.id in params):
            return
        for kw in node.keywords:
            if kw.arg == "write" and not (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is False):
                if root.id not in unit.buffer_writes:
                    ev = self._evidence(
                        "writes", node.lineno,
                        f"{root.id}.setflags(write=True)")
                    if ev is not None:
                        unit.buffer_writes[root.id] = ev

    def _note_writeable_unseal(self, unit: FunctionFacts, node: ast.Assign,
                               target: ast.AST, params: Set[str]) -> None:
        if not (isinstance(target, ast.Attribute)
                and target.attr == "writeable"
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "flags"):
            return
        if (isinstance(node.value, ast.Constant)
                and node.value.value is False):
            return
        root = target.value.value
        if isinstance(root, ast.Name) and root.id in params:
            if root.id not in unit.buffer_writes:
                ev = self._evidence(
                    "writes", target.lineno,
                    f"{root.id}.flags.writeable = True")
                if ev is not None:
                    unit.buffer_writes[root.id] = ev

    def _note_subscript_write(self, unit: FunctionFacts, target: ast.AST,
                              params: Set[str],
                              adjacency_of: Dict[str, str]) -> None:
        if not (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)):
            return
        name = target.value.id
        owner = None
        if name in params and name != "self":
            owner, detail = name, f"{name}[...] = ..."
        elif name in adjacency_of:
            owner = adjacency_of[name]
            detail = f"{name}[...] = ... ({owner}.adjacency() array)"
        if owner is not None and owner not in unit.buffer_writes:
            ev = self._evidence("writes", target.lineno, detail)
            if ev is not None:
                unit.buffer_writes[owner] = ev

    def _note_tracking(self, unit: FunctionFacts, node: ast.Assign,
                       params: Set[str],
                       adjacency_of: Dict[str, str]) -> None:
        """Track attached graphs/arrays (caller side of IPD003) and
        adjacency arrays derived from parameters (callee side)."""
        value = node.value
        if isinstance(value, ast.Call):
            func = value.func
            fname = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if fname in ATTACH_CALLS:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        unit.attached.setdefault(target.id, node.lineno)
                return
            if (isinstance(func, ast.Attribute)
                    and func.attr == "adjacency"
                    and isinstance(func.value, ast.Name)):
                base = func.value.id
                names: List[str] = []
                for target in node.targets:
                    elts = (target.elts if isinstance(
                        target, (ast.Tuple, ast.List)) else [target])
                    names.extend(t.id for t in elts
                                 if isinstance(t, ast.Name))
                if base in unit.attached:
                    for n in names:
                        unit.attached.setdefault(n, node.lineno)
                if base in params and base != "self":
                    for n in names:
                        adjacency_of.setdefault(n, base)

    @staticmethod
    def _is_fork_map(target: Tuple[str, str]) -> bool:
        ref = target[1]
        return ref == "fork_map" or ref.endswith(".fork_map")

    def _note_fork_workers(self, unit: FunctionFacts, node: ast.Call,
                           scope: Dict[str, str],
                           class_qual: Optional[str]) -> None:
        candidates: List[ast.AST] = []
        if node.args:
            candidates.append(node.args[0])
        for kw in node.keywords:
            if kw.arg in ("fn", "initializer"):
                candidates.append(kw.value)
        for cand in candidates:
            if isinstance(cand, (ast.Name, ast.Attribute)):
                target = self._call_target(cand, scope, class_qual)
                if target[0] != "bare":
                    unit.fork_workers.append((target, node.lineno))

    def _call_site(self, node: ast.Call, target: Tuple[str, str],
                   influences: _Influences) -> CallSite:
        pos_bare: List[Tuple[int, str]] = []
        pos_roots: List[Tuple[int, FrozenSet[str]]] = []
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                continue
            if isinstance(arg, ast.Name):
                pos_bare.append((i, arg.id))
            pos_roots.append((i, influences.expand(_name_roots(arg))))
        kw_bare: List[Tuple[str, str]] = []
        kw_roots: List[Tuple[str, FrozenSet[str]]] = []
        for kw in node.keywords:
            if kw.arg is None:
                continue
            if isinstance(kw.value, ast.Name):
                kw_bare.append((kw.arg, kw.value.id))
            kw_roots.append(
                (kw.arg, influences.expand(_name_roots(kw.value))))
        return CallSite(
            line=node.lineno, col=node.col_offset, target=target,
            pos_bare=tuple(pos_bare), kw_bare=tuple(kw_bare),
            pos_roots=tuple(pos_roots), kw_roots=tuple(kw_roots))

    def _note_store_put(self, unit: FunctionFacts, node: ast.Call,
                        scope: Dict[str, str], class_qual: Optional[str],
                        influences: _Influences) -> None:
        key_expr, payload = node.args[0], node.args[1]
        key_calls: List[CallSite] = []
        direct_roots: Set[str] = set()
        saw_digest = False

        def consume(expr: ast.AST, depth: int = 0) -> None:
            nonlocal saw_digest
            if depth > 4:
                return
            if isinstance(expr, ast.Call):
                arg_roots: Set[str] = set()
                for a in expr.args:
                    if not isinstance(a, ast.Starred):
                        arg_roots |= _name_roots(a)
                for kw in expr.keywords:
                    arg_roots |= _name_roots(kw.value)
                if self._is_digest_call(expr):
                    saw_digest = True
                    direct_roots.update(influences.expand(arg_roots))
                    return
                target = self._call_target(expr.func, scope, class_qual)
                if target[0] == "bare":
                    # unresolvable helper: optimistic — assume complete
                    saw_digest = True
                    direct_roots.update(influences.expand(arg_roots))
                    return
                key_calls.append(
                    self._call_site(expr, target, influences))
            elif isinstance(expr, ast.Name):
                # chase local provenance one level: every call assigned
                # to this name contributes
                for producer in self._producers_of(expr.id):
                    consume(producer, depth + 1)
            # other forms (tuples, constants) carry no checkable flow

        consume(key_expr)
        unit.store_puts.append(StorePut(
            line=node.lineno, col=node.col_offset,
            payload_roots=influences.expand(_name_roots(payload)),
            receiver_roots=influences.expand(_name_roots(node.func.value)),
            key_calls=tuple(key_calls),
            direct_roots=frozenset(direct_roots),
            saw_digest=saw_digest,
        ))

    def _producers_of(self, name: str) -> List[ast.Call]:
        """Call expressions assigned to ``name`` anywhere in the module
        (coarse: cross-unit assignments are rare for store keys)."""
        out: List[ast.Call] = []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        out.append(node.value)
        return out

    # -- set-escape assignment ------------------------------------------
    def _assign_set_escapes(self) -> None:
        """Run the DET004 pattern over the module and attribute each
        finding to the innermost enclosing unit."""
        from .rules.determinism import SetIterationRule
        ctx = ModuleContext(self.path, self._source, self.tree)
        findings = SetIterationRule(ctx).run()
        if not findings:
            return
        units = sorted(self.facts.functions,
                       key=lambda u: (u.end_line - u.line))
        for line, _col, _message in sorted(findings):
            ev = self._evidence(
                "set_escape", line, "set iteration order escape")
            if ev is None:
                continue
            for unit in units:
                if unit.name != "<module>" and \
                        unit.line <= line <= unit.end_line:
                    if unit.set_escape is None:
                        unit.set_escape = ev
                    break
            else:
                module_unit = self.facts.functions[0]
                if module_unit.set_escape is None:
                    module_unit.set_escape = ev


def _receiver_parts(node: ast.AST) -> Tuple[str, ...]:
    chain = dotted_chain(node)
    if chain is None:
        return ()
    base, parts = chain
    return (base,) + parts


def extract_module_facts(path: str, source: str) -> ModuleFacts:
    """Phase-1 worker: all facts for one file (empty on syntax errors —
    phase 2 reports those as LINT001)."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return ModuleFacts(path=path, module=module_name_for_path(path))
    return _Extractor(path, source, tree).run()


# ----------------------------------------------------------------------
# fixpoint propagation
# ----------------------------------------------------------------------
#: state value: ("local", Evidence) or ("via", key-into-the-same-table)
_State = Tuple[str, object]


@dataclass
class SummaryTable:
    """The linked, fixpointed summary table for a whole project."""

    graph: CallGraph
    #: ambient bits: bit name → qualname → state
    ambient: Dict[str, Dict[str, _State]] = field(default_factory=dict)
    #: per-param bits: bit name → (qualname, param) → state
    per_param: Dict[str, Dict[Tuple[str, str], _State]] = field(
        default_factory=dict)
    key_params: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    has_digest: Set[str] = field(default_factory=set)
    #: entry points: qualname → kind label
    entries: Dict[str, str] = field(default_factory=dict)

    # -- introspection (tests, --dump-summaries) ------------------------
    def bit(self, bit: str, qualname: str) -> bool:
        return qualname in self.ambient.get(bit, {})

    def param_bit(self, bit: str, qualname: str, param: str) -> bool:
        return (qualname, param) in self.per_param.get(bit, {})

    def chain(self, bit: str, qualname: str) -> List[str]:
        """Human-readable taint chain for an ambient bit."""
        table = self.ambient.get(bit, {})
        out: List[str] = []
        key = qualname
        for _ in range(64):
            state = table.get(key)
            if state is None:
                break
            kind, payload = state
            if kind == "local":
                ev = payload
                out.append(f"{ev.detail} ({ev.path}:{ev.line})")
                break
            key = payload
            fn = self.graph.functions.get(key)
            where = f" ({fn.path}:{fn.line})" if fn is not None else ""
            out.append(f"{fn.name if fn else key}{where}")
        return out

    def param_chain(self, bit: str, qualname: str, param: str) -> List[str]:
        table = self.per_param.get(bit, {})
        out: List[str] = []
        key = (qualname, param)
        for _ in range(64):
            state = table.get(key)
            if state is None:
                break
            kind, payload = state
            if kind == "local":
                ev = payload
                out.append(f"{ev.detail} ({ev.path}:{ev.line})")
                break
            key = payload
            fn = self.graph.functions.get(key[0])
            where = f" ({fn.path}:{fn.line})" if fn is not None else ""
            out.append(f"{fn.name if fn else key[0]}{where}")
        return out


def _fix_ambient(graph: CallGraph, attr: str) -> Dict[str, _State]:
    quals = sorted(graph.functions)
    state: Dict[str, _State] = {}
    for qual in quals:
        ev = getattr(graph.functions[qual], attr)
        if ev is not None:
            state[qual] = ("local", ev)
    while True:
        prev = dict(state)
        for qual in quals:
            if qual in state:
                continue
            fn = graph.functions[qual]
            for site in fn.calls:
                resolved = graph.resolve_call(fn, site)
                if resolved is not None and resolved[0] in prev \
                        and resolved[0] != qual:
                    state[qual] = ("via", resolved[0])
                    break
        if len(state) == len(prev):
            return state


def _fix_per_param(graph: CallGraph, attr: str,
                   ) -> Dict[Tuple[str, str], _State]:
    quals = sorted(graph.functions)
    state: Dict[Tuple[str, str], _State] = {}
    for qual in quals:
        for param, ev in sorted(getattr(graph.functions[qual],
                                        attr).items()):
            state[(qual, param)] = ("local", ev)
    while True:
        prev = dict(state)
        for qual in quals:
            fn = graph.functions[qual]
            own = set(fn.params)
            for site in fn.calls:
                resolved = graph.resolve_call(fn, site)
                if resolved is None:
                    continue
                callee, offset = resolved
                for slot, name in list(site.pos_bare) + list(site.kw_bare):
                    if name not in own or (qual, name) in state:
                        continue
                    bound = graph.param_for_slot(callee, offset, slot)
                    if bound is not None and (callee, bound) in prev:
                        state[(qual, name)] = ("via", (callee, bound))
        if len(state) == len(prev):
            return state


def _fix_key_params(graph: CallGraph) -> Tuple[Dict[str, FrozenSet[str]],
                                               Set[str]]:
    quals = sorted(graph.functions)
    key_params: Dict[str, Set[str]] = {}
    has_digest: Set[str] = set()
    for qual in quals:
        fn = graph.functions[qual]
        if fn.has_digest:
            has_digest.add(qual)
            key_params[qual] = set(fn.digest_params)
    while True:
        before = (len(has_digest),
                  sum(len(v) for v in key_params.values()))
        for qual in quals:
            fn = graph.functions[qual]
            own = set(fn.params)
            for site in fn.calls:
                resolved = graph.resolve_call(fn, site)
                if resolved is None:
                    continue
                callee, offset = resolved
                if callee not in has_digest or callee == qual:
                    continue
                callee_keys = key_params.get(callee, set())
                flowing: Set[str] = set()
                for slot, roots in list(site.pos_roots) + list(
                        site.kw_roots):
                    bound = graph.param_for_slot(callee, offset, slot)
                    if bound is not None and bound in callee_keys:
                        flowing |= set(roots) & own
                if flowing:
                    has_digest.add(qual)
                    key_params.setdefault(qual, set()).update(flowing)
        after = (len(has_digest),
                 sum(len(v) for v in key_params.values()))
        if after == before:
            return ({q: frozenset(v) for q, v in key_params.items()},
                    has_digest)


def build_table(graph: CallGraph) -> SummaryTable:
    table = SummaryTable(graph=graph)
    table.ambient["entropy"] = _fix_ambient(graph, "entropy")
    table.ambient["wall_clock"] = _fix_ambient(graph, "wall_clock")
    table.ambient["set_escape"] = _fix_ambient(graph, "set_escape")
    table.per_param["private"] = _fix_per_param(graph, "private_reads")
    table.per_param["writes"] = _fix_per_param(graph, "buffer_writes")
    table.key_params, table.has_digest = _fix_key_params(graph)
    # entry points: decide/decide_batch by name, fork_map workers by ref
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        if fn.name in _ENTRY_NAMES:
            table.entries[qual] = f"{fn.name}()"
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        for target, _line in fn.fork_workers:
            worker = graph.resolve_worker(fn, target)
            if worker is not None:
                table.entries.setdefault(worker, "fork_map worker")
    return table


# ----------------------------------------------------------------------
# interprocedural findings
# ----------------------------------------------------------------------
RawFinding = Tuple[int, int, str, str]


def _render_chain(parts: List[str]) -> str:
    return " → ".join(parts)


def compute_findings(table: SummaryTable) -> Dict[str, List[RawFinding]]:
    graph = table.graph
    out: Dict[str, List[RawFinding]] = {}

    def add(path: str, finding: RawFinding) -> None:
        out.setdefault(path, []).append(finding)

    # IPD001: transitive unseeded randomness from decide/fork_map entries
    entropy = table.ambient["entropy"]
    for qual in sorted(table.entries):
        state = entropy.get(qual)
        if state is None or state[0] == "local":
            continue  # local draws are DET001's finding, not IPD001's
        fn = graph.functions[qual]
        chain = _render_chain(table.chain("entropy", qual))
        add(fn.path, (
            fn.line, fn.col, IPD_RANDOM,
            f"{table.entries[qual]} {fn.name!r} reaches unseeded "
            f"randomness through its callees: {chain}; thread a seeded "
            "rng (derive it via repro.parallel.stable_seed) through the "
            "call chain"))

    # IPD002: view escaping into internals-touching callees
    private = table.per_param["private"]
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        sealed = set(fn.params) & _VIEW_PARAMS
        if not sealed:
            continue
        for site in fn.calls:
            resolved = graph.resolve_call(fn, site)
            if resolved is None:
                continue
            callee, offset = resolved
            for slot, name in list(site.pos_bare) + list(site.kw_bare):
                if name not in sealed:
                    continue
                bound = graph.param_for_slot(callee, offset, slot)
                if bound is None or (callee, bound) not in private:
                    continue
                cfn = graph.functions[callee]
                chain = _render_chain(
                    table.param_chain("private", callee, bound))
                add(fn.path, (
                    site.line, site.col, IPD_VIEW,
                    f"{name} escapes into {cfn.name}(), which reads "
                    f"engine-private state: {chain}; algorithms must "
                    "stay inside the public View API"))

    # IPD003: attached shared-memory graphs/arrays escaping into writers
    writes = table.per_param["writes"]
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        if not fn.attached:
            continue
        for site in fn.calls:
            resolved = graph.resolve_call(fn, site)
            if resolved is None:
                continue
            callee, offset = resolved
            for slot, name in list(site.pos_bare) + list(site.kw_bare):
                if name not in fn.attached:
                    continue
                bound = graph.param_for_slot(callee, offset, slot)
                if bound is None or (callee, bound) not in writes:
                    continue
                cfn = graph.functions[callee]
                chain = _render_chain(
                    table.param_chain("writes", callee, bound))
                add(fn.path, (
                    site.line, site.col, IPD_SHM,
                    f"attached shared-memory object {name!r} passed "
                    f"into {cfn.name}(), which writes it: {chain}; "
                    "attached segments are mapped by sibling workers — "
                    "copy before mutating"))

    # STORE002: payload values missing from the stable_digest key
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        for put in fn.store_puts:
            finding = _check_store_put(table, fn, put)
            if finding is not None:
                add(fn.path, finding)

    for path in out:
        out[path].sort()
    return out


def _check_store_put(table: SummaryTable, fn: FunctionFacts,
                     put: StorePut) -> Optional[RawFinding]:
    graph = table.graph
    key_roots: Set[str] = set(put.direct_roots)
    digest_backed = put.saw_digest
    for site in put.key_calls:
        resolved = graph.resolve_call(fn, site)
        all_roots: Set[str] = set()
        for _slot, roots in list(site.pos_roots) + list(site.kw_roots):
            all_roots |= set(roots)
        if resolved is None:
            # helper outside the project: assume it digests everything
            key_roots |= all_roots
            digest_backed = True
            continue
        callee, offset = resolved
        if callee not in table.has_digest:
            # resolved helper with no digest flow anywhere: not a
            # content-addressed key — nothing to check through it
            key_roots |= all_roots
            continue
        digest_backed = True
        callee_keys = table.key_params.get(callee, frozenset())
        for slot, roots in list(site.pos_roots) + list(site.kw_roots):
            bound = graph.param_for_slot(callee, offset, slot)
            if bound is None or bound in callee_keys:
                key_roots |= set(roots)
    if not digest_backed:
        return None
    missing = sorted(
        p for p in fn.params
        if p in put.payload_roots
        and p not in key_roots
        and p not in put.receiver_roots
        and p not in ("self", "cls")
        and "store" not in p.lower())
    if not missing:
        return None
    noun = "parameter" if len(missing) == 1 else "parameters"
    names = ", ".join(repr(m) for m in missing)
    return (
        put.line, put.col, STORE_KEY_FLOW,
        f"{noun} {names} influence(s) the stored payload but do(es) not "
        "flow into its stable_digest key; a warm read would serve bytes "
        "that ignore it — add it to the key parts or drop it from the "
        "payload")


# ----------------------------------------------------------------------
# the shipped project index
# ----------------------------------------------------------------------
class ProjectIndex:
    """What phase 2 needs: interprocedural findings keyed by file.

    The parent builds it once (extract → link → fixpoint → findings)
    and ships it to every check worker through the ``fork_map``
    initializer; workers only ever *read* it, so reports stay
    byte-identical at any ``--jobs`` count.  ``table`` (the fixpointed
    summaries) rides along for introspection and tests.
    """

    def __init__(self, table: SummaryTable,
                 findings: Dict[str, List[RawFinding]]) -> None:
        self.table = table
        self._findings = findings

    def findings_for(self, path: str) -> Sequence[RawFinding]:
        return self._findings.get(path, ())


def link_project(modules: Sequence[ModuleFacts]) -> ProjectIndex:
    """Link per-file facts into the fixpointed project index."""
    graph = CallGraph(modules)
    table = build_table(graph)
    return ProjectIndex(table, compute_findings(table))


def build_project(sources: Mapping[str, str]) -> ProjectIndex:
    """Extract + link an in-memory ``{path: source}`` project — the
    test-facing entry point mirroring what the runner does on disk."""
    facts = [extract_module_facts(path, sources[path])
             for path in sorted(sources)]
    return link_project(facts)
