"""Fact extraction, fixpoint propagation, interprocedural findings.

Each file is parsed once and walked once (:func:`extract_module_facts`,
inside the runner's ``fork_map`` worker).  The walk records every site
of the rules whose patterns double as summary evidence — DET001 (an
unseeded draw), DET003 (a clock/entropy source), ENG001 (a ``name._x``
read) and SHM001 (a store into an attached array, or an un-seal) —
which those rules report as depth-0 queries
(:class:`~repro.lint.core.SiteRule`).  For every function unit it
records the summary bits those sites seed — **draws-entropy**,
**reads-wall-clock**, **touches-view-internals** and **writes-attached-
buffers** (the last two per parameter; a store into a parameter is a
write too) — plus **flows-into-store-keys** (parameters reaching a
``stable_digest``/``<store>.key`` call) and every resolvable call site.
The **escapes-set-iteration-order** bit comes from the file's DET004
findings (:func:`record_set_escapes`).

A unit's bit is its first site that is neither suppressed nor
configured ``off`` for the base rule, so a *sanctioned* source
(``benchmarks/harness.py``'s clock) never taints its callers; a base
rule that is only a warning still taints.  Sites in decorators,
defaults, annotations and class bodies belong to the unit that executes
them.

The parent process links the call graph and propagates each bit to a
fixpoint, Jacobi-style — every round reads only the previous round's
state, in sorted function order — so the result is deterministic
regardless of dict order or worker count.  Ambient bits flow through
every resolved call edge; per-parameter bits flow only where a caller
passes one of its own parameters *bare* to a callee parameter.
:func:`link_project` turns the fixpoint into the interprocedural
findings (IPD001–003, STORE002), keyed by file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

from .callgraph import (
    CallGraph,
    CallSite,
    ClassFacts,
    Evidence,
    FunctionFacts,
    ModuleFacts,
    StorePut,
    dotted_chain,
    module_name_for_path,
)
from .config import severity_for
from .core import Finding, ModuleContext, RawFinding
from .rules.contracts import (
    SETFLAGS_MESSAGE,
    VIEW_PARAMS,
    WRITEABLE_MESSAGE,
    adjacency_unpack,
    attach_binding,
    fork_map_workers,
    private_message,
    private_read,
    store_message,
    unsealed,
)
from .rules.determinism import CLOCK_SOURCES, clock_message, unseeded_entropy
from .rules.store import is_store_put, store_receiver

__all__ = [
    "extract_module_facts",
    "record_set_escapes",
    "SummaryTable",
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

_DIGEST_NAMES = {"stable_digest", "stable_seed"}
_ENTRY_NAMES = {"decide", "decide_batch"}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


# ----------------------------------------------------------------------
# local dataflow helpers
# ----------------------------------------------------------------------
def _name_roots(node: ast.AST) -> Set[str]:
    """Every plain name appearing in ``node`` — the (coarse) set of
    local values the expression can depend on."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _arg_roots(call: ast.Call) -> Set[str]:
    """:func:`_name_roots` of a call's arguments (``*args`` excluded)."""
    roots: Set[str] = set()
    for arg in call.args:
        if not isinstance(arg, ast.Starred):
            roots |= _name_roots(arg)
    for kw in call.keywords:
        roots |= _name_roots(kw.value)
    return roots


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
def _params(node: ast.AST) -> Tuple[str, ...]:
    """Named parameters of a ``def`` or ``lambda``."""
    args = node.args
    return tuple(a.arg for a in (args.posonlyargs + args.args
                                 + args.kwonlyargs))


def _root_name(node: ast.AST) -> Optional[str]:
    """The name under an ``a.b[i].c`` chain, if there is one."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _bound_names(body: Sequence[ast.stmt]) -> Set[str]:
    """Names a scope body binds: assignment, loop and ``with`` targets
    and def/class names, not counting nested scopes or names declared
    ``global``/``nonlocal``."""
    bound: Set[str] = set()
    declared: Set[str] = set()
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            bound.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        if isinstance(node, ast.comprehension):
            # comprehension targets bind in the comprehension's own scope
            stack.append(node.iter)
            stack.extend(node.ifs)
            continue
        stack.extend(ast.iter_child_nodes(node))
    return bound - declared


class _Scope:
    """One lexical scope's attached graphs and arrays (SHM001).

    A name resolves in the innermost scope binding it — a parameter or
    a local assignment shadows an attached name of an enclosing scope —
    and function bodies skip enclosing class scopes, as Python does.
    """

    def __init__(self, parent: Optional["_Scope"], kind: str,
                 body: Sequence[ast.stmt], params: Iterable[str]) -> None:
        self.parent = parent
        self.kind = kind
        self._body = body
        self._params = params
        self._names: Optional[Set[str]] = None  # bound names, on demand
        self.graphs: Set[str] = set()
        self.arrays: Set[str] = set()

    def _binds(self, name: str) -> bool:
        if self._names is None:
            self._names = _bound_names(self._body) | set(self._params)
        return name in self._names

    def owner(self, name: str) -> "_Scope":
        scope = self
        while scope.parent is not None:
            if (scope is self or scope.kind != "class") and \
                    scope._binds(name):
                return scope
            scope = scope.parent
        return scope


class _Unit:
    """A function unit's extraction state."""

    def __init__(self, facts: FunctionFacts, names: Dict[str, str]) -> None:
        self.facts = facts
        self.params = set(facts.params)
        #: sibling defs a bare call can name (call resolution)
        self.names = names
        self.influences = _Influences()
        #: arrays unpacked from a parameter's adjacency() → the parameter
        self.adjacency_of: Dict[str, str] = {}
        self.calls: List[ast.Call] = []


class _Extractor:
    """Single-file fact extraction: one walk over one parse.

    Units are the module body, every ``def`` (or ``async def``) and
    named ``lambda`` stated directly in a module, ``def`` or class body,
    named by where they are stated.  Each node belongs to the units that
    execute it: a ``def``'s decorators, defaults and annotations and a
    class body belong to the enclosing unit, a named lambda's body to
    both.  The body of a ``def`` stated inside a compound statement
    belongs to no unit; its sites still reach the rules.
    """

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.path = ctx.path
        self.module = ctx.module
        self.imports = ctx.imports
        self.facts = ModuleFacts(path=ctx.path, module=ctx.module,
                                 suppressions=ctx.suppressions,
                                 context=ctx)
        #: module-level def/class names → qualname
        self.module_defs: Dict[str, str] = {}
        self.units: List[_Unit] = []
        #: named-lambda units, keyed by their ``ast.Lambda``
        self._lambdas: Dict[int, _Unit] = {}
        #: every name some scope holds as an attached array
        self._arrays: Set[str] = set()
        self._off = {rule: severity_for(self.path, rule, "error") == "off"
                     for rule in ("DET001", "DET003", "ENG001", "SHM001")}

    # -- symbolic call targets ------------------------------------------
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
            qual = self.ctx.qualname(func)
            if qual is not None and qual.rsplit(".", 1)[-1] in _DIGEST_NAMES:
                return True
            if func.attr == "key":
                return store_receiver(func.value)
        return False

    # -- the walk ---------------------------------------------------------
    def run(self) -> ModuleFacts:
        tree = self.ctx.tree
        # module-level defs/classes (call resolution targets)
        for stmt in tree.body:
            if isinstance(stmt, _FUNCTIONS + (ast.ClassDef,)):
                self.module_defs[stmt.name] = f"{self.module}.{stmt.name}"
        exports = dict(self.imports)
        exports.update(self.module_defs)
        self.facts.exports = exports
        module_unit = self._new_unit(
            f"{self.module}.<module>", "<module>", tree, (), None, {})
        self._body(tree.body, (module_unit,), frozenset(),
                   _Scope(None, "module", tree.body, ()), self.module,
                   None, {})
        for unit in self.units:
            self._finish(unit)
        return self.facts

    def _new_unit(self, qualname: str, name: str, node: ast.AST,
                  params: Tuple[str, ...], class_qual: Optional[str],
                  names: Dict[str, str]) -> _Unit:
        line = getattr(node, "lineno", 1)
        facts = FunctionFacts(
            qualname=qualname, name=name, path=self.path,
            module=self.module, line=line,
            col=getattr(node, "col_offset", 0),
            end_line=getattr(node, "end_lineno", None) or line,
            params=params, class_qual=class_qual)
        self.facts.functions.append(facts)
        unit = _Unit(facts, names)
        self.units.append(unit)
        return unit

    def _body(self, body: Sequence[ast.stmt], units: Tuple[_Unit, ...],
              views: FrozenSet[str], scope: _Scope, prefix: str,
              class_qual: Optional[str], outer: Dict[str, str]) -> None:
        """Walk a module, def or class body: its defs and named lambdas
        become units under ``prefix``."""
        names = dict(outer)  # nested defs see their siblings
        for stmt in body:
            if isinstance(stmt, _FUNCTIONS):
                names[stmt.name] = f"{prefix}.{stmt.name}"
        for stmt in body:
            if isinstance(stmt, _FUNCTIONS):
                qual = f"{prefix}.{stmt.name}"
                unit = self._new_unit(qual, stmt.name, stmt,
                                      _params(stmt), class_qual, names)
                self._def(stmt, units, views, scope, (unit, names))
                continue
            if isinstance(stmt, ast.ClassDef):
                qual = f"{prefix}.{stmt.name}"
                bases = []
                for b in stmt.bases:
                    target = self._call_target(b, names, None)
                    if target[0] == "qual":
                        bases.append(target[1])
                self.facts.classes[qual] = ClassFacts(
                    qualname=qual, name=stmt.name, bases=tuple(bases))
                self._class(stmt, units, views, scope, (qual, names))
                continue
            if isinstance(stmt, ast.Assign) and isinstance(
                    stmt.value, ast.Lambda):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._lambdas[id(stmt.value)] = self._new_unit(
                            f"{prefix}.{target.id}", target.id, stmt,
                            _params(stmt.value), class_qual, names)
                        break
            self._visit(stmt, units, views, scope)

    def _def(self, node: ast.AST, units: Tuple[_Unit, ...],
             views: FrozenSet[str], scope: _Scope,
             stated: Optional[Tuple[_Unit, Dict[str, str]]] = None,
             ) -> None:
        """A def: its header runs in ``units``, its body in the unit
        ``stated`` names (with the defs its calls can name), if any."""
        # ENG001 covers the whole def, header included
        views = views | (set(_params(node)) & VIEW_PARAMS)
        for header in node.decorator_list + [node.args]:
            self._visit(header, units, views, scope)
        if node.returns is not None:
            self._visit(node.returns, units, views, scope)
        args = node.args
        params = _params(node) + tuple(
            a.arg for a in (args.vararg, args.kwarg) if a is not None)
        inner = _Scope(scope, "function", node.body, params)
        if stated is None:
            for stmt in node.body:
                self._visit(stmt, (), views, inner)
        else:
            unit, names = stated
            self._body(node.body, (unit,), views, inner,
                       unit.facts.qualname, None, names)

    def _class(self, node: ast.ClassDef, units: Tuple[_Unit, ...],
               views: FrozenSet[str], scope: _Scope,
               stated: Optional[Tuple[str, Dict[str, str]]] = None,
               ) -> None:
        """A class: it all runs in ``units``; its defs become units when
        ``stated`` gives its qualname (and the defs calls can name)."""
        for header in node.decorator_list + node.bases + node.keywords:
            self._visit(header, units, views, scope)
        inner = _Scope(scope, "class", node.body, ())
        if stated is None:
            for stmt in node.body:
                self._visit(stmt, units, views, inner)
        else:
            qual, names = stated
            self._body(node.body, units, views, inner, qual, qual, names)

    def _visit(self, node: ast.AST, units: Tuple[_Unit, ...],
               views: FrozenSet[str], scope: _Scope) -> None:
        if isinstance(node, _FUNCTIONS):
            self._def(node, units, views, scope)
            return
        if isinstance(node, ast.ClassDef):
            self._class(node, units, views, scope)
            return
        for unit in units:
            unit.influences.note_statement(node)
        if isinstance(node, ast.Call):
            for unit in units:
                unit.calls.append(node)
            entropy = unseeded_entropy(self.ctx.qualname(node.func), node)
            if entropy is not None:
                self._site(units, "DET001", node, " ".join(entropy),
                           entropy[0])
            for array in unsealed(node):
                root = _root_name(array)
                self._site(units, "SHM001", node, SETFLAGS_MESSAGE,
                           f"{root}.setflags(write=True)", root)
        elif isinstance(node, ast.Attribute):
            qual = self.ctx.qualname(node)
            if qual in CLOCK_SOURCES:
                # one site per chain: its parts are plain names
                self._site(units, "DET003", node, clock_message(qual, True),
                           qual)
                return
            name = private_read(node)
            if name is not None:
                self._private(node, name, units, views)
        elif isinstance(node, ast.Name):
            qual = self.imports.get(node.id)
            if qual in CLOCK_SOURCES and isinstance(node.ctx, ast.Load):
                self._site(units, "DET003", node, clock_message(qual, False),
                           qual)
        elif isinstance(node, ast.Assign):
            self._assign(node, units, scope)
        elif isinstance(node, ast.AugAssign):
            self._store(node.target, units, scope)
        elif isinstance(node, ast.Lambda):
            self._visit(node.args, units, views, scope)
            named = self._lambdas.get(id(node))
            self._visit(node.body, units if named is None
                        else units + (named,), views, scope)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, units, views, scope)

    # -- site recorders --------------------------------------------------
    def _site(self, units: Tuple[_Unit, ...], rule: str, node: ast.AST,
              message: Optional[str], detail: str,
              param: Optional[str] = None) -> None:
        """Record a site for its rule (unless it only taints) and seed
        the bit of each unit whose first such site passes the gate."""
        line = node.lineno
        if message is not None:
            self.ctx.sites.append((line, node.col_offset, rule, message))
        if self._off[rule] or self.ctx.suppressions.suppresses(line, rule):
            return
        ev = Evidence(self.path, line, detail)
        for unit in units:
            fn = unit.facts
            if rule == "DET001":
                fn.entropy = fn.entropy or ev
            elif rule == "DET003":
                fn.wall_clock = fn.wall_clock or ev
            elif param in unit.params and param != "self":
                bits = (fn.private_reads if rule == "ENG001"
                        else fn.buffer_writes)
                bits.setdefault(param, ev)

    def _private(self, node: ast.Attribute, name: str,
                 units: Tuple[_Unit, ...], views: FrozenSet[str]) -> None:
        reported = name in views
        if reported or (name != "self"
                        and any(name in unit.params for unit in units)):
            self._site(units, "ENG001", node,
                       private_message(name, node.attr) if reported
                       else None, f"{name}.{node.attr}", name)

    def _assign(self, node: ast.Assign, units: Tuple[_Unit, ...],
                scope: _Scope) -> None:
        for array in unsealed(node):
            root = _root_name(array)
            self._site(units, "SHM001", node, WRITEABLE_MESSAGE,
                       f"{root}.flags.writeable = True", root)
        for target in node.targets:
            self._store(target, units, scope)
        # SHM001 tracking, per scope
        kind, names = attach_binding(
            node, lambda g: g in scope.owner(g).graphs)
        for name in names:
            getattr(scope.owner(name), kind).add(name)
            if kind == "arrays":
                self._arrays.add(name)
        # IPD003 tracking, per unit: attached objects (caller side) and
        # arrays derived from parameters (callee side)
        for unit in units:
            attached = unit.facts.attached
            for name in attach_binding(node, attached.__contains__)[1]:
                attached.setdefault(name, node.lineno)
            unpack = adjacency_unpack(node)
            if unpack is not None and unpack[0] in unit.params \
                    and unpack[0] != "self":
                for name in unpack[1]:
                    unit.adjacency_of.setdefault(name, unpack[0])

    def _store(self, target: ast.AST, units: Tuple[_Unit, ...],
               scope: _Scope) -> None:
        """A subscript store: SHM001 into an attached array, and a write
        into a parameter (or an array unpacked from one) for IPD003."""
        if not (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)):
            return
        name = target.value.id
        message = None
        if name in self._arrays and name in scope.owner(name).arrays:
            message = store_message(name)
        param, detail = None, ""
        if units:
            unit = units[0]
            if name in unit.params and name != "self":
                param, detail = name, f"{name}[...] = ..."
            elif name in unit.adjacency_of:
                param = unit.adjacency_of[name]
                detail = f"{name}[...] = ... ({param}.adjacency() array)"
        if message is not None or param is not None:
            self._site(units, "SHM001", target, message, detail, param)

    # -- per-unit facts ---------------------------------------------------
    def _finish(self, unit: _Unit) -> None:
        """Call sites, once the unit's def-use facts are complete."""
        fn = unit.facts
        digest_params: Set[str] = set()
        for node in unit.calls:
            target = self._call_target(node.func, unit.names, fn.class_qual)
            fn.calls.append(self._call_site(node, target, unit.influences))
            if self._is_digest_call(node):
                fn.has_digest = True
                digest_params |= set(unit.influences.expand(
                    _arg_roots(node))) & unit.params
            if self._is_fork_map(target):
                self._note_fork_workers(unit, node)
            if is_store_put(node) and len(node.args) >= 2:
                self._note_store_put(unit, node)
        fn.digest_params = tuple(sorted(digest_params))
        fn.calls.sort(key=lambda s: (s.line, s.col))

    @staticmethod
    def _is_fork_map(target: Tuple[str, str]) -> bool:
        ref = target[1]
        return ref == "fork_map" or ref.endswith(".fork_map")

    def _note_fork_workers(self, unit: _Unit, node: ast.Call) -> None:
        for cand in fork_map_workers(node):
            if isinstance(cand, (ast.Name, ast.Attribute)):
                target = self._call_target(cand, unit.names,
                                           unit.facts.class_qual)
                if target[0] != "bare":
                    unit.facts.fork_workers.append((target, node.lineno))

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

    def _note_store_put(self, unit: _Unit, node: ast.Call) -> None:
        influences = unit.influences
        key_expr, payload = node.args[0], node.args[1]
        key_calls: List[CallSite] = []
        direct_roots: Set[str] = set()
        saw_digest = False

        def consume(expr: ast.AST, depth: int = 0) -> None:
            nonlocal saw_digest
            if depth > 4:
                return
            if isinstance(expr, ast.Call):
                arg_roots = _arg_roots(expr)
                if self._is_digest_call(expr):
                    saw_digest = True
                    direct_roots.update(influences.expand(arg_roots))
                    return
                target = self._call_target(expr.func, unit.names,
                                           unit.facts.class_qual)
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
        unit.facts.store_puts.append(StorePut(
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
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        out.append(node.value)
        return out


def record_set_escapes(facts: ModuleFacts,
                       findings: Iterable[Finding]) -> None:
    """Seed the set-escape bit from the file's DET004 findings (already
    through severity and suppressions): each goes to the innermost unit
    spanning its line, else to the module body."""
    units = sorted(facts.functions, key=lambda u: (u.end_line - u.line))
    for finding in findings:
        if finding.rule != "DET004":
            continue
        ev = Evidence(facts.path, finding.line, "set iteration order escape")
        for unit in units:
            if unit.name != "<module>" and \
                    unit.line <= finding.line <= unit.end_line:
                break
        else:
            unit = facts.functions[0]
        if unit.set_escape is None:
            unit.set_escape = ev


def extract_module_facts(path: str, source: str) -> ModuleFacts:
    """Parse one file once and extract its facts and rule sites.

    The facts keep the parse in ``context`` (with the sites) for
    :func:`repro.lint.core.analyze_file`; a file that does not parse
    yields empty facts carrying its syntax error.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return ModuleFacts(
            path=path, module=module_name_for_path(path),
            syntax_error=(exc.lineno or 1, (exc.offset or 1) - 1, exc.msg))
    return _Extractor(ModuleContext(path, source, tree)).run()


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

    def chain(self, bit: str, key) -> str:
        """Human-readable taint chain of a bit: ``key`` is a qualname for
        an ambient bit, a ``(qualname, param)`` pair for a per-parameter
        one."""
        table = self.ambient.get(bit) or self.per_param.get(bit, {})
        out: List[str] = []
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
            qual = key if isinstance(key, str) else key[0]
            fn = self.graph.functions.get(qual)
            where = f" ({fn.path}:{fn.line})" if fn is not None else ""
            out.append(f"{fn.name if fn else qual}{where}")
        return " → ".join(out)


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
        chain = table.chain("entropy", qual)
        add(fn.path, (
            fn.line, fn.col, IPD_RANDOM,
            f"{table.entries[qual]} {fn.name!r} reaches unseeded "
            f"randomness through its callees: {chain}; thread a seeded "
            "rng (derive it via repro.parallel.stable_seed) through the "
            "call chain"))

    # IPD002 / IPD003: a view, or an attached shared-memory object,
    # passed bare into a callee parameter whose internals the callee
    # (transitively) reads, or which it writes
    escapes = (
        (IPD_VIEW, "private", lambda fn: set(fn.params) & VIEW_PARAMS,
         "{name} escapes into {callee}(), which reads engine-private "
         "state: {chain}; algorithms must stay inside the public View "
         "API"),
        (IPD_SHM, "writes", lambda fn: fn.attached,
         "attached shared-memory object {name!r} passed into {callee}(), "
         "which writes it: {chain}; attached segments are mapped by "
         "sibling workers — copy before mutating"),
    )
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        for rule, bit, tracked, text in escapes:
            names = tracked(fn)
            if not names:
                continue
            for site in fn.calls:
                resolved = graph.resolve_call(fn, site)
                if resolved is None:
                    continue
                callee, offset = resolved
                for slot, name in site.pos_bare + site.kw_bare:
                    bound = graph.param_for_slot(callee, offset, slot)
                    if name in names and \
                            (callee, bound) in table.per_param[bit]:
                        add(fn.path, (site.line, site.col, rule, text.format(
                            name=name, callee=graph.functions[callee].name,
                            chain=table.chain(bit, (callee, bound)))))

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


def link_project(modules: Sequence[ModuleFacts],
                 ) -> Dict[str, List[RawFinding]]:
    """Link every file's facts, run the fixpoints and return the
    interprocedural findings keyed by file path."""
    return compute_findings(build_table(CallGraph(modules)))
