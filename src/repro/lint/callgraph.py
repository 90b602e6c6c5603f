"""Project call graph: module naming, import resolution, call linking.

The interprocedural rules (see :mod:`repro.lint.summaries`) need to
know, for every call site in the project, *which project function it
lands on* — that is what lets a summary bit (an entropy draw, a
private-view read, a shared-buffer write) propagate from a helper to
the ``decide``/``fork_map`` entry that reaches it.

The resolution is deliberately syntactic and conservative:

* **module naming** — a display path maps to a dotted module name
  (``src/repro/sweep.py`` → ``repro.sweep``); top-level script
  directories (``benchmarks/``, ``tests/``) also register their bare
  stem (``harness``) because that is how sibling scripts import them.
* **imports** — ``import a.b``, ``from a import c`` (including relative
  forms, resolved against the module's own package) bind local names to
  absolute dotted paths.
* **re-exports** — a dotted path that crosses a package ``__init__``
  re-export (``repro.store.ResultStore`` → ``repro.store.cas.
  ResultStore``) is chased through each module's export map, a few hops
  deep.
* **calls** — ``f(...)`` through module defs and imports,
  ``mod.f(...)``/``Class.method(...)`` through attribute chains,
  ``self.m(...)`` through the enclosing class and its project-resolved
  bases, and ``Class(...)`` to ``Class.__init__``.

What it does **not** resolve (documented in ``docs/lint.md``): calls
through instance-typed locals (``runner.run()``), values returned from
factories, ``super()``, and dynamic dispatch.  Unresolved calls simply
contribute no edges — the analysis under-approximates, it never guesses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

__all__ = [
    "module_name_for_path",
    "statements",
    "CallSite",
    "FunctionFacts",
    "ClassFacts",
    "ModuleFacts",
    "CallGraph",
]

def module_name_for_path(path: str) -> str:
    """Dotted module name for a root-relative display path.

    ``src/`` is the package root (``src/repro/x.py`` → ``repro.x``,
    ``__init__.py`` names the package itself); other top-level
    directories keep their directory as a prefix (``benchmarks/
    harness.py`` → ``benchmarks.harness``).  Path oddities (absolute
    paths, ``..`` components) degrade to the sanitized remainder — a
    wrong-but-harmless module name only makes resolution miss.
    """
    parts = [p for p in path.replace("\\", "/").split("/")
             if p not in ("", ".", "..")]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return "<unknown>"
    last = parts[-1]
    if last.endswith(".py"):
        last = last[:-3]
    if last == "__init__":
        parts = parts[:-1]
    else:
        parts = parts[:-1] + [last]
    return ".".join(parts) if parts else "<unknown>"


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function unit.

    ``target`` is a symbolic reference resolved at link time:
    ``("qual", dotted)`` for import/def-based chains, ``("self", name)``
    for ``self.name(...)``, ``("bare", name)`` for names the module
    could not resolve (kept for intra-project diagnostics only).

    Argument facts are recorded twice, for the two consumers: ``*_bare``
    maps argument slots to *bare caller names* (what per-parameter taint
    propagation follows), ``*_roots`` maps slots to the closure-expanded
    set of local names influencing the argument (what the STORE002 key
    completeness check follows).
    """

    line: int
    col: int
    target: Tuple[str, str]
    pos_bare: Tuple[Tuple[int, str], ...] = ()
    kw_bare: Tuple[Tuple[str, str], ...] = ()
    pos_roots: Tuple[Tuple[int, FrozenSet[str]], ...] = ()
    kw_roots: Tuple[Tuple[str, FrozenSet[str]], ...] = ()


@dataclass(frozen=True)
class Evidence:
    """Where a summary bit is locally generated."""

    path: str
    line: int
    detail: str


@dataclass
class FunctionFacts:
    """Everything the extractor records about one function unit.

    A *unit* is a ``def``, an ``async def``, a module/class-level
    ``name = lambda ...``, or the module body itself (qualname
    ``<mod>.<module>``, caller-only).  Nested defs are their own units.
    """

    qualname: str
    name: str
    path: str
    module: str
    line: int
    params: Tuple[str, ...]
    col: int = 0
    class_qual: Optional[str] = None
    # ambient evidence (None = bit not locally generated)
    entropy: Optional[Evidence] = None
    # per-parameter evidence
    private_reads: Dict[str, Evidence] = field(default_factory=dict)
    buffer_writes: Dict[str, Evidence] = field(default_factory=dict)
    #: params whose value flows into a stable_digest/<store>.key call
    digest_params: Tuple[str, ...] = ()
    #: True when the body calls stable_digest/stable_seed/<store>.key
    has_digest: bool = False
    #: names bound to attached shared-memory graphs/arrays (→ origin line)
    attached: Dict[str, int] = field(default_factory=dict)
    calls: List[CallSite] = field(default_factory=list)
    #: symbolic refs passed to fork_map as fn=/initializer=
    fork_workers: List[Tuple[Tuple[str, str], int]] = field(
        default_factory=list)
    #: ``<store>.put(key, payload)`` sites for the STORE002 check
    store_puts: List["StorePut"] = field(default_factory=list)


@dataclass(frozen=True)
class StorePut:
    """One ``<store>.put(key, payload)`` site, pre-digested for the
    STORE002 completeness check."""

    line: int
    col: int
    #: closure-expanded local names influencing the payload expression
    payload_roots: FrozenSet[str]
    #: closure-expanded names of the put receiver (never key-checked)
    receiver_roots: FrozenSet[str]
    #: the key expression reduced to provenance: for each contributing
    #: call — a symbolic target plus per-slot roots; plus any roots that
    #: reach the key without passing through a call (digest-direct)
    key_calls: Tuple[CallSite, ...]
    direct_roots: FrozenSet[str]
    #: True when some key provenance involved stable_digest/<store>.key
    #: directly (those roots are complete by construction)
    saw_digest: bool


@dataclass
class ClassFacts:
    qualname: str
    name: str
    #: base classes as symbolic dotted refs (resolved at link time)
    bases: Tuple[str, ...] = ()


@dataclass
class ModuleFacts:
    """The extracted facts of one file — plain data, picklable across
    :func:`repro.parallel.fork_map` once ``context`` is dropped."""

    path: str
    module: str
    functions: List[FunctionFacts] = field(default_factory=list)
    classes: Dict[str, ClassFacts] = field(default_factory=dict)
    #: local name → absolute dotted path (imports, defs, classes)
    exports: Dict[str, str] = field(default_factory=dict)
    #: the file's ``# lint: allow`` comments, which the project rules'
    #: findings pass through like every other rule's
    suppressions: Any = None
    #: ``(line, col, message)`` when the file does not parse
    syntax_error: Optional[Tuple[int, int, str]] = None
    #: the parsed :class:`~repro.lint.core.ModuleContext`, kept only in
    #: the process that parsed the file
    context: Any = field(default=None, repr=False, compare=False)


# ----------------------------------------------------------------------
# import resolution
# ----------------------------------------------------------------------
def _resolve_relative(module: str, is_package: bool, level: int,
                      target: Optional[str]) -> str:
    """Absolute dotted base for a ``from``-import of ``target`` at
    ``level`` dots, evaluated inside ``module``."""
    if level == 0:
        return target or ""
    parts = module.split(".")
    package = parts if is_package else parts[:-1]
    anchor = package[: max(0, len(package) - (level - 1))]
    base = ".".join(anchor)
    if target:
        base = f"{base}.{target}" if base else target
    return base


#: the fields that hold statement lists, or the handlers and cases whose
#: bodies do, in the order ``ast.iter_child_nodes`` yields them
_STATEMENT_FIELDS = ("body", "handlers", "orelse", "finalbody", "cases")


def statements(tree: ast.Module) -> List[ast.AST]:
    """Every statement of a module, in the order ``ast.walk`` yields
    them (breadth-first), among the exception handlers and match cases
    whose bodies hold statements; no expression is visited."""
    todo: List[ast.AST] = [tree]
    for node in todo:  # grows as it goes: breadth-first
        for name in _STATEMENT_FIELDS:
            todo.extend(getattr(node, name, ()))
    return todo


def build_import_map(tree: ast.Module, module: str,
                     is_package: bool) -> Dict[str, str]:
    """Local name → absolute dotted path for every import binding, in
    :func:`statements` order: a name bound twice keeps its first
    position and its last binding, as over the whole tree."""
    out: Dict[str, str] = {}
    for node in statements(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    out[top] = top
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(module, is_package, node.level,
                                     node.module)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                out[local] = f"{base}.{alias.name}" if base else alias.name
    return out


def dotted_chain(node: ast.AST) -> Optional[Tuple[str, Tuple[str, ...]]]:
    """``(base name, attribute parts)`` of a ``Name.attr.attr`` chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return node.id, tuple(reversed(parts))


# ----------------------------------------------------------------------
# linking
# ----------------------------------------------------------------------
class CallGraph:
    """Linked view over every module's facts.

    * :meth:`resolve` — absolute dotted path → defining qualname,
      chasing package re-exports and short-name aliases.
    * :meth:`resolve_call` — a :class:`CallSite`'s symbolic target →
      ``(function qualname, positional offset)`` or ``None``.  The
      offset is 1 when the first declared parameter is bound implicitly
      (``self.m(...)``, ``Class(...)``), else 0.
    """

    def __init__(self, modules: Sequence[ModuleFacts]) -> None:
        self.modules: Dict[str, ModuleFacts] = {}
        self.functions: Dict[str, FunctionFacts] = {}
        self.classes: Dict[str, ClassFacts] = {}
        self._aliases: Dict[str, str] = {}
        for facts in sorted(modules, key=lambda m: m.path):
            if facts.module not in self.modules:
                self.modules[facts.module] = facts
            short = facts.module.split(".")[-1]
            if "." in facts.module:
                self._aliases.setdefault(short, facts.module)
            for fn in facts.functions:
                self.functions.setdefault(fn.qualname, fn)
            for qual, cls in facts.classes.items():
                self.classes.setdefault(qual, cls)

    # -- name resolution ------------------------------------------------
    def resolve(self, dotted: str, _depth: int = 0) -> Optional[str]:
        if _depth > 8 or not dotted:
            return None
        if dotted in self.functions or dotted in self.classes:
            return dotted
        parts = dotted.split(".")
        # chase re-exports: the longest prefix that is a known module and
        # exports the next component rewrites the path
        for i in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:i])
            mod = self.modules.get(prefix)
            if mod is None:
                continue
            target = mod.exports.get(parts[i])
            if target is None:
                return None
            rest = parts[i + 1:]
            rewritten = ".".join([target] + rest)
            if rewritten == dotted:
                return None
            return self.resolve(rewritten, _depth + 1)
        # short-name alias for top-level script dirs (harness → benchmarks.harness)
        alias = self._aliases.get(parts[0])
        if alias is not None:
            return self.resolve(".".join([alias] + parts[1:]), _depth + 1)
        return None

    def method_on(self, class_qual: str, name: str,
                  _depth: int = 0) -> Optional[str]:
        """Qualname of ``name`` looked up on a class or its
        project-resolved bases (single-pass DFS, depth-limited)."""
        if _depth > 8:
            return None
        candidate = f"{class_qual}.{name}"
        if candidate in self.functions:
            return candidate
        cls = self.classes.get(class_qual)
        if cls is None:
            return None
        for base in cls.bases:
            resolved = self.resolve(base)
            if resolved is not None and resolved in self.classes:
                found = self.method_on(resolved, name, _depth + 1)
                if found is not None:
                    return found
        return None

    # -- call resolution ------------------------------------------------
    def resolve_call(
        self, caller: FunctionFacts, site: CallSite,
    ) -> Optional[Tuple[str, int]]:
        kind, ref = site.target
        if kind == "self":
            if caller.class_qual is None:
                return None
            method = self.method_on(caller.class_qual, ref)
            return None if method is None else (method, 1)
        if kind != "qual":
            return None
        resolved = self.resolve(ref)
        if resolved is None:
            return None
        if resolved in self.functions:
            return (resolved, 0)
        if resolved in self.classes:
            init = self.method_on(resolved, "__init__")
            return None if init is None else (init, 1)
        return None

    def resolve_worker(
        self, caller: FunctionFacts, target: Tuple[str, str],
    ) -> Optional[str]:
        """A fork_map ``fn=``/``initializer=`` reference → qualname."""
        resolved = self.resolve_call(
            caller, CallSite(line=0, col=0, target=target))
        return None if resolved is None else resolved[0]

    def param_for_slot(self, qualname: str, offset: int,
                       slot: object) -> Optional[str]:
        """The callee parameter a positional index / keyword binds to."""
        fn = self.functions.get(qualname)
        if fn is None:
            return None
        if isinstance(slot, int):
            index = slot + offset
            return fn.params[index] if 0 <= index < len(fn.params) else None
        return slot if slot in fn.params else None
