"""ENG/PAR/SHM rules: engine, fan-out and shared-memory contracts.

These encode ``docs/engine-contract.md`` at the AST level:

* **ENG001** — ``decide``/``decide_batch`` reaching into private view
  state (``view._*``).  The View API is the sealed interface algorithms
  see; touching internals breaks engine interchangeability.
* **ENG002** — ``BatchedAlgorithm`` caches assigned in ``decide_batch``
  (or helpers) but never reset in ``setup``, leaking state across
  executions.
* **PAR001** — lambdas/closures handed to ``fork_map``; workers must be
  module-level functions or fork pickling fails (or silently binds
  stale state).
* **SHM001** — mutation of attached shared-memory graph arrays, or
  un-sealing them (``setflags(write=True)``); attached segments are
  concurrently mapped by sibling workers.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from ..core import Rule, SiteRule

__all__ = [
    "VIEW_PARAMS",
    "ATTACH_CALLS",
    "private_read",
    "unsealed",
    "adjacency_unpack",
    "attach_binding",
    "fork_map_workers",
    "ViewPrivateAccessRule",
    "BatchCacheResetRule",
    "ForkMapClosureRule",
    "SharedGraphWriteRule",
]

#: parameter names the engine contract reserves for sealed views
VIEW_PARAMS = frozenset({"view", "views"})


def private_read(node: ast.AST) -> Optional[str]:
    """The receiver name of a ``name._x`` read (dunders excluded)."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")):
        return node.value.id
    return None


class ViewPrivateAccessRule(SiteRule):
    """ENG001: algorithm code touching private view state.

    The fact extractor records a site for every :func:`private_read` of
    a ``view``/``views`` parameter of an enclosing ``def`` — in its
    body, in defs nested in it (closures), and in its decorators,
    defaults and annotations.
    """

    id = "ENG001"
    summary = ("decide/decide_batch must stay inside the View API; "
               "view._* is engine-private state")


def private_message(name: str, attr: str) -> str:
    return (f"{name}.{attr} is engine-private state; algorithms must use "
            "the public View API (ball/label/radius/...)")


_RESET_METHODS = {"__init__", "setup"}


class BatchCacheResetRule(Rule):
    """ENG002: per-execution caches not reset in ``setup``.

    In a class that defines ``decide_batch``, any ``self._x`` assigned
    inside a non-``setup`` method is a per-execution cache (memoised
    traces, batch state, colour tables).  ``setup(graph, n)`` is the
    engine's only reset hook between executions — a cache it does not
    reassign leaks the previous graph's state into the next run.
    """

    id = "ENG002"
    summary = ("BatchedAlgorithm caches assigned outside setup must be "
               "reset in setup (the per-execution reset hook)")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        methods = [m for m in node.body if isinstance(
            m, (ast.FunctionDef, ast.AsyncFunctionDef))]
        names = {m.name for m in methods}
        if "decide_batch" not in names:
            self.generic_visit(node)
            return
        reset: Set[str] = set()
        for m in methods:
            if m.name in _RESET_METHODS:
                reset |= {attr for attr, _ in self._self_assignments(m)}
        for m in methods:
            if m.name in _RESET_METHODS or (
                    m.name.startswith("__") and m.name.endswith("__")):
                continue
            for attr, site in self._self_assignments(m):
                if attr not in reset:
                    self.report(site, f"self.{attr} is assigned in "
                                      f"{m.name}() but never reset in "
                                      "setup(); per-execution caches "
                                      "leak across executions")
        self.generic_visit(node)

    @staticmethod
    def _self_assignments(
        method: ast.AST,
    ) -> List[Tuple[str, ast.AST]]:
        """``(attr, node)`` for every ``self.attr = ...`` in ``method``."""
        out: List[Tuple[str, ast.AST]] = []
        for inner in ast.walk(method):
            targets: List[ast.expr] = []
            if isinstance(inner, ast.Assign):
                targets = inner.targets
            elif isinstance(inner, (ast.AugAssign, ast.AnnAssign)):
                targets = [inner.target]
            for target in targets:
                nodes = (target.elts if isinstance(
                    target, (ast.Tuple, ast.List)) else [target])
                for t in nodes:
                    if (isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"):
                        out.append((t.attr, t))
        return out


def fork_map_workers(node: ast.Call) -> List[ast.expr]:
    """What a ``fork_map`` call ships to its workers: the first argument
    and the ``fn=``/``initializer=`` keywords."""
    return node.args[:1] + [kw.value for kw in node.keywords
                            if kw.arg in ("fn", "initializer")]


class ForkMapClosureRule(Rule):
    """PAR001: only module-level callables survive fork_map pickling."""

    id = "PAR001"
    summary = ("fork_map workers must be module-level functions; "
               "lambdas/closures do not pickle")

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        #: names bound to lambdas or nested defs, per enclosing function
        self._local_callables: List[Set[str]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        local: Set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local.add(stmt.name)
            elif isinstance(stmt, ast.Assign) and isinstance(
                    stmt.value, ast.Lambda):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        local.add(target.id)
        self._local_callables.append(local)
        self.generic_visit(node)
        self._local_callables.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        is_fork_map = (
            (isinstance(func, ast.Name) and func.id == "fork_map")
            or (isinstance(func, ast.Attribute) and func.attr == "fork_map")
        )
        if is_fork_map:
            for cand in fork_map_workers(node):
                self._check_worker(cand)
        self.generic_visit(node)

    def _check_worker(self, node: ast.expr) -> None:
        if isinstance(node, ast.Lambda):
            self.report(node, "lambda passed to fork_map; lambdas do not "
                              "pickle across the fork — define a module-"
                              "level worker function")
        elif isinstance(node, ast.Name):
            for scope in self._local_callables:
                if node.id in scope:
                    self.report(node, f"{node.id} is defined inside a "
                                      "function; fork_map workers must "
                                      "be module-level (closures do not "
                                      "pickle)")
                    return


#: calls whose result is an attached shared-memory graph
ATTACH_CALLS = frozenset({"shared_graph", "attach_graph",
                          "from_csr_buffers"})


def unsealed(node: ast.AST) -> List[ast.expr]:
    """The arrays an un-seal makes writable: the receiver of
    ``a.setflags(write=...)`` or of ``a.flags.writeable = ...``, unless
    the value is a literal ``False`` (sealing is the sanctioned way)."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "setflags":
            for kw in node.keywords:
                if kw.arg == "write" and not _is_false(kw.value):
                    return [func.value]
    elif isinstance(node, ast.Assign) and not _is_false(node.value):
        return [t.value.value for t in node.targets
                if isinstance(t, ast.Attribute) and t.attr == "writeable"
                and isinstance(t.value, ast.Attribute)
                and t.value.attr == "flags"]
    return []


def _is_false(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is False


def adjacency_unpack(node: ast.Assign) -> Optional[Tuple[str, List[str]]]:
    """``(g, names)`` for ``names = g.adjacency()`` (tuple targets
    unpack), else ``None``."""
    value = node.value
    if not (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "adjacency"
            and isinstance(value.func.value, ast.Name)):
        return None
    names: List[str] = []
    for target in node.targets:
        elts = (target.elts if isinstance(target, (ast.Tuple, ast.List))
                else [target])
        names.extend(t.id for t in elts if isinstance(t, ast.Name))
    return value.func.value.id, names


def attach_binding(node: ast.Assign, attached) -> Tuple[str, List[str]]:
    """What an assignment binds to attached shared memory: ``("graphs",
    names)`` for the name targets of an attach call, ``("arrays",
    names)`` for the arrays unpacked from ``g.adjacency()`` of a graph
    ``attached(g)`` holds, else ``("", [])``."""
    value = node.value
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if name in ATTACH_CALLS:
            return "graphs", [t.id for t in node.targets
                              if isinstance(t, ast.Name)]
    unpack = adjacency_unpack(node)
    if unpack is not None and attached(unpack[0]):
        return "arrays", unpack[1]
    return "", []


class SharedGraphWriteRule(SiteRule):
    """SHM001: attached shared-memory graphs are read-only.

    A graph obtained from :func:`repro.shm.shared_graph` /
    :func:`attach_graph` / :meth:`Graph.from_csr_buffers` aliases a
    segment mapped by every sibling worker; an in-place write races all
    of them.  The rule flags stores into arrays unpacked from such a
    graph's ``adjacency()`` and any ``setflags(write=True)`` /
    ``.flags.writeable = True`` un-sealing (sealing with ``False``, as
    ``frontier._readonly`` does, is the sanctioned direction).

    The fact extractor records the sites.  It resolves a stored name in
    the innermost scope that binds it, so a parameter or a local
    assignment shadows an attached name of another scope.
    """

    id = "SHM001"
    summary = ("attached shared-memory graph arrays are read-only; "
               "copy before mutating")


SETFLAGS_MESSAGE = ("setflags(write=True) un-seals a shared array; "
                    "attached segments are mapped by sibling workers — "
                    "copy instead")
WRITEABLE_MESSAGE = (".flags.writeable = True un-seals a shared array; "
                     "attached segments are mapped by sibling workers")


def store_message(name: str) -> str:
    return (f"store into {name}[...] — it aliases an attached "
            "shared-memory segment; copy before mutating")
