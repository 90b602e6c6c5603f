"""STORE rules: persisted artifacts must be pure functions of their keys.

The content-addressed store (:mod:`repro.store`) only works if a
payload's bytes are fully determined by the values in its key: a warm
run serves stored bytes where a cold run serializes fresh ones, and the
two must compare equal.  Anything environmental baked into a persisted
payload — a wall-clock timestamp, a hostname, a pid — breaks that
byte-identity silently.  ``STORE001`` extends ``DET003``'s intent from
in-process results to *persisted* artifacts.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from ..core import ProjectRule, Rule
from .determinism import CLOCK_SOURCES

__all__ = [
    "is_store_put",
    "store_receiver",
    "StorePayloadPurityRule",
    "StoreKeyCompletenessRule",
]

#: the writer entry points: the atomic persistence helpers plus
#: ``<...store...>.put(...)`` (a ResultStore write)
_WRITER_NAMES = {"atomic_write_json", "atomic_write_text"}

#: environment identity sources, on top of DET003's clock/entropy set —
#: none of these may flow into a scope that persists payloads
_IDENTITY_SOURCES = {
    "socket.gethostname", "socket.getfqdn",
    "platform.node", "platform.uname",
    "os.uname", "os.getlogin", "os.getpid", "os.getppid",
    "getpass.getuser",
}


def store_receiver(node: ast.expr) -> bool:
    """Whether any component of a receiver chain names a store
    (``store``, ``self.store``, ``self.store_dir.cache``)."""
    while isinstance(node, ast.Attribute):
        if "store" in node.attr.lower():
            return True
        node = node.value
    return isinstance(node, ast.Name) and "store" in node.id.lower()


def is_store_put(node: ast.Call) -> bool:
    """``<store>.put(...)``: the store write STORE001 and STORE002 check."""
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == "put"
            and store_receiver(func.value))


class StorePayloadPurityRule(Rule):
    """STORE001: store payload writers must not read the environment.

    A scope (module body or single function, nested defs excluded) that
    calls a payload writer — ``atomic_write_json``/``atomic_write_text``
    or ``.put(...)`` on a store — must not also read a wall-clock,
    entropy or host/process-identity source: whatever those values feed,
    they make persisted bytes depend on when/where the writer ran, and
    a warm store read will no longer byte-match a cold recompute.  Take
    timestamps *outside* the writer scope (or keep them out of persisted
    payloads entirely, like the sweep's ``cache`` channel).
    """

    id = "STORE001"
    summary = ("store/artifact writer scope reads wall-clock, entropy or "
               "host identity; persisted payloads must be pure functions "
               "of their keys")

    _SOURCES = CLOCK_SOURCES | _IDENTITY_SOURCES

    # -- scope handling -------------------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        self._scope(node.body)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scope(node.body)
        self.generic_visit(node)  # nested defs form their own scopes

    visit_AsyncFunctionDef = visit_FunctionDef

    def _scope(self, body: List[ast.stmt]) -> None:
        writes = False
        sources: List[Tuple[ast.AST, str]] = []
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # separate scope
            if isinstance(node, ast.Call) and self._is_writer(node):
                writes = True
            qual = self._source_qual(node)
            if qual is not None:
                sources.append((node, qual))
                continue  # one report per attribute chain
            stack.extend(ast.iter_child_nodes(node))
        if writes:
            for node, qual in sources:
                self.report(
                    node,
                    f"{qual} read in a scope that persists payloads "
                    "(atomic_write_*/store.put); persisted bytes must be "
                    "pure functions of the key — hoist the environmental "
                    "read out, or keep it out of the payload",
                )

    # -- writers and sources --------------------------------------------
    @staticmethod
    def _is_writer(node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _WRITER_NAMES:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _WRITER_NAMES:
            return True
        return is_store_put(node)

    def _source_qual(self, node: ast.AST):
        if isinstance(node, ast.Attribute):
            qual = self.ctx.qualname(node)
            if qual in self._SOURCES:
                return qual
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            qual = self.ctx.imports.get(node.id)
            if qual in self._SOURCES:
                return qual
        return None


class StoreKeyCompletenessRule(ProjectRule):
    """STORE002: every value shaping a stored payload must key it.

    The store's correctness invariant is *payload bytes are a pure
    function of the key parts* (docs/store.md).  STORE001 polices the
    environmental half; STORE002 polices the dataflow half: at a
    ``<store>.put(key, payload)`` whose key is (transitively) built by
    ``stable_digest``/``stable_seed``/``<store>.key``, any enclosing-
    function parameter that influences the payload but never flows into
    the digested key parts means two calls differing only in that value
    collide on one address — the second caller is silently served the
    first caller's bytes.  Add the value to the key parts, or drop it
    from the payload.

    This is a whole-program check (key helpers live in other modules):
    :mod:`repro.lint.summaries` computes its findings from the linked
    project.
    """

    id = "STORE002"
    summary = ("a value influences a stored payload but does not flow "
               "into its stable_digest key — colliding addresses serve "
               "stale bytes")
