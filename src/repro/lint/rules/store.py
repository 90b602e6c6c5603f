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

from ..core import ProjectRule, SiteRule
from .determinism import CLOCK_SOURCES

__all__ = [
    "ENVIRONMENT_SOURCES",
    "is_store_put",
    "payload_writer",
    "purity_message",
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

#: what STORE001 keeps out of writer scopes: DET003's clock/entropy set
#: plus the identity sources
ENVIRONMENT_SOURCES = CLOCK_SOURCES | _IDENTITY_SOURCES


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


def payload_writer(node: ast.Call) -> bool:
    """``atomic_write_json``/``atomic_write_text`` (bare or as an
    attribute) or ``<store>.put(...)``: the calls that persist payloads."""
    func = node.func
    if isinstance(func, ast.Name) and func.id in _WRITER_NAMES:
        return True
    if isinstance(func, ast.Attribute) and func.attr in _WRITER_NAMES:
        return True
    return is_store_put(node)


def purity_message(qual: str) -> str:
    """STORE001's text for a read of the source ``qual``."""
    return (f"{qual} read in a scope that persists payloads "
            "(atomic_write_*/store.put); persisted bytes must be pure "
            "functions of the key — hoist the environmental read out, or "
            "keep it out of the payload")


class StorePayloadPurityRule(SiteRule):
    """STORE001: store payload writers must not read the environment.

    A scope (module body or single function, nested defs excluded) that
    calls a :func:`payload_writer` must not also read a wall-clock,
    entropy or host/process-identity source: whatever those values feed,
    they make persisted bytes depend on when/where the writer ran, and
    a warm store read will no longer byte-match a cold recompute.  Take
    timestamps *outside* the writer scope (or keep them out of persisted
    payloads entirely, like the sweep's ``cache`` channel).

    The fact extractor records the sites: per scope, its writer calls
    and the source reads it resolved for DET003 (a local rebinding of a
    source's name is not a read).  Lambdas, class bodies and
    comprehensions belong to the enclosing scope, as do a def's
    decorators; its defaults belong to the def's own scope, since they
    feed the body, and annotations to none.
    """

    id = "STORE001"
    summary = ("store/artifact writer scope reads wall-clock, entropy or "
               "host identity; persisted payloads must be pure functions "
               "of their keys")


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
