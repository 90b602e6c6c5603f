"""IPD rules: the intramodule contracts, followed across calls.

Every syntactic rule in this package has a blind spot one call deep: a
``decide`` that delegates its coin flips to a helper, an algorithm that
hands its ``view`` to a function which pokes ``view._ball``, a worker
that passes an attached shm array into a routine that writes it.  The
fact extractor (:mod:`repro.lint.summaries`) records each base rule's
sites once per file; the runner links the files' facts, propagates the
per-function summary bits they seed to a fixpoint over the project call
graph, and reports these rules' findings through the same severity and
suppression filter as every other rule.

These classes declare the rules (ids, summaries, default severities);
they do no AST walking of their own, and a single module analyzed on
its own (:func:`repro.lint.core.analyze_source`) yields none of their
findings.
"""

from __future__ import annotations

from ..core import ProjectRule

__all__ = [
    "TransitiveEntropyRule",
    "TransitiveViewInternalsRule",
    "TransitiveSharedWriteRule",
]


class TransitiveEntropyRule(ProjectRule):
    """IPD001: an entry point transitively reaches unseeded randomness.

    Entry points are functions named ``decide``/``decide_batch`` and
    every resolved ``fork_map`` worker (``fn=``/``initializer=``).  The
    *local* case — the entry draws entropy itself — is DET001's finding;
    IPD001 fires exactly when the draw is hidden in a callee, at any
    depth, and reports the call chain that reaches it.  The fix is the
    same as DET001's: thread a seeded rng (derive the seed with
    ``repro.parallel.stable_seed``) through the chain.
    """

    id = "IPD001"
    summary = ("decide/decide_batch/fork_map worker transitively reaches "
               "unseeded randomness through its callees")


class TransitiveViewInternalsRule(ProjectRule):
    """IPD002: a ``view`` escapes into a callee that reads ``_`` state.

    ENG001 flags ``view._x`` inside functions that take a view; IPD002
    follows the view parameter through calls — a function passing its
    ``view``/``views`` bare into a (transitively) internals-reading
    parameter gets flagged at the call site, with the read chain.  The
    engine contract (docs/engine-contract.md) makes private attributes
    unstable across engines; helpers do not get a pass for hiding the
    access one frame down.
    """

    id = "IPD002"
    summary = ("view escapes into a callee that (transitively) reads "
               "engine-private View._* state")


class TransitiveSharedWriteRule(ProjectRule):
    """IPD003: an attached shm object escapes into a writing callee.

    SHM001 flags direct writes through names bound by
    ``shared_graph``/``attach_graph``/``from_csr_buffers``; IPD003
    follows those names into calls — passing an attached graph (or an
    ``adjacency()`` array of one) bare into a parameter the callee
    (transitively) writes is the same bug with a stack frame in the
    middle: sibling workers map those exact pages.
    """

    id = "IPD003"
    summary = ("attached shared-memory graph/array passed into a callee "
               "that (transitively) writes it")
