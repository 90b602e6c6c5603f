"""Shared determinism and fan-out helpers for parallel runners.

Both the family sweeps (:mod:`repro.sweep`) and the problem-space census
(:mod:`repro.gap.census`) follow the same discipline: every random draw
is derived from a **stable digest** of the values that name the work unit
(never from built-in ``hash``, which is salted per process), tasks are
mapped over a ``fork`` multiprocessing pool, and results are re-assembled
in task order — so the emitted JSON is **byte-identical at every worker
count** and parallelism only changes wall-clock time.

* :func:`stable_seed` — a 64-bit seed from a blake2b digest of the parts
  joined with ``"|"`` (exactly the digest the sweep and family layers
  have always used, now shared).
* :func:`stable_digest` — the same digest as a short hex string, for
  deterministic artifact names.
* :func:`fork_map` — ordered ``pool.imap`` over a fork-context pool,
  falling back to an in-process loop at ``workers=1`` and failing loudly
  on platforms without ``fork`` (spawn workers re-import fresh registries,
  so dynamically registered families/algorithms/problems would vanish
  mid-run).  A task that raises surfaces as :class:`ForkTaskError`
  naming the failing task (its label) and embedding the worker
  traceback — not the opaque pickled traceback pools give by default.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import traceback
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

__all__ = ["stable_seed", "stable_digest", "fork_map", "ForkTaskError"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def _digest(parts: Sequence[object], size: int) -> bytes:
    return hashlib.blake2b(
        "|".join(str(p) for p in parts).encode(), digest_size=size
    ).digest()


def stable_seed(*parts: object) -> int:
    """A cross-process, ``PYTHONHASHSEED``-independent 64-bit seed derived
    from ``parts`` (joined with ``"|"`` and hashed with blake2b)."""
    return int.from_bytes(_digest(parts, 8), "big")


def stable_digest(*parts: object, size: int = 8) -> str:
    """The :func:`stable_seed` digest of ``parts`` as ``2 * size`` hex
    characters — deterministic short names for derived artifacts."""
    return _digest(parts, size).hex()


class ForkTaskError(RuntimeError):
    """A :func:`fork_map` task raised inside a worker.

    The message names the failing task — the ``label`` the caller
    supplied, or a truncated ``repr`` of the task — and embeds the
    worker-side traceback as text, because a pool re-raises worker
    exceptions in the parent with the *parent's* (useless) stack.  The
    exception pickles cleanly across the pool boundary: everything it
    carries is in the message string.
    """


def _task_label(task: object, label: Optional[Callable[[object], str]]) -> str:
    text = repr(task) if label is None else str(label(task))
    return text if len(text) <= 200 else text[:197] + "..."


def _call_labeled(packed: Tuple[Callable, object, str]):
    """The actual pool worker: run one task, converting any failure into
    a :class:`ForkTaskError` that names the task.  Module-level so it
    pickles by reference (the PAR001 discipline applies to fork_map's
    own internals too)."""
    fn, task, label = packed
    try:
        return fn(task)
    except ForkTaskError:
        raise
    except Exception as exc:
        raise ForkTaskError(
            f"fork_map task [{label}] failed: "
            f"{type(exc).__name__}: {exc}\n"
            f"--- worker traceback ---\n{traceback.format_exc().rstrip()}"
        ) from exc


def _drain(results: Iterable[_R],
           on_result: Optional[Callable[[int], None]]) -> List[_R]:
    """Collect ``results``, calling ``on_result`` after each one."""
    out: List[_R] = []
    for res in results:
        out.append(res)
        if on_result is not None:
            on_result(len(out))
    return out


def fork_map(
    fn: Callable[[_T], _R],
    tasks: Sequence[_T],
    workers: int,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[object, ...] = (),
    label: Optional[Callable[[_T], str]] = None,
    on_result: Optional[Callable[[int], None]] = None,
) -> List[_R]:
    """Map ``fn`` over ``tasks`` preserving task order.

    ``workers=1`` (or a single task) runs in-process — multiprocessing is
    never imported into the execution path, no pool is created, and the
    ``initializer`` (if any) runs once in the calling process so the
    executor-local state it sets up (e.g. shared-memory graph attachments)
    is visible exactly as it would be in a worker.  Otherwise the tasks
    fan over a fork-context pool — ``pool.imap``, never ``imap_unordered``,
    because deterministic aggregates require results in task order.  Fork
    workers inherit the parent's registries, so dynamically registered
    families/algorithms/problems stay resolvable by name.

    ``on_result`` (if given) is called **in the parent**, in task order,
    with the count of completed tasks after each one finishes — the
    progress hook.  Both paths collect results through the same loop, so
    aggregates stay byte-identical and the callback neither crosses the
    pool boundary nor needs to pickle.

    A task that raises surfaces as :class:`ForkTaskError` whose message
    names the task — ``label(task)`` when the caller supplies a labeller
    (it runs in the parent, so it need not pickle), a truncated ``repr``
    otherwise — and embeds the worker traceback.  The workers=1 path
    raises the identical wrapper, so error handling is worker-count
    independent.

    ``tasks`` is materialized once if not already a ``list``/``tuple``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not isinstance(tasks, (list, tuple)):
        tasks = list(tasks)
    packed = [(fn, t, _task_label(t, label)) for t in tasks]
    if workers == 1 or len(tasks) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return _drain(map(_call_labeled, packed), on_result)
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        # spawn workers re-import a fresh registry, so dynamically
        # registered entries would vanish mid-run — fail loudly instead
        # of crashing deep inside the pool
        raise RuntimeError(
            "parallel runs need a fork-capable platform (spawn workers "
            "cannot see dynamically registered families/algorithms/"
            "problems); use workers=1"
        )
    processes = min(workers, len(tasks))
    chunksize = max(1, len(tasks) // (processes * 4))
    with ctx.Pool(
        processes=processes, initializer=initializer, initargs=initargs
    ) as pool:
        return _drain(
            pool.imap(_call_labeled, packed, chunksize=chunksize), on_result
        )
