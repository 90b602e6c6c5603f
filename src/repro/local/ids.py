"""Identifier assignments for LOCAL algorithms.

In the LOCAL model, nodes carry unique identifiers from a polynomial ID space
``{1, ..., n^c}``.  Deterministic algorithms may depend on these IDs (this is
exactly what the paper's lower-bound arguments manipulate), so the choice of
assignment is part of the experiment design:

* :func:`sequential_ids` — IDs ``1..n`` in node-handle order (best case for
  symmetry breaking, useful as a sanity baseline);
* :func:`random_ids` — uniformly random injection into ``{1..n^c}`` (the
  standard adversarial-free setting for measuring upper bounds), drawn in
  numpy batches from a Generator seeded by one ``rng.getrandbits(128)``
  draw: the assignment is the first ``n`` distinct values of that draw
  stream, in draw order.  One sort of the first ``n`` draws finds the
  usual case, no repeat, where that batch is the assignment; only a
  repeat pays for ``np.unique``'s first-occurrence pass.  A space beyond
  int64 (``n > 2 097 151`` at ``c = 3``) raises ``ValueError``;
* adversarial assignments — the node-averaged measure is a sup over ID
  assignments as well as topology, so sweeps probe structured worst cases:
  :func:`descending_ids` (IDs strictly decreasing in handle order — on
  canonical paths every edge points backwards, the classic bad case for
  greedy orientations), :func:`bit_reversal_ids` (handles ranked by their
  bit-reversed value — destroys the correlation between handle distance
  and ID distance that random assignments keep on average), and
  :func:`boundary_clustered_ids` (smallest IDs alternate between the two
  ends of the handle range — clusters extreme IDs at path/cycle
  boundaries, where root/parent election rules are most sensitive);
* :data:`ID_MODES` / :func:`make_ids` — the named registry sweeps expose
  as an axis (``python -m repro.sweep --id-mode ...``);
* :func:`id_space_size` — the canonical ID space size ``n^c``;
* :func:`validate_ids` — the integer/uniqueness/positivity check every
  simulator entry point applies to caller-supplied assignments: one
  sorted integer-array pass accepts a valid assignment and returns it
  as a read-only int64 array, and the per-ID loop, its oracle, produces
  every rejection but one, of IDs beyond int64.

Every assignment is a read-only int64 array (:data:`IdAssignment`), the
one form the IDs keep from the sampler to ``decide_batch``.  The
paper's ID space ``{1..n^c}`` fits int64 for every ``n <= 2 097 151``
at ``c = 3``; per-node code that indexes IDs one at a time converts the
array once with ``tolist()``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, NamedTuple, Optional, Sequence

import numpy as np

from ..parallel import stable_seed

__all__ = [
    "sequential_ids",
    "random_ids",
    "descending_ids",
    "bit_reversal_ids",
    "boundary_clustered_ids",
    "IdMode",
    "ID_MODES",
    "make_ids",
    "validate_ids",
    "id_space_size",
    "IdAssignment",
]

#: an ID assignment: a read-only int64 array, one ID per node handle
IdAssignment = np.ndarray


def id_space_size(n: int, c: int = 3) -> int:
    """The canonical polynomial ID space size ``n^c`` (``c >= 1``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if c < 1:
        raise ValueError("c must be >= 1")
    return n**c


#: the largest ID an assignment can hold
_INT64_MAX = 2**63 - 1


def _sealed(ids) -> IdAssignment:
    """``ids`` as a read-only int64 array, the form of every assignment."""
    arr = np.asarray(ids, dtype=np.int64)
    arr.flags.writeable = False
    return arr


def sequential_ids(n: int) -> IdAssignment:
    """IDs ``1..n`` in node-handle order."""
    return _sealed(np.arange(1, n + 1))


def _topup_size(n: int, kept: int, space: int) -> int:
    """Draws for the next batch of :func:`random_ids` once ``kept`` of
    the ``n`` distinct IDs are in hand: the missing count scaled by the
    expected draws per fresh value, ``space / (space - kept)`` (rounded
    up).  The first batch is exactly ``n``."""
    return -(-(n - kept) * space // (space - kept))


def random_ids(
    n: int,
    c: int = 3,
    rng: Optional[random.Random] = None,
) -> IdAssignment:
    """A uniformly random injective ID assignment from ``{1..n^c}``.

    Rejection sampling without materialising the ID space, vectorized:
    ``rng`` yields one ``getrandbits(128)`` draw that seeds a
    ``numpy.random.Generator``, whose stream of uniform draws from
    ``[1, n^c]`` is consumed in batches, and the assignment is the first
    ``n`` distinct values of that stream in draw order — exactly what a
    sequential draw-and-retry-on-collision loop returns on the same
    stream, so it is a uniform random injection.  The first batch draws
    ``n`` values; each top-up draws the expected number of draws needed
    for the missing ones (:func:`_topup_size`), so even ``c = 1``
    (space ``n``) finishes in ``O(log n)`` batches.  For ``c >= 2`` a
    top-up is rare (expected collisions are about ``n^2 / 2n^c``), and
    so is any repeat: the first batch is sorted once, and when it holds
    no repeat it is returned as drawn, without ``np.unique``'s stable
    argsort.  The assignment is a read-only int64 array.

    A space beyond int64 (``n^c >= 2^63``, i.e. ``n > 2 097 151`` at
    ``c = 3``) raises ``ValueError`` before any draw.

    Only one draw is taken from ``rng``, so callers can draw several
    assignments from one shared ``rng``.  Without an explicit ``rng``
    the assignment is a deterministic function of ``(n, c)`` (DET001:
    unseeded entropy is banned in library code).
    """
    space = id_space_size(n, c)
    if space > _INT64_MAX:
        raise ValueError(f"ID space {n}^{c} exceeds int64")
    rng = rng or random.Random(stable_seed("repro.local.ids.random_ids", n, c))
    gen = np.random.default_rng(rng.getrandbits(128))
    batch = gen.integers(1, space, size=n, endpoint=True)
    ordered = np.sort(batch)
    if not (ordered[1:] == ordered[:-1]).any():
        return _sealed(batch)
    kept = np.empty(0, dtype=np.int64)
    while True:
        values, first = np.unique(batch, return_index=True)
        if kept.size:
            first = first[~np.isin(values, kept, assume_unique=True)]
        first.sort()
        kept = np.concatenate((kept, batch[first[:n - kept.size]]))
        if kept.size == n:
            return _sealed(kept)
        batch = gen.integers(1, space, size=_topup_size(n, kept.size, space),
                             endpoint=True)


def descending_ids(n: int) -> IdAssignment:
    """IDs ``n..1`` in node-handle order (strictly decreasing)."""
    return _sealed(np.arange(n, 0, -1))


def bit_reversal_ids(n: int) -> IdAssignment:
    """Handles ranked by the bit-reversal of their binary representation.

    Handle ``v`` is written in ``ceil(log2 n)`` bits, the bits are
    reversed, and IDs ``1..n`` are assigned by ascending reversed value
    (ties — only possible through the shared zero — broken by handle).
    Nearby handles land far apart in ID order and vice versa, the standard
    decorrelation permutation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bits = max(1, (n - 1).bit_length())
    order = sorted(
        range(n),
        key=lambda v: (int(format(v, f"0{bits}b")[::-1], 2), v),
    )
    ids = [0] * n
    for rank, v in enumerate(order):
        ids[v] = rank + 1
    return _sealed(ids)


def boundary_clustered_ids(n: int) -> IdAssignment:
    """Small IDs clustered at the two ends of the handle range.

    IDs are dealt alternately to the lowest and highest unassigned
    handles: handle 0 gets 1, handle ``n-1`` gets 2, handle 1 gets 3, ...
    so the extreme (small) IDs sit on the boundary nodes of canonical
    paths/cycles and the largest IDs in the middle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ids = [0] * n
    lo, hi, next_id = 0, n - 1, 1
    while lo <= hi:
        ids[lo] = next_id
        next_id += 1
        lo += 1
        if lo <= hi:
            ids[hi] = next_id
            next_id += 1
            hi -= 1
    return _sealed(ids)


class IdMode(NamedTuple):
    """A registered ID-assignment mode.

    ``deterministic`` declares whether ``fn`` ignores the rng (same
    assignment on every call for a given ``n``) — consumers like the
    sweep use it to collapse redundant samples, so a mode that consumes
    the rng must say ``deterministic=False`` or aggregates over it will
    silently lose their independent draws.
    """

    fn: Callable[[int, Optional[random.Random]], IdAssignment]
    deterministic: bool


#: Named ID-assignment modes, the sweep axis.
ID_MODES: Dict[str, IdMode] = {
    "random": IdMode(lambda n, rng=None: random_ids(n, rng=rng),
                     deterministic=False),
    "sequential": IdMode(lambda n, rng=None: sequential_ids(n),
                         deterministic=True),
    "descending": IdMode(lambda n, rng=None: descending_ids(n),
                         deterministic=True),
    "bit_reversal": IdMode(lambda n, rng=None: bit_reversal_ids(n),
                           deterministic=True),
    "boundary_clustered": IdMode(lambda n, rng=None: boundary_clustered_ids(n),
                                 deterministic=True),
}


def get_id_mode(mode: str) -> IdMode:
    """Look up a registered mode; ``KeyError`` with the known names."""
    try:
        return ID_MODES[mode]
    except KeyError:
        raise KeyError(
            f"unknown id mode {mode!r}; known: {sorted(ID_MODES)}"
        ) from None


def make_ids(
    mode: str, n: int, rng: Optional[random.Random] = None
) -> IdAssignment:
    """Build an ID assignment by mode name (see :data:`ID_MODES`)."""
    return get_id_mode(mode).fn(n, rng)


#: what :func:`validate_ids` accepts as an ID: Python and numpy integers
_INTEGER_TYPES = (int, np.integer)


def _accepted_as_array(ids, space: Optional[int]) -> Optional[np.ndarray]:
    """The array accept path of :func:`validate_ids`: the IDs as a new
    read-only int64 array iff every ID is an ``int`` or ``np.integer``
    (one ``map(type, ids)`` pass, skipped for an integer ndarray), they
    convert to a 1-D int64 array, and that array, sorted, has minimum
    >= 1, maximum <= ``space`` and no adjacent repeat.  The conversion
    names its dtype only after the type pass, since an explicit
    ``dtype=np.int64`` would truncate floats and parse strings.  A
    uint64 ID beyond int64 either fails to convert or wraps to a
    negative value, so it never passes.  None means "ask the loop",
    which raises unless every ID is valid and one lies beyond int64."""
    if not (isinstance(ids, np.ndarray) and ids.dtype.kind in "iu"):
        if not all(issubclass(t, _INTEGER_TYPES) for t in set(map(type, ids))):
            return None
    try:
        arr = np.array(ids, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        return None
    if arr.ndim != 1:
        return None
    if arr.size:
        ordered = np.sort(arr)
        if not (ordered[0] >= 1
                and (space is None or int(ordered[-1]) <= space)
                and not (ordered[1:] == ordered[:-1]).any()):
            return None
    return _sealed(arr)


def validate_ids(
    ids: Sequence[int], space: Optional[int] = None
) -> IdAssignment:
    """The IDs as a read-only int64 array; ``ValueError`` unless they are
    unique positive integers in range that fit int64.  Python and numpy
    integers are accepted.  Anything else (floats, strings) is rejected
    up front, so every engine fails the same way instead of an int64
    conversion silently truncating a float ID.

    A valid assignment is accepted by one sorted-array pass
    (:func:`_accepted_as_array`), which returns the IDs as a read-only
    int64 array: always a copy, never the caller's array, so a caller
    can hand it on (the batched engine's ``views.ids``) without
    converting the IDs again.  Every other input runs the per-ID loop
    :func:`_validate_ids_loop`, which is also the oracle the array path
    is tested against: every rejection's exception type and message are
    the loop's.  An assignment the loop accepts but the array path does
    not holds an ID beyond int64, and raises one ``ValueError`` naming
    int64.
    """
    arr = _accepted_as_array(ids, space)
    if arr is None:
        _validate_ids_loop(ids, space)
        raise ValueError(f"IDs must fit int64 (at most {_INT64_MAX})")
    return arr


def _validate_ids_loop(ids: Sequence[int], space: Optional[int]) -> None:
    """The per-ID check behind every :func:`validate_ids` rejection."""
    if len(set(ids)) != len(ids):
        raise ValueError("IDs must be unique")
    for x in ids:
        if not isinstance(x, _INTEGER_TYPES):
            raise ValueError(f"IDs must be integers, got {x!r}")
        if x < 1:
            raise ValueError("IDs must be >= 1")
        if space is not None and x > space:
            raise ValueError(f"ID {x} exceeds ID space {space}")
