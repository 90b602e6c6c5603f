"""Content-addressed result store: the offline-build/online-query core.

Everything expensive in this repro is build-once/query-many — sweep
cells and census verdicts are pure functions of a handful of naming
values (family, size, seed, algorithm spec, canonical problem form).
:class:`ResultStore` turns those names into **content addresses** via
:func:`repro.parallel.stable_digest` and persists each result as one
small canonical-JSON file, so every pipeline that hits the store becomes
incremental: reruns read, only new work simulates, and a killed run
resumes from what it already decided.

Layout
------
::

    <root>/manifest.json                 # {"format": 1, "salt": "..."}
    <root>/objects/<kind>/ab/cd/<digest>.json

Entries fan out two hex levels below their *kind* (``sweep-unit``,
``census-verdict``, ...) so directories stay small at millions of
entries and ``stats()`` can count per kind without reading payloads.

Durability and invalidation
---------------------------
* Every write goes through :func:`atomic_write_text` — serialize fully,
  write to a same-directory temp file, ``fsync``, then ``os.replace``.
  A killed writer leaves the target either absent or complete, never
  truncated.
* Keys digest the store's ``salt`` (a code-version string) along with
  the naming parts, and the manifest records it: opening a store whose
  manifest carries a different salt drops the stale objects — a schema
  bump invalidates cleanly instead of serving wrong-shaped payloads.
* A corrupted or truncated entry (interrupted copy, disk fault) is
  **treated as a miss** — recomputed and rewritten, never served.

Reads go through a small in-process LRU of canonical-JSON texts, so a
hot key costs one ``json.loads`` and no disk I/O; the LRU stores text,
not objects, so callers can never alias or mutate a cached payload.

Payload purity
--------------
Store payloads must be pure functions of their key: no wall-clock
timestamps, hostnames or process ids (lint rule ``STORE001`` extends
``DET003``'s intent to persisted artifacts).  A payload that embedded
the time it was computed would break the byte-identity contract between
cold and warm runs.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from collections import OrderedDict
from typing import Dict, NamedTuple, Optional, Union

from ..parallel import stable_digest

__all__ = [
    "CODE_SALT",
    "StoreKey",
    "ResultStore",
    "as_store",
    "canonical_json",
    "atomic_write_text",
    "atomic_write_json",
]

#: The code-version salt baked into every key digest and recorded in the
#: store manifest.  Bump it whenever a payload schema or the semantics
#: of a keyed computation change: old entries then never hit (the salt
#: is part of the digest) and are dropped on the next open (the manifest
#: no longer matches).
CODE_SALT = "store-v2"

#: on-disk wrapper format version (independent of the salt: the salt
#: names *payload* semantics, the format names the wrapper envelope)
_FORMAT = 1


class StoreKey(NamedTuple):
    """A content address: the entry's kind plus its hex digest."""

    kind: str
    digest: str


def canonical_json(payload: object) -> str:
    """Canonical JSON text (sorted keys, 2-space indent, trailing
    newline) — the byte-comparable serialization used everywhere a
    payload is persisted or compared."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def atomic_write_text(path: Union[str, os.PathLike], text: str) -> None:
    """Write ``text`` to ``path`` atomically.

    The text is written to a temp file in the target's directory,
    flushed and fsynced, then moved into place with ``os.replace`` —
    the only step that touches ``path``, and it is atomic on POSIX.  A
    writer killed at any point leaves the target either absent, or the
    previous complete version, or the new complete version; never a
    truncated hybrid.  On failure the temp file is removed.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: Union[str, os.PathLike], payload: object) -> str:
    """Serialize ``payload`` as canonical JSON and write it atomically;
    returns the written text (for callers that also emit it)."""
    text = canonical_json(payload)
    atomic_write_text(path, text)
    return text


class ResultStore:
    """A sharded on-disk content-addressed store with an in-process LRU.

    Parameters
    ----------
    root:
        Store directory (created if missing).
    salt:
        Code-version salt; part of every key digest and recorded in the
        manifest.  Opening a store written under a different salt drops
        the stale objects (see :data:`CODE_SALT`).
    lru_size:
        Entries kept in the in-process read cache (canonical-JSON
        texts, keyed by :class:`StoreKey`).
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        salt: str = CODE_SALT,
        lru_size: int = 4096,
    ) -> None:
        if lru_size < 1:
            raise ValueError("lru_size must be >= 1")
        self.root = os.path.abspath(os.fspath(root))
        self.salt = str(salt)
        self.lru_size = lru_size
        self._lru: "OrderedDict[StoreKey, str]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0
        os.makedirs(self.objects_root, exist_ok=True)
        self._reconcile_manifest()

    # ------------------------------------------------------------------
    @property
    def objects_root(self) -> str:
        return os.path.join(self.root, "objects")

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, "manifest.json")

    def _reconcile_manifest(self) -> None:
        """Adopt the store, dropping entries written under another salt
        or wrapper format (their keys can never be requested again —
        the salt is inside the digest — so they are dead weight)."""
        manifest: Optional[Dict] = None
        try:
            with open(self.manifest_path, encoding="utf-8") as fh:
                loaded = json.load(fh)
            if isinstance(loaded, dict):
                manifest = loaded
        except (OSError, ValueError):
            manifest = None
        if (manifest is not None and manifest.get("format") == _FORMAT
                and manifest.get("salt") == self.salt):
            return
        if os.listdir(self.objects_root):
            shutil.rmtree(self.objects_root)
            os.makedirs(self.objects_root, exist_ok=True)
        atomic_write_json(
            self.manifest_path, {"format": _FORMAT, "salt": self.salt}
        )

    # ------------------------------------------------------------------
    def key(self, kind: str, *parts: object) -> StoreKey:
        """The content address of ``parts`` under ``kind``.

        The digest covers the salt, the kind and every part (rendered
        through :func:`repro.parallel.stable_digest`, so it is stable
        across processes and ``PYTHONHASHSEED`` values).
        """
        if not kind or "/" in kind or kind.startswith("."):
            raise ValueError(f"invalid store kind {kind!r}")
        return StoreKey(
            kind, stable_digest("repro-store", self.salt, kind, *parts,
                                size=16)
        )

    def path_for(self, key: StoreKey) -> str:
        d = key.digest
        return os.path.join(self.objects_root, key.kind, d[:2], d[2:4],
                            f"{d}.json")

    # ------------------------------------------------------------------
    def get(self, key: StoreKey) -> Optional[object]:
        """The payload stored under ``key``, or ``None`` on a miss.

        A corrupted / truncated / mis-keyed entry counts as a miss (and
        bumps the ``corrupt`` counter) — it is never served, and the
        next :meth:`put` rewrites it.
        """
        text = self._lru.get(key)
        from_disk = text is None
        if from_disk:
            try:
                with open(self.path_for(key), encoding="utf-8") as fh:
                    text = fh.read()
            except OSError:
                self.misses += 1
                return None
        else:
            self._lru.move_to_end(key)
        payload = self._unwrap(text, key)
        if payload is _CORRUPT:
            self._lru.pop(key, None)
            self.corrupt += 1
            self.misses += 1
            return None
        if from_disk:
            self._remember(key, text)
        self.hits += 1
        return payload

    def put(self, key: StoreKey, payload: object) -> StoreKey:
        """Persist ``payload`` under ``key`` (atomic write-to-temp +
        ``os.replace``; concurrent writers of the same key are safe —
        last complete write wins, readers never see a partial file)."""
        text = canonical_json({
            "format": _FORMAT,
            "kind": key.kind,
            "key": key.digest,
            "payload": payload,
        })
        atomic_write_text(self.path_for(key), text)
        self._remember(key, text)
        self.puts += 1
        return key

    def __contains__(self, key: StoreKey) -> bool:
        return key in self._lru or os.path.exists(self.path_for(key))

    # ------------------------------------------------------------------
    @staticmethod
    def _unwrap(text: str, key: StoreKey) -> object:
        try:
            wrapper = json.loads(text)
        except ValueError:
            return _CORRUPT
        if (not isinstance(wrapper, dict)
                or wrapper.get("format") != _FORMAT
                or wrapper.get("kind") != key.kind
                or wrapper.get("key") != key.digest
                or "payload" not in wrapper):
            return _CORRUPT
        return wrapper["payload"]

    def _remember(self, key: StoreKey, text: str) -> None:
        self._lru[key] = text
        self._lru.move_to_end(key)
        while len(self._lru) > self.lru_size:
            self._lru.popitem(last=False)

    # ------------------------------------------------------------------
    def entry_counts(self) -> Dict[str, Dict[str, int]]:
        """Per-kind ``{"entries": ..., "bytes": ...}`` from a sorted
        walk of the on-disk layout (no payload is read)."""
        kinds: Dict[str, Dict[str, int]] = {}
        for kind in sorted(os.listdir(self.objects_root)):
            kind_dir = os.path.join(self.objects_root, kind)
            if not os.path.isdir(kind_dir):
                continue
            entries = 0
            size = 0
            for dirpath, dirnames, filenames in os.walk(kind_dir):
                dirnames.sort()
                for fname in sorted(filenames):
                    if not fname.endswith(".json"):
                        continue
                    entries += 1
                    try:
                        size += os.path.getsize(os.path.join(dirpath, fname))
                    except OSError:
                        pass
            kinds[kind] = {"entries": entries, "bytes": size}
        return kinds

    def __len__(self) -> int:
        return sum(k["entries"] for k in self.entry_counts().values())

    def stats(self) -> Dict:
        """Introspection payload: in-process counters plus the on-disk
        footprint (this is *reporting* output, not a store payload — it
        may name the root path)."""
        kinds = self.entry_counts()
        return {
            "root": self.root,
            "salt": self.salt,
            "format": _FORMAT,
            "counters": {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "corrupt": self.corrupt,
            },
            "entries": sum(k["entries"] for k in kinds.values()),
            "bytes": sum(k["bytes"] for k in kinds.values()),
            "kinds": kinds,
        }

    def reset_counters(self) -> None:
        self.hits = self.misses = self.puts = self.corrupt = 0


#: sentinel distinguishing "corrupt entry" from a legitimate None payload
_CORRUPT = object()


def as_store(
    store: Union[None, str, os.PathLike, ResultStore],
) -> Optional[ResultStore]:
    """Coerce a ``store=`` argument: ``None`` passes through, a path
    opens a :class:`ResultStore` there, an existing store is returned
    as-is — the one conversion every store-aware entry point shares."""
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store)
