"""Persistent on-disk result cache for sweeps and benchmarks.

One JSON file per entry under a cache root, keyed by a stable SHA-256
hash of the entry's identity (benchmark name, parameters, seed, cycle
count, schema version).  Because the key is derived from canonical JSON
— sorted keys, no whitespace variance — any process that describes the
same computation derives the same key, which is what lets parallel sweep
workers and repeated pytest runs share results across process
boundaries (the in-memory ``benchmarks/common.CACHE`` dict cannot).

Corrupt or unreadable entries are treated as misses, never as errors:
a cache must not be able to fail a run that would succeed without it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import time
from typing import Any, Optional

#: Bump to invalidate every existing entry when the stored payload's
#: meaning changes (e.g. a simulator semantics fix).
SCHEMA_VERSION = 1


class _Miss:
    """Singleton sentinel distinguishing a cache miss from stored None."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<ResultCache.MISS>"


#: Unambiguous miss signal: ``cache.get(key, MISS) is MISS`` is True only
#: when the key has no entry.  A bare ``get(key)`` still returns ``None``
#: on a miss for callers that never store nulls.
MISS = _Miss()

#: Atomic-write temp files older than this are reaped by
#: :meth:`ResultCache.prune_tmp` even when their embedded pid looks
#: alive — the pid may have been recycled by an unrelated process, and
#: no healthy ``put`` keeps a temp file around for an hour.
TMP_MAX_AGE_S = 3600.0


def canonical_json(value: Any) -> str:
    """Deterministic JSON text for hashing: sorted keys, compact."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for an atomic-write temp file's owner."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # EPERM: exists but not ours — treat as alive
        return True
    return True


def config_fingerprint(config: Any) -> Any:
    """A JSON-able identity for a config object.

    Dataclasses (``MultiRingConfig`` and friends) flatten to nested
    dicts; everything else must already be JSON-serializable.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    return config


class ResultCache:
    """Content-addressed JSON store: ``root/<sha256>.json`` per entry."""

    #: Matches the atomic-write temp suffix: ``<key>.json.tmp.<pid>``.
    _TMP_RE = re.compile(r"\.json\.tmp\.(\d+)$")

    def __init__(self, root: str, version: int = SCHEMA_VERSION):
        self.root = root
        self.version = version
        self.hits = 0
        self.misses = 0
        self.prune_tmp()

    def make_key(self, name: str, **parts: Any) -> str:
        """Stable key for a computation's identity.

        ``parts`` (typically ``params=..., config=..., seed=...,
        cycles=...``) must be JSON-serializable; pass configs through
        :func:`config_fingerprint` first.
        """
        payload = {"name": name, "version": self.version, "parts": parts}
        digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
        return digest.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + ".json")

    def get(self, key: str, default: Any = None) -> Optional[Any]:
        """Stored value for ``key``, or ``default`` on a miss.

        A stored JSON ``null`` is a legitimate value, indistinguishable
        from the default ``None`` return — callers that may cache None
        results must pass :data:`MISS` (``cache.get(key, MISS) is
        MISS``) or use :meth:`lookup` to tell the two apart.  A corrupt,
        truncated, or unreadable entry is a miss (and is not deleted — a
        concurrent writer may be mid-rewrite).
        """
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            value = payload["value"]
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return default
        self.hits += 1
        return value

    def lookup(self, key: str) -> "tuple[bool, Any]":
        """``(found, value)`` for ``key``; ``(False, None)`` on a miss."""
        value = self.get(key, MISS)
        if value is MISS:
            return False, None
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` (must be JSON-serializable) under ``key``.

        Written atomically (temp file + rename) so a reader never sees a
        half-written entry — sweep workers in other processes may read
        concurrently.  Serialized before any file is opened, so a value
        JSON rejects leaves no temp file behind.
        """
        text = json.dumps({"version": self.version, "value": value})
        os.makedirs(self.root, exist_ok=True)
        path = self._path(key)
        tmp = path + f".tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)

    def clear(self) -> int:
        """Delete every entry *and* temp file; returns entries removed.

        Orphaned ``*.json.tmp.<pid>`` files from crashed writers are
        removed too (they are not counted — they were never entries),
        so ``clear()`` really does leave the cache directory empty.
        """
        removed = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        for name in names:
            if name.endswith(".json") or self._TMP_RE.search(name):
                try:
                    os.remove(os.path.join(self.root, name))
                except OSError:
                    continue
                if name.endswith(".json"):
                    removed += 1
        return removed

    def prune_tmp(self, max_age_s: float = TMP_MAX_AGE_S) -> int:
        """Remove orphaned atomic-write temp files; returns the count.

        A writer that crashes (or is SIGKILLed) between creating
        ``<key>.json.tmp.<pid>`` and the ``os.replace`` leaves the temp
        file behind forever.  Called on cache open: a temp file is an
        orphan when its embedded pid is not a live process (or is this
        very process, which cannot have a write in flight while it is
        constructing the cache).  Temp files of live concurrent writers
        are left alone — unless older than ``max_age_s``, because a pid
        probe cannot tell the original writer from an unrelated process
        that recycled its pid, and no healthy ``put`` holds a temp file
        that long.
        """
        pruned = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        now = time.time()
        for name in names:
            match = self._TMP_RE.search(name)
            if not match:
                continue
            pid = int(match.group(1))
            path = os.path.join(self.root, name)
            if pid != os.getpid() and _pid_alive(pid):
                try:
                    age = now - os.stat(path).st_mtime
                except OSError:
                    continue  # vanished under us: writer finished
                if age <= max_age_s:
                    continue  # plausibly a live writer mid-put
            try:
                os.remove(path)
                pruned += 1
            except OSError:
                pass
        return pruned
