"""ContentStore — a generic content-addressed cache with hit/miss accounting.

Every incremental layer of the pipeline (memoized concretization, CI job
reuse, epoch-level result replay) shares this one primitive: a map from
:func:`repro.perf.fingerprint` digests to previously computed results, with
statistics good enough to gate CI on ("warm hit rate must stay ≥ 90%").

The store is thread-safe (the parallel installer and batch executor probe it
concurrently) and in-memory only.  It is snapshot/restorable so campaign
checkpoints can carry both the cached entries *and* the cumulative counters
across a kill/resume — a resumed campaign reports lifetime hit rates, not
per-resume ones.  The checkpoint is the only way a store reaches disk.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

__all__ = ["ContentStore"]

_STAT_KEYS = ("hits", "misses", "puts")


class ContentStore:
    """In-memory content-addressed cache."""

    def __init__(self, name: str = "store"):
        self.name = name
        self._entries: Dict[str, Any] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        #: counters carried over from a prior life (checkpoint resume)
        self._baseline = {k: 0 for k in _STAT_KEYS}

    # -- core map interface -------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        """Look up ``key``, counting the access as a hit or miss."""
        with self._lock:
            if key in self._entries:
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return default

    def peek(self, key: str, default: Any = None) -> Any:
        """Look up without touching the statistics."""
        with self._lock:
            return self._entries.get(key, default)

    def put(self, key: str, value: Any) -> Any:
        with self._lock:
            self._entries[key] = value
            self.puts += 1
            return value

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries and reset all counters (including baseline)."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.puts = 0
            self._baseline = {k: 0 for k in _STAT_KEYS}

    # -- statistics -----------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Cumulative statistics (baseline from any restored snapshot plus
        this life's counters)."""
        with self._lock:
            hits = self.hits + self._baseline["hits"]
            misses = self.misses + self._baseline["misses"]
            lookups = hits + misses
            return {
                "name": self.name,
                "entries": len(self._entries),
                "hits": hits,
                "misses": misses,
                "puts": self.puts + self._baseline["puts"],
                "lookups": lookups,
                "hit_rate": (hits / lookups) if lookups else 0.0,
            }

    # -- checkpoint integration ---------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable dump of entries + cumulative counters."""
        with self._lock:
            stats = self.stats()
            return {
                "name": self.name,
                "entries": dict(self._entries),
                "stats": {k: stats[k] for k in _STAT_KEYS},
            }

    def restore(self, snapshot: Dict[str, Any]) -> "ContentStore":
        """Load a prior :meth:`snapshot`: entries are merged in and the
        snapshot's counters become the baseline, so :meth:`stats` reports
        lifetime totals across restarts."""
        with self._lock:
            self._entries.update(snapshot.get("entries", {}))
            prior = snapshot.get("stats", {})
            for k in _STAT_KEYS:
                self._baseline[k] += int(prior.get(k, 0))
        return self

    def __repr__(self):
        s = self.stats()
        return (f"ContentStore({self.name!r}, {s['entries']} entries, "
                f"{s['hits']}h/{s['misses']}m)")
