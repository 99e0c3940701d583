"""Object cache.

Section 4 of the paper keeps the version lists of nodes and relationships "in
the Object Cache of Neo4j".  This module provides that cache: an LRU map from
an entity key (an int, see :mod:`repro.graph.entity`) to an arbitrary cached
object (the committed entity state under read committed, the version chain
under snapshot isolation).

An ``evictable`` predicate keeps entries resident under pressure.  The MVCC
layer uses it for every entry whose chain still holds more than the single
persisted version, because those in-memory versions are the only copy (the
store only ever has the newest committed version).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.graph.entity import EntityKey


@dataclass
class ObjectCacheStats:
    """Counters for cache effectiveness, exposed through database stats."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0

    def hit_ratio(self) -> float:
        """Fraction of lookups that found a cached entry."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view of the counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "inserts": self.inserts,
            "hit_ratio": self.hit_ratio(),
        }


class ObjectCache:
    """Thread-safe LRU cache keyed by entity key."""

    def __init__(
        self,
        capacity: int = 100_000,
        *,
        evictable: Optional[Callable[[EntityKey, Any], bool]] = None,
    ) -> None:
        """Create a cache holding at most ``capacity`` evictable entries.

        ``evictable`` is an optional predicate consulted before evicting an
        entry; returning ``False`` keeps the entry resident even under
        pressure (the MVCC layer uses this for chains with unflushed
        versions).
        """
        if capacity < 1:
            raise ValueError("object cache capacity must be positive")
        self._capacity = capacity
        self._evictable = evictable
        self._lock = threading.RLock()
        self._entries: "OrderedDict[EntityKey, Any]" = OrderedDict()
        self.stats = ObjectCacheStats()

    @property
    def capacity(self) -> int:
        """Maximum number of evictable resident entries."""
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: EntityKey) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: EntityKey) -> Optional[Any]:
        """Return the cached object for ``key`` or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def peek(self, key: EntityKey) -> Optional[Any]:
        """Lock-free probe: the cached object for ``key`` or ``None``.

        Skips the LRU touch and takes no lock — a plain dict read is atomic
        under CPython, and a probe racing an insert/evict simply observes the
        cache as of one instant.  This is the hot read path of the MVCC
        layer, where a lock per chain lookup would reintroduce exactly the
        reader/writer coordination the version chains exist to remove.  The
        hit counter is updated without the lock (racily — monitoring, not
        logic); a probe miss counts nothing, because every probe-miss caller
        falls back to a locked :meth:`get` that records the miss, and
        counting both would double-report one logical lookup.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        self.stats.hits += 1
        return entry

    def put(self, key: EntityKey, value: Any) -> None:
        """Insert or replace the cached object for ``key``."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self.stats.inserts += 1
            self._evict_if_needed()

    def invalidate(self, key: EntityKey) -> None:
        """Drop the entry for ``key`` (no-op if absent)."""
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every entry (non-evictable ones included)."""
        with self._lock:
            self._entries.clear()

    def items(self) -> Iterator[Tuple[EntityKey, Any]]:
        """Snapshot of the cache contents (key, value) pairs."""
        with self._lock:
            return iter(list(self._entries.items()))

    def keys(self) -> Iterator[EntityKey]:
        """Snapshot of the cached keys."""
        with self._lock:
            return iter(list(self._entries.keys()))

    # -- internal -------------------------------------------------------------

    def _evict_if_needed(self) -> None:
        excess = len(self._entries) - self._capacity
        if excess <= 0:
            return
        # Walk the LRU order only as far as needed; non-evictable entries
        # are skipped, and nothing is deleted while iterating.
        victims = []
        for key, value in self._entries.items():
            if self._evictable is not None and not self._evictable(key, value):
                continue
            victims.append(key)
            if len(victims) == excess:
                break
        for key in victims:
            del self._entries[key]
        self.stats.evictions += len(victims)
