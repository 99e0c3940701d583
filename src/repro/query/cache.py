"""Query-level caches: parsed ASTs and prepared statements.

Two LRU maps under one lock, per database (each engine owns a
:class:`QueryCaches` bundle), both sized by ``query_cache_size``:

* ``parse`` — query text → immutable AST.
* ``plan`` — ``(query text, cardinality epoch, provided parameter names)`` →
  prepared statement: the :class:`~repro.query.planner.Plan` with the
  pipeline :func:`repro.query.executor.prepare` compiled from it.  Plans
  are costed against the engine's cardinality counters, so when the
  statistics drift enough for the :class:`~repro.stats.CardinalityEpoch`
  to bump, every cached statement misses and is prepared again.  Parameter
  *names* are part of the key (a plan seeks on ``$p`` only if ``p`` was
  provided at plan time); parameter *values* are not — like Cypher's plan
  cache, one plan per query shape is reused across values.

A cached statement is shared by every execution that hits it, concurrently,
and nothing writes to it once it is prepared: what belongs to one execution
lives in that execution's context, and ``PROFILE`` (whose per-operator
counts are execution state) prepares a plan of its own.  A statement hit
also serves the parse, so it counts as a hit of both caches: each hit share
in ``statistics()["query_cache"]`` means what it meant when every execution
probed both.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional

from repro.query.parser import parse

#: Default capacity of both query caches.
DEFAULT_QUERY_CACHE_SIZE = 512

#: Default rows per :class:`~repro.query.executor.RowBatch` in the query
#: executor (and the granularity of batched SIREAD registration); both
#: engines take it as ``query_batch_size``.
DEFAULT_QUERY_BATCH_SIZE = 1024


class _LruCache:
    """A small LRU map with hit/miss/eviction counters (the caller locks)."""

    def __init__(self, maxsize: int, lock: threading.Lock) -> None:
        if maxsize < 0:
            raise ValueError("cache size must be >= 0 (0 disables the cache)")
        self._maxsize = maxsize
        self._lock = lock
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _get(self, key: Hashable) -> Optional[Any]:
        """The cached value for ``key`` or ``None`` (uncounted; lock held)."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key`` (no-op when the cache is disabled)."""
        if self._maxsize == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> Dict[str, int]:
        """Counters plus current size."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self._maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class QueryCaches:
    """The per-database bundle: one parse cache, one statement cache."""

    def __init__(self, size: int = DEFAULT_QUERY_CACHE_SIZE) -> None:
        self._lock = threading.Lock()
        self.parse = _LruCache(size, self._lock)
        self.plan = _LruCache(size, self._lock)

    def statement(self, key: Hashable, *, executing: bool = True):
        """The statement cached under ``key`` or ``None``.  A hit counts as a
        parse hit and, for an execution, a plan hit; misses are counted by
        :meth:`plan_missed`, once a parse shows the text is cacheable."""
        with self._lock:
            statement = self.plan._get(key)
            if statement is not None:
                self.parse.hits += 1
                if executing:
                    self.plan.hits += 1
            return statement

    def plan_missed(self) -> None:
        """Count a statement-cache miss of a cacheable statement."""
        with self._lock:
            self.plan.misses += 1

    def parse_query(self, text: str):
        """Parse ``text`` through the parse cache (a hit or a miss is counted
        before parsing, so a syntax error counts as a miss)."""
        with self._lock:
            query = self.parse._get(text)
            if query is None:
                self.parse.misses += 1
            else:
                self.parse.hits += 1
        if query is None:
            query = parse(text)
            self.parse.put(text, query)
        return query

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Both caches' counters (the ``statistics()["query_cache"]`` body)."""
        return {"parse": self.parse.stats(), "plan": self.plan.stats()}
