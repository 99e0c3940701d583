"""Record id allocation with free-list reuse.

Every record store owns an :class:`IdAllocator`.  Ids grow monotonically from
a high-water mark, and ids freed by deletes are recycled (like Neo4j's ``.id``
files).  Allocators are rebuilt on startup by scanning the store for records
that are in use, so they are not persisted separately.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Iterable, Set

from repro.errors import IdSpaceExhaustedError
from repro.graph.entity import MAX_ENTITY_ID


class IdAllocator:
    """Thread-safe allocator of dense integer ids with reuse of freed ids.

    Reuse can be disabled (``reuse=False``); the multi-version engine does
    this for node and relationship ids so that an id is never recycled while
    old versions of the deleted entity may still be read by an open snapshot.
    Ids stay below :data:`~repro.graph.entity.MAX_ENTITY_ID`: node and
    relationship ids must stay clear of the entity-key tag bit, so
    allocating an id at the bound raises
    :class:`~repro.errors.IdSpaceExhaustedError`.
    """

    def __init__(self, first_id: int = 0, *, reuse: bool = True) -> None:
        if first_id < 0:
            raise ValueError("first_id must be non-negative")
        self._lock = threading.Lock()
        self._first_id = first_id
        self._next_id = first_id
        self._reuse = reuse
        self._free: Deque[int] = deque()
        self._free_set: Set[int] = set()

    def allocate(self) -> int:
        """Return an unused id, preferring recycled ids over new ones."""
        with self._lock:
            if self._free:
                recycled = self._free.popleft()
                self._free_set.discard(recycled)
                return recycled
            allocated = self._next_id
            if allocated >= MAX_ENTITY_ID:
                raise IdSpaceExhaustedError(f"no id left below {MAX_ENTITY_ID}")
            self._next_id += 1
            return allocated

    def allocate_many(self, count: int) -> list:
        """Allocate ``count`` ids at once (used by bulk loaders)."""
        return [self.allocate() for _ in range(count)]

    def free(self, record_id: int) -> None:
        """Mark ``record_id`` as reusable.  Double frees are ignored."""
        with self._lock:
            if not self._reuse:
                return
            if record_id < self._first_id or record_id >= self._next_id:
                return
            if record_id in self._free_set:
                return
            self._free.append(record_id)
            self._free_set.add(record_id)

    def mark_used(self, record_id: int) -> None:
        """Record that ``record_id`` is in use (during startup scans)."""
        with self._lock:
            if record_id >= self._next_id:
                self._next_id = record_id + 1
            if record_id in self._free_set:
                self._free_set.discard(record_id)
                self._free = deque(i for i in self._free if i != record_id)

    def rebuild(self, used_ids: Iterable[int]) -> None:
        """Reset the allocator from the set of ids currently in use.

        Gaps below the high-water mark become the free list, preserving the
        invariant that :meth:`allocate` never hands out an id that is in use.
        """
        used = set(used_ids)
        with self._lock:
            high_water = max(used) + 1 if used else self._first_id
            self._next_id = high_water
            if not self._reuse:
                self._free = deque()
                self._free_set = set()
                return
            free_ids = [
                record_id
                for record_id in range(self._first_id, high_water)
                if record_id not in used
            ]
            self._free = deque(free_ids)
            self._free_set = set(free_ids)

    @property
    def high_water_mark(self) -> int:
        """One past the largest id ever allocated."""
        with self._lock:
            return self._next_id

    @property
    def free_count(self) -> int:
        """Number of ids currently waiting for reuse."""
        with self._lock:
            return len(self._free)

    def in_use_estimate(self) -> int:
        """Approximate number of live ids (high-water mark minus free list)."""
        with self._lock:
            return (self._next_id - self._first_id) - len(self._free)
