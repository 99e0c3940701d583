"""Lock manager: shared/exclusive locks on entities.

This reproduces the locking layer the paper describes Neo4j as having:
"a traditional locking mechanism with short read locks and long write locks".

* The read-committed engine acquires **shared** locks for reads and releases
  them immediately (short), and **exclusive** locks for writes that are held
  until commit (long).
* The snapshot-isolation engine acquires no read locks at all; it keeps the
  long exclusive write locks but acquires them with
  :meth:`LockManager.try_acquire` (no waiting) to implement the
  first-updater-wins write rule.

Deadlocks are prevented by refusing to wait when doing so would close a cycle
in the wait-for graph, and bounded by a timeout as a backstop.
"""

from __future__ import annotations

import contextlib
import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from repro.errors import DeadlockError, LockTimeoutError
from repro.graph.entity import EntityKey, format_key
from repro.locking.deadlock import WaitForGraph

#: Default maximum time to wait for a lock before giving up, in seconds.
DEFAULT_LOCK_TIMEOUT = 10.0


class LockMode(enum.Enum):
    """Lock modes supported by the lock manager."""

    SHARED = "shared"
    EXCLUSIVE = "exclusive"

    def compatible_with(self, other: "LockMode") -> bool:
        """Whether a lock in this mode can coexist with one in ``other``."""
        return self is LockMode.SHARED and other is LockMode.SHARED


@dataclass
class _LockEntry:
    """Book-keeping for one lockable resource."""

    holders: Dict[int, LockMode] = field(default_factory=dict)
    waiter_count: int = 0

    def conflicts_with(self, txn_id: int, mode: LockMode) -> Set[int]:
        """Ids of holders that prevent ``txn_id`` from acquiring ``mode``."""
        conflicting: Set[int] = set()
        for holder, held_mode in self.holders.items():
            if holder == txn_id:
                continue
            if not mode.compatible_with(held_mode):
                conflicting.add(holder)
        return conflicting


@dataclass
class LockManagerStats:
    """Counters describing lock traffic (used by experiments and tests)."""

    acquisitions: int = 0
    immediate_grants: int = 0
    waits: int = 0
    deadlocks: int = 0
    timeouts: int = 0
    try_failures: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view of the counters."""
        return {
            "acquisitions": self.acquisitions,
            "immediate_grants": self.immediate_grants,
            "waits": self.waits,
            "deadlocks": self.deadlocks,
            "timeouts": self.timeouts,
            "try_failures": self.try_failures,
        }


class LockManager:
    """Shared/exclusive lock table keyed by entity key (see :mod:`repro.graph.entity`)."""

    def __init__(self, *, default_timeout: float = DEFAULT_LOCK_TIMEOUT) -> None:
        self._default_timeout = default_timeout
        self._mutex = threading.Lock()
        self._released = threading.Condition(self._mutex)
        self._entries: Dict[EntityKey, _LockEntry] = {}
        self._held_by_txn: Dict[int, Set[EntityKey]] = {}
        self._wait_for = WaitForGraph()
        self.stats = LockManagerStats()

    # -- acquisition -----------------------------------------------------------

    def acquire(
        self,
        txn_id: int,
        resource: EntityKey,
        mode: LockMode,
        *,
        timeout: Optional[float] = None,
    ) -> None:
        """Acquire (or upgrade) a lock, waiting if necessary.

        Raises :class:`~repro.errors.DeadlockError` if waiting would create a
        wait-for cycle and :class:`~repro.errors.LockTimeoutError` if the lock
        cannot be obtained within ``timeout`` seconds.
        """
        deadline = time.monotonic() + (timeout if timeout is not None else self._default_timeout)
        with self._mutex:
            self.stats.acquisitions += 1
            entry = self._entries.setdefault(resource, _LockEntry())
            first_attempt = True
            while True:
                conflicting = entry.conflicts_with(txn_id, mode)
                if not conflicting:
                    self._grant(entry, txn_id, resource, mode)
                    if first_attempt:
                        self.stats.immediate_grants += 1
                    self._wait_for.remove_waiter(txn_id)
                    return
                if self._wait_for.creates_cycle(txn_id, conflicting):
                    self.stats.deadlocks += 1
                    self._wait_for.remove_waiter(txn_id)
                    raise DeadlockError(
                        f"transaction {txn_id} would deadlock waiting for "
                        f"{sorted(conflicting)} on {format_key(resource)}"
                    )
                self._wait_for.add_waits(txn_id, conflicting)
                if first_attempt:
                    self.stats.waits += 1
                    first_attempt = False
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.stats.timeouts += 1
                    self._wait_for.remove_waiter(txn_id)
                    raise LockTimeoutError(
                        f"transaction {txn_id} timed out waiting for {format_key(resource)}"
                    )
                entry.waiter_count += 1
                try:
                    self._released.wait(timeout=min(remaining, 0.1))
                finally:
                    entry.waiter_count -= 1

    @contextlib.contextmanager
    def shared_guard(
        self,
        txn_id: int,
        resource: EntityKey,
        *,
        timeout: Optional[float] = None,
    ) -> Iterator[None]:
        """A short shared lock scoped to exactly one read (RC's read path).

        Unlike :meth:`acquire`, the lock is never registered in the
        per-transaction holder set (it cannot outlive the ``with`` body, so
        commit-time :meth:`release_all` never needs to see it) and the
        condition variable is only notified when another transaction is
        actually waiting.  If the transaction already holds the resource —
        e.g. a long exclusive endpoint lock taken by a relationship create —
        the guard piggybacks on that lock and releases nothing on exit.

        Waiting (a writer holds the entity exclusively) still goes through
        the wait-for graph, because a reader that blocks while its
        transaction retains exclusive locks can close a deadlock cycle.
        """
        deadline = time.monotonic() + (
            timeout if timeout is not None else self._default_timeout
        )
        newly_acquired = False
        with self._mutex:
            self.stats.acquisitions += 1
            entry = self._entries.setdefault(resource, _LockEntry())
            if txn_id in entry.holders:
                self.stats.immediate_grants += 1
            else:
                first_attempt = True
                while True:
                    conflicting = entry.conflicts_with(txn_id, LockMode.SHARED)
                    if not conflicting:
                        entry.holders[txn_id] = LockMode.SHARED
                        if first_attempt:
                            self.stats.immediate_grants += 1
                        self._wait_for.remove_waiter(txn_id)
                        newly_acquired = True
                        break
                    if self._wait_for.creates_cycle(txn_id, conflicting):
                        self.stats.deadlocks += 1
                        self._wait_for.remove_waiter(txn_id)
                        self._cleanup_entry(resource, entry)
                        raise DeadlockError(
                            f"transaction {txn_id} would deadlock waiting for "
                            f"{sorted(conflicting)} on {format_key(resource)}"
                        )
                    self._wait_for.add_waits(txn_id, conflicting)
                    if first_attempt:
                        self.stats.waits += 1
                        first_attempt = False
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self.stats.timeouts += 1
                        self._wait_for.remove_waiter(txn_id)
                        self._cleanup_entry(resource, entry)
                        raise LockTimeoutError(
                            f"transaction {txn_id} timed out waiting for {format_key(resource)}"
                        )
                    entry.waiter_count += 1
                    try:
                        self._released.wait(timeout=min(remaining, 0.1))
                    finally:
                        entry.waiter_count -= 1
        try:
            yield
        finally:
            if newly_acquired:
                with self._mutex:
                    current = self._entries.get(resource)
                    if current is not None:
                        current.holders.pop(txn_id, None)
                        had_waiters = current.waiter_count > 0
                        self._cleanup_entry(resource, current)
                        if had_waiters:
                            self._released.notify_all()

    def try_acquire(self, txn_id: int, resource: EntityKey, mode: LockMode) -> bool:
        """Acquire a lock without waiting; returns ``False`` on conflict.

        This is the primitive behind the first-updater-wins write rule: a
        transaction that finds the entity already write-locked by a concurrent
        transaction is *not* the first updater and must abort instead of
        queueing behind it.
        """
        with self._mutex:
            self.stats.acquisitions += 1
            entry = self._entries.setdefault(resource, _LockEntry())
            if entry.conflicts_with(txn_id, mode):
                self.stats.try_failures += 1
                return False
            self._grant(entry, txn_id, resource, mode)
            self.stats.immediate_grants += 1
            return True

    # -- release ----------------------------------------------------------------

    def release_all(self, txn_id: int) -> None:
        """Release every lock held by ``txn_id`` (commit/abort path)."""
        with self._mutex:
            held = self._held_by_txn.pop(txn_id, set())
            for resource in held:
                entry = self._entries.get(resource)
                if entry is None:
                    continue
                entry.holders.pop(txn_id, None)
                self._cleanup_entry(resource, entry)
            self._wait_for.remove_transaction(txn_id)
            if held:
                self._released.notify_all()

    # -- introspection ------------------------------------------------------------

    def holders_of(self, resource: EntityKey) -> Dict[int, LockMode]:
        """Current holders of a resource (a copy)."""
        with self._mutex:
            entry = self._entries.get(resource)
            return dict(entry.holders) if entry is not None else {}

    def locks_held_by(self, txn_id: int) -> List[EntityKey]:
        """Resources currently locked by ``txn_id``."""
        with self._mutex:
            return sorted(self._held_by_txn.get(txn_id, set()))

    def is_locked(self, resource: EntityKey) -> bool:
        """Whether any transaction holds a lock on ``resource``."""
        with self._mutex:
            entry = self._entries.get(resource)
            return bool(entry and entry.holders)

    def active_lock_count(self) -> int:
        """Number of resources with at least one holder."""
        with self._mutex:
            return sum(1 for entry in self._entries.values() if entry.holders)

    # -- internal -------------------------------------------------------------------

    def _grant(
        self, entry: _LockEntry, txn_id: int, resource: EntityKey, mode: LockMode
    ) -> None:
        current = entry.holders.get(txn_id)
        if current is LockMode.EXCLUSIVE:
            return
        entry.holders[txn_id] = mode if current is None else (
            LockMode.EXCLUSIVE if LockMode.EXCLUSIVE in (current, mode) else LockMode.SHARED
        )
        self._held_by_txn.setdefault(txn_id, set()).add(resource)

    def _cleanup_entry(self, resource: EntityKey, entry: _LockEntry) -> None:
        if not entry.holders and entry.waiter_count == 0:
            self._entries.pop(resource, None)
