"""Database lifecycle: admission gate and graceful drain for transactions.

:class:`TransactionGate` sits between :class:`~repro.api.database.GraphDatabase`
and its engine.  Every user-facing transaction registers at ``begin`` and
deregisters when it leaves the ACTIVE state; ``close()`` (and the network
server's graceful shutdown, which reuses the same gate) then drains in three
steps:

1. **Fence new work** — further ``begin()`` calls raise
   :class:`~repro.errors.DatabaseClosedError` instead of racing the teardown.
2. **Wait** — in-flight transactions get up to ``drain_timeout`` seconds to
   commit or roll back; a commit that wins the race is fully durable (the
   store files are still open).
3. **Fence stragglers** — transactions still open after the timeout are
   rolled back, so their owners see a clean
   :class:`~repro.errors.TransactionClosedError` on the next operation
   rather than an OS error against closed file descriptors.

The gate is deliberately engine-agnostic: it tracks the API-level
:class:`~repro.api.transaction.Transaction` wrappers, and the wait loop
re-checks ``is_open`` so transactions finished behind the gate's back (for
example through the raw engine transaction) cannot wedge the drain.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

from repro.api.transaction import Transaction
from repro.errors import DatabaseClosedError

__all__ = ["TransactionGate"]

#: How often the drain loop re-polls stragglers that have not signalled.
_DRAIN_POLL_SECONDS = 0.05


class TransactionGate:
    """Admission control plus graceful drain for a database's transactions."""

    def __init__(self) -> None:
        # Admission takes the bare lock (a C-level ``with``); only the drain
        # waits on the condition, so only a closed gate notifies it.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._active: Dict[int, Transaction] = {}
        self._closed = False
        self._drained_total = 0
        self._fenced_total = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def register(self, transaction: Transaction) -> None:
        """Admit a freshly-begun transaction (raises once the gate closed)."""
        with self._lock:
            if self._closed:
                raise DatabaseClosedError(
                    "the database is closed (or draining for shutdown); "
                    "no new transactions are admitted"
                )
            self._active[id(transaction)] = transaction

    def deregister(self, transaction: Transaction) -> None:
        """Drop a finished transaction and wake the drain, if one waits."""
        with self._lock:
            if self._active.pop(id(transaction), None) is not None and self._closed:
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    @property
    def is_closed(self) -> bool:
        """Whether the gate stopped admitting new transactions."""
        return self._closed

    def active_count(self) -> int:
        """Number of transactions currently registered (approximate)."""
        return len(self._active)

    def ensure_open(self) -> None:
        """Raise :class:`DatabaseClosedError` once the gate has closed."""
        if self._closed:
            raise DatabaseClosedError(
                "the database is closed (or draining for shutdown)"
            )

    def stats(self) -> Dict[str, int]:
        """Counters for the statistics surface."""
        with self._cond:
            return {
                "active": len(self._active),
                "drained": self._drained_total,
                "fenced": self._fenced_total,
            }

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------

    def close_and_drain(self, drain_timeout: float = 5.0) -> List[Transaction]:
        """Stop admitting transactions, wait for in-flight ones, fence the rest.

        Returns the transactions that were still open when the timeout
        expired — already rolled back, so the only thing their owner threads
        can observe is a clean :class:`~repro.errors.TransactionClosedError`.
        Idempotent: later calls drain whatever is left (normally nothing).
        """
        deadline = time.monotonic() + max(0.0, drain_timeout)
        with self._cond:
            self._closed = True
            in_flight = len(self._active)
            while self._active:
                # Prune transactions that finished without signalling (raw
                # engine-transaction use); their wrappers stay registered
                # but hold no resources the teardown cares about.
                for key in [
                    key
                    for key, transaction in self._active.items()
                    if not transaction.is_open
                ]:
                    del self._active[key]
                if not self._active:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=min(remaining, _DRAIN_POLL_SECONDS))
            stragglers = list(self._active.values())
            self._active.clear()
        fenced = [t for t in stragglers if t.is_open]
        with self._cond:
            self._drained_total += in_flight - len(fenced)
        for transaction in fenced:
            # Best-effort fence: rollback is idempotent and flips the engine
            # transaction out of ACTIVE, so the owner's next operation (or
            # its commit) raises TransactionClosedError instead of touching
            # closed files.  A racing commit that already entered the engine
            # wins or loses atomically inside the engine's own locking.
            transaction.rollback()
        with self._cond:
            self._fenced_total += len(fenced)
        return fenced

    def drain(self, drain_timeout: float = 5.0) -> List[Transaction]:
        """Alias of :meth:`close_and_drain` (reads naturally at call sites)."""
        return self.close_and_drain(drain_timeout)
