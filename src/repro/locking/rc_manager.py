"""Read-committed engine: Neo4j's stock transaction manager.

It runs over the MVCC engine's substrate — the record store, the lock
manager and the multi-versioned indexes — and differs only in its control
layer: reads take short shared guards, writes take long exclusive locks, and
a commit applies the write set in place with no validation phase, because
read committed permits the anomalies validation would prevent.

Index lookups read at :attr:`ReadCommittedEngine.latest_seq`, the newest
published commit.  A commit tags its index changes at ``latest_seq + 1``,
publishes that sequence, then reclaims every closed interval at once: with no
snapshots to serve, nothing older than the newest commit is ever read.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Optional

from repro.core.versioned_index import VersionedIndexSet
from repro.engine import GraphEngine, IsolationLevel
from repro.graph.entity import EntityKey
from repro.graph.operations import build_store_operations
from repro.graph.store_manager import StoreManager
from repro.locking.lock_manager import LockManager
from repro.locking.rc_transaction import ReadCommittedTransaction
from repro.obs import Observability
from repro.query.cache import (
    DEFAULT_QUERY_BATCH_SIZE,
    DEFAULT_QUERY_CACHE_SIZE,
    QueryCaches,
)
from repro.stats import CardinalityEpoch, EngineStats

__all__ = ["ReadCommittedEngine"]


class ReadCommittedEngine(GraphEngine):
    """Lock-based engine providing read-committed isolation."""

    isolation_level = IsolationLevel.READ_COMMITTED

    def __init__(
        self,
        store: StoreManager,
        *,
        lock_manager: Optional[LockManager] = None,
        query_cache_size: int = DEFAULT_QUERY_CACHE_SIZE,
        query_batch_size: int = DEFAULT_QUERY_BATCH_SIZE,
        obs: Optional[Observability] = None,
    ) -> None:
        """``query_cache_size`` sizes the parse and plan caches (0 disables
        them) and ``query_batch_size`` sets the rows-per-batch of the query
        executor, as for the MVCC engine.  Point reads take the lock
        manager's short shared guard.
        """
        self.store = store
        self.locks = lock_manager or LockManager()
        self.stats_epoch = CardinalityEpoch()
        self.indexes = VersionedIndexSet(stats_epoch=self.stats_epoch)
        #: Newest published commit sequence, which index lookups read at.
        #: It starts at the largest persisted commit timestamp so entries
        #: bootstrapped from a store the MVCC engine wrote are visible.
        self.latest_seq = self.indexes.bootstrap(store)
        self.query_caches = QueryCaches(query_cache_size)
        self.query_batch_size = max(1, int(query_batch_size))
        self.obs = obs if obs is not None else Observability()
        self.stats = EngineStats(self.obs.registry)
        self._txn_ids = itertools.count(1)
        self._commit_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._io_abort_counts = {"io-error": 0, "degraded-mode": 0}

    # -- transaction lifecycle ---------------------------------------------

    def begin(
        self, *, read_only: bool = False, deferrable: Optional[bool] = None
    ) -> ReadCommittedTransaction:
        """Start a new read-committed transaction.

        ``deferrable`` (a safe-snapshot concept) has no meaning under read
        committed and is accepted for interface uniformity.  A degraded
        engine fences write transactions here (read-only ones proceed).
        """
        if not read_only:
            self.store.health.ensure_writable()
        self.stats.record_begin()
        txn = ReadCommittedTransaction(self, next(self._txn_ids), read_only=read_only)
        trace = self.obs.tracer.maybe_start(txn.txn_id, read_only=read_only)
        if trace is not None:
            trace.mark("begin")
            txn.trace = trace
        return txn

    def commit_transaction(self, txn: ReadCommittedTransaction) -> bool:
        """Log a transaction's writes to the store, then publish them to the
        indexes; returns whether the store's backlog is due a catch-up."""
        trace = txn.trace
        if trace is not None:
            trace.mark("read")
        writes = txn.effective_writes()
        catch_up_due = False
        if writes:
            with self._commit_lock:
                if trace is not None:
                    trace.mark("stripe_wait")  # the 2PL engine's one "stripe"
                old_states = {key: self.read_committed(key) for key in writes}
                created = {key for key, old_state in old_states.items() if old_state is None}
                catch_up_due = self.store.apply_batch(
                    txn.txn_id, build_store_operations(writes, created=created)
                )
                self._publish(writes, old_states)
            if trace is not None:
                trace.mark("wal")
        self.locks.release_all(txn.txn_id)
        self.stats.record_commit()
        if trace is not None:
            trace.mark("publish")
            trace.finish("committed")
            self.obs.tracer.record(trace)
        return catch_up_due

    def _publish(
        self,
        writes: Dict[EntityKey, Optional[object]],
        old_states: Dict[EntityKey, Optional[object]],
    ) -> None:
        """Tag the indexes at the next sequence, publish it, and reclaim
        everything the commit closed (commit lock held)."""
        indexes = self.indexes
        seq = self.latest_seq + 1
        for key, state in writes.items():
            indexes.apply_change(key, old_states[key], state, seq)
        self.latest_seq = seq
        indexes.purge(seq)

    def abort_transaction(self, txn: ReadCommittedTransaction) -> None:
        """Discard a transaction's writes and release its locks."""
        self.locks.release_all(txn.txn_id)
        self._record_abort(txn)

    def read_committed(self, key: EntityKey) -> Optional[object]:
        """The stored state of ``key`` (reserved properties stripped)."""
        persisted = self.store.read_persisted(key)
        return None if persisted is None else persisted[0]

    # -- statistics / lifecycle ------------------------------------------------

    def statistics(self) -> Dict[str, object]:
        """The engine section of the database statistics."""
        return {
            "transactions": dict(
                self.stats.as_dict(), abort_reasons=self.abort_reasons()
            ),
            "concurrency_control": {"policy": "2pl"},
            "cardinalities": self.cardinalities(),
        }

    def close(self) -> None:
        """Release engine resources (nothing engine-specific to do here)."""
