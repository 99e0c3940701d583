"""Read-committed engine: Neo4j's stock transaction manager.

Commits apply the transaction's buffered writes to the store in one batch and
update the (unversioned) indexes; there is no validation phase because read
committed permits the anomalies that validation would prevent.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Optional

from repro.engine import GraphEngine, IsolationLevel
from repro.graph.entity import EntityKind, NodeData, RelationshipData
from repro.graph.store_manager import StoreManager
from repro.index.index_manager import IndexManager
from repro.locking.lock_manager import LockManager
from repro.locking.rc_transaction import ReadCommittedTransaction
from repro.obs import Observability
from repro.query.cache import (
    DEFAULT_QUERY_BATCH_SIZE,
    DEFAULT_QUERY_CACHE_SIZE,
    QueryCaches,
)
from repro.stats import CardinalityEpoch, EngineStats

__all__ = ["EngineStats", "ReadCommittedEngine"]


class ReadCommittedEngine(GraphEngine):
    """Lock-based engine providing read-committed isolation."""

    isolation_level = IsolationLevel.READ_COMMITTED

    def __init__(
        self,
        store: StoreManager,
        *,
        lock_manager: Optional[LockManager] = None,
        index_manager: Optional[IndexManager] = None,
        lock_timeout: Optional[float] = None,
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
        self.locks = lock_manager or (
            LockManager(default_timeout=lock_timeout) if lock_timeout else LockManager()
        )
        self.stats_epoch = CardinalityEpoch()
        self.indexes = index_manager or IndexManager(stats_epoch=self.stats_epoch)
        if index_manager is None:
            self.indexes.rebuild(store)
        elif self.indexes.stats_epoch is not None:
            self.stats_epoch = self.indexes.stats_epoch
        else:
            # A caller-supplied index manager without an epoch still has to
            # drive plan-cache invalidation: adopt it into ours.
            self.indexes.stats_epoch = self.stats_epoch
        self.query_caches = QueryCaches(query_cache_size)
        self.query_batch_size = max(1, int(query_batch_size))
        # Concurrency control as a policy object, mirroring the MVCC engine:
        # under two-phase locking every conflict the level prevents is
        # prevented by the lock manager itself, so the policy is a no-op —
        # it exists so the engine abstraction and the statistics surface
        # (policy name, abort reasons) have one shape across levels.
        # (Imported lazily: cc_policy sits in repro.core, which imports the
        # lock manager from this package at module-initialisation time.)
        from repro.core.cc_policy import TwoPhaseLockingPolicy

        self.cc = TwoPhaseLockingPolicy(self.locks)
        self.obs = obs if obs is not None else Observability()
        self.stats = EngineStats(self.obs.registry)
        self._txn_ids = itertools.count(1)
        self._commit_lock = threading.Lock()
        self._io_abort_lock = threading.Lock()
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

    def commit_transaction(self, txn: ReadCommittedTransaction) -> None:
        """Apply a transaction's writes to the store and indexes."""
        trace = getattr(txn, "trace", None)
        if trace is not None:
            trace.mark("read")
        writes = txn.pending_writes()
        if writes:
            with self._commit_lock:
                if trace is not None:
                    trace.mark("stripe_wait")  # the 2PL engine's one "stripe"
                old_states = self._capture_old_states(writes)
                operations = txn.build_store_operations()
                self.store.apply_batch(txn.txn_id, operations)
                self._update_indexes(writes, old_states)
            if trace is not None:
                trace.mark("wal")
        self.locks.release_all(txn.txn_id)
        self.stats.record_commit()
        if trace is not None:
            trace.mark("publish")
            trace.finish("committed")
            self.obs.tracer.record(trace)

    def abort_transaction(self, txn: ReadCommittedTransaction) -> None:
        """Discard a transaction's writes and release its locks."""
        self.locks.release_all(txn.txn_id)
        self.stats.record_abort()
        reason = getattr(txn, "abort_reason", None) or "rollback"
        if reason in self._io_abort_counts:
            with self._io_abort_lock:
                self._io_abort_counts[reason] += 1
        self.obs.txn_abort_reasons.labels(reason=reason).inc()
        trace = getattr(txn, "trace", None)
        if trace is not None:
            txn.trace = None
            trace.finish("aborted", reason)
            self.obs.tracer.record(trace)

    # -- cardinality fast paths (query planner estimates) ---------------------

    def cardinality_epoch(self) -> int:
        """Current statistics epoch (the plan cache's invalidation key)."""
        return self.stats_epoch.epoch

    def count_nodes_with_label(self, label: str) -> int:
        """Nodes currently carrying ``label`` in O(1) (no set copy)."""
        return self.indexes.count_nodes_with_label(label)

    def count_nodes_with_property(self, key: str, value) -> int:
        """Nodes currently holding ``key`` = ``value`` in O(1)."""
        return self.indexes.count_nodes_with_property(key, value)

    def count_relationships_of_type(self, rel_type: str) -> int:
        """Relationships currently of ``rel_type`` in O(1)."""
        return self.indexes.count_relationships_of_type(rel_type)

    def count_relationships_with_property(self, key: str, value) -> int:
        """Relationships currently holding ``key`` = ``value`` in O(1)."""
        return self.indexes.relationship_properties.count(key, value)

    def cardinalities(self) -> Dict[str, Dict[str, int]]:
        """Per-label and per-type cardinalities (stats surface)."""
        return self.indexes.cardinalities()

    def abort_reasons(self) -> Dict[str, int]:
        """Abort counts by cause; 2PL adds only deadlock and IO-path victims."""
        with self._io_abort_lock:
            io_counts = dict(self._io_abort_counts)
        return {
            "ww-conflict": 0,
            "rw-antidependency": 0,
            "safe-snapshot": 0,
            "deadlock": self.locks.stats.deadlocks + self.locks.stats.timeouts,
            "io-error": io_counts["io-error"],
            "degraded-mode": io_counts["degraded-mode"],
        }

    # -- ids ------------------------------------------------------------------

    def allocate_node_id(self) -> int:
        return self.store.allocate_node_id()

    def allocate_relationship_id(self) -> int:
        return self.store.allocate_relationship_id()

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release engine resources (nothing engine-specific to do here)."""

    # -- internal -----------------------------------------------------------------

    def _capture_old_states(self, writes) -> Dict:
        old_states: Dict = {}
        for key in writes:
            if key.kind is EntityKind.NODE:
                old_states[key] = self.store.read_node(key.entity_id)
            else:
                old_states[key] = self.store.read_relationship(key.entity_id)
        return old_states

    def _update_indexes(self, writes, old_states) -> None:
        for key, new_state in writes.items():
            old_state = old_states.get(key)
            if key.kind is EntityKind.NODE:
                self.indexes.apply_node_change(old_state, new_state)
            else:
                self.indexes.apply_relationship_change(old_state, new_state)
