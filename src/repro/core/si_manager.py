"""The snapshot-isolation engine.

This is where the pieces of Section 4 of the paper meet:

* transactions get their snapshot from the :class:`~repro.core.timestamps.TimestampOracle`,
* reads resolve through version chains kept in the object cache
  (:class:`~repro.core.version_store.VersionStore`),
* the write rule is enforced by the
  :class:`~repro.core.cc_policy.SnapshotWriteRulePolicy` reusing the long
  write locks (first-updater-wins),
* commit installs new versions, tags the multi-versioned indexes with the
  commit timestamp, threads superseded versions onto the garbage-collection
  list, and logs the batch; the persistent store catches up later and writes
  **only the newest committed version** of each entity, and
* garbage collection reclaims exactly the versions no active snapshot can
  still read.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.cc_policy import (
    RETAKE_SNAPSHOT,
    Change,
    SerializableSnapshotPolicy,
    SnapshotWriteRulePolicy,
)
from repro.core.conflict import ConflictPolicy
from repro.core.gc import GarbageCollector, GcStats, ThreadedVersionList
from repro.core.si_transaction import SnapshotTransaction
from repro.core.snapshot import Snapshot
from repro.core.timestamps import TimestampOracle
from repro.core.version import Version
from repro.core.version_store import VersionStore, stripe_of
from repro.core.visibility import resolve_payloads
from repro.core.versioned_index import VersionedIndexSet
from repro.engine import GraphEngine, IsolationLevel
from repro.errors import WriteWriteConflictError
from repro.graph.entity import REL_TAG, EntityKey, EntityKind, RelationshipData, key_id
from repro.graph.operations import build_store_operations
from repro.graph.store_manager import StoreManager
from repro.locking.lock_manager import LockManager
from repro.obs import Observability
from repro.query.cache import (
    DEFAULT_QUERY_BATCH_SIZE,
    DEFAULT_QUERY_CACHE_SIZE,
    QueryCaches,
)
from repro.stats import CardinalityEpoch, CommitPipelineStats, EngineStats

#: Default number of commit stripes (1 restores the seed's global mutex).
DEFAULT_COMMIT_STRIPES = 16

#: Maximum entries in the engine-level resolved-payload cache (entries for
#: additional keys are simply not stored; existing keys keep refreshing).
PAYLOAD_CACHE_LIMIT = 65_536

#: Under SSI, reclaim the policy's tracking state (finished transactions'
#: read sets and the commit log) every N version-installing commits,
#: independently of the version GC cadence.  Without this a long-running
#: serializable database that never runs GC would grow its commit log
#: without bound and pay an ever-longer log scan per read batch.
SSI_RECLAIM_EVERY_N_COMMITS = 64


def _no_persisted_state() -> None:
    """The store loader of a key its transaction created (see
    :meth:`SnapshotIsolationEngine._install_versions`)."""
    return None


class SnapshotIsolationEngine(GraphEngine):
    """Multi-version engine providing snapshot isolation (the paper's system).

    The same engine also provides **serializable** isolation: opening it
    with ``isolation=IsolationLevel.SERIALIZABLE`` swaps the plain
    write-rule policy (:class:`~repro.core.cc_policy.SnapshotWriteRulePolicy`)
    for its SSI subclass, which additionally tracks rw-antidependencies from
    the read path and aborts transactions that would complete a dangerous
    structure.
    """

    isolation_level = IsolationLevel.SNAPSHOT

    def __init__(
        self,
        store: StoreManager,
        *,
        lock_manager: Optional[LockManager] = None,
        conflict_policy: ConflictPolicy = ConflictPolicy.FIRST_UPDATER_WINS,
        isolation: IsolationLevel = IsolationLevel.SNAPSHOT,
        version_cache_capacity: int = 200_000,
        gc_every_n_commits: int = 0,
        commit_stripes: int = DEFAULT_COMMIT_STRIPES,
        query_cache_size: int = DEFAULT_QUERY_CACHE_SIZE,
        query_batch_size: int = DEFAULT_QUERY_BATCH_SIZE,
        obs: Optional[Observability] = None,
    ) -> None:
        """Create an engine over an open store.

        ``isolation`` selects the concurrency-control policy: ``SNAPSHOT``
        enforces only the write rule, ``SERIALIZABLE`` adds SSI
        rw-antidependency tracking.

        ``gc_every_n_commits`` > 0 runs a garbage-collection pass automatically
        after every N version-installing commits; 0 leaves collection entirely
        to explicit :meth:`run_gc` calls (what the benchmarks do, so they can
        measure it).

        ``commit_stripes`` shards the commit critical section: each committing
        transaction locks only the stripes covering its write set (plus the
        structural neighbourhood it validates), so commits on disjoint key
        sets proceed concurrently.  ``commit_stripes=1`` restores the seed's
        fully-serialised single-mutex behaviour.

        ``query_cache_size`` sizes the per-database parse and plan caches
        (0 disables them).

        ``query_batch_size`` sets the rows-per-batch of the query
        executor.

        Under ``SERIALIZABLE``, read-only transactions are always gated
        PostgreSQL-style so the Fekete read-only-transaction anomaly cannot
        occur.  A read-only serializable begin that should block until a
        safe snapshot asks for it per transaction with
        ``begin(deferrable=True)``.

        ``obs`` is the observability bundle (metrics registry + transaction
        tracer + slow-query log) this engine reports into; a bare engine
        gets its own private bundle with tracing disabled.
        """
        if commit_stripes < 1:
            raise ValueError("the engine needs at least one commit stripe")
        if isolation is IsolationLevel.READ_COMMITTED:
            raise ValueError("the MVCC engine does not provide read committed")
        self.store = store
        self.locks = lock_manager or LockManager()
        self.oracle = TimestampOracle()
        self.versions = VersionStore(
            cache_capacity=version_cache_capacity, stripes=commit_stripes
        )
        self.stats_epoch = CardinalityEpoch()
        self.indexes = VersionedIndexSet(
            stripes=commit_stripes, stats_epoch=self.stats_epoch
        )
        self.query_caches = QueryCaches(query_cache_size)
        #: Engine-level cache of resolved committed payloads, shared across
        #: transactions — the one layer between a transaction and the
        #: version chains: ``key -> (built_ts, payload)``, the state of
        #: ``key`` resolved at snapshot ``built_ts``.  An entry is valid for
        #: a snapshot ``S`` iff ``built_ts <= S`` and the key's stamp
        #: ``<= built_ts``.  ``_payload_stamp`` is bumped by every version
        #: install for the key, inside the commit critical section *before*
        #: the commit is published — so a snapshot that can see a change can
        #: never validate an entry predating it, and in-flight commits fail
        #: validation conservatively.  A valid entry is a pure function of
        #: ``(key, snapshot)``; SIREAD registration happens in the
        #: transaction layer before the engine is asked.  Admission:
        #: :meth:`_publish_entry`.  Adjacency needs no cache: the versioned
        #: adjacency index answers it at any snapshot.
        self._payload_cache: Dict[EntityKey, Tuple[int, Optional[object]]] = {}
        self._payload_stamp: Dict[EntityKey, int] = {}
        #: Rows per executor batch (read by :mod:`repro.query` when it
        #: prepares a statement).
        self.query_batch_size = max(1, int(query_batch_size))
        if isolation is IsolationLevel.SERIALIZABLE:
            self.cc: SnapshotWriteRulePolicy = SerializableSnapshotPolicy(
                self.locks, conflict_policy
            )
        else:
            self.cc = SnapshotWriteRulePolicy(self.locks, conflict_policy)
        self.isolation_level = isolation
        self.gc = GarbageCollector(
            self.versions,
            self.oracle,
            self.indexes,
            ThreadedVersionList(),
            policy=self.cc,
        )
        self.obs = obs if obs is not None else Observability()
        self.stats = EngineStats(self.obs.registry)
        self.commit_pipeline_stats = CommitPipelineStats()
        self._gc_every_n_commits = gc_every_n_commits
        self._versioned_commits = 0
        self._writeless_commits = 0
        self._failpoints = store.failpoints
        # IO-path abort causes surfaced by `abort_reasons()`; the policy
        # cannot count these (they originate below it, in the store layer).
        self._io_abort_counts = {"io-error": 0, "degraded-mode": 0}
        # Guards the outcome counters and the GC trigger: the commit path is
        # concurrent now, and unsynchronised `+=` loses increments.
        self._counter_lock = threading.Lock()
        self._commit_stripes = [threading.Lock() for _ in range(commit_stripes)]
        # Pre-existing entities are indexed at their persisted commit
        # timestamps; new snapshots must cover everything already on disk.
        persisted_ts = self.indexes.bootstrap(store)
        if persisted_ts:
            self.oracle.advance_to(persisted_ts)

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------

    def begin(
        self, *, read_only: bool = False, deferrable: Optional[bool] = None
    ) -> SnapshotTransaction:
        """Start a transaction with a fresh snapshot of the committed state.

        Read-only transactions under a read-tracking (serializable) policy
        take the safe-snapshot path: the oracle grants the snapshot together
        with a census of in-flight read-write transactions, and the policy
        decides whether the snapshot is safe from birth (the common case,
        free), must be tracked while the census drains (non-deferrable), or
        — with ``deferrable=True`` — should block here and retake the
        snapshot until a safe one is available, after which the transaction
        runs completely untracked and can never interact with the
        serializability machinery at all.  ``deferrable=None`` (the
        default) means ``False``.

        A degraded engine fences write transactions here with
        :class:`~repro.errors.DatabaseReadOnlyError`; read-only transactions
        keep working from the in-memory version chains and the object cache.
        """
        if not read_only:
            self.store.health.ensure_writable()
        self.stats.record_begin()
        # Tracing starts before the oracle grant so the `begin` phase covers
        # the grant itself, the census and any safe-snapshot retake loop.
        trace = self.obs.tracer.maybe_start(0, read_only=read_only)
        if not (read_only and self.cc.tracks_reads):
            txn_id, start_ts = self.oracle.begin_transaction()
            record = self.cc.begin_transaction(txn_id, start_ts, read_only=read_only)
            txn = SnapshotTransaction(
                self,
                Snapshot(txn_id=txn_id, start_ts=start_ts),
                read_only=read_only,
                cc_record=record,
            )
            return self._attach_trace(txn, trace)
        retakes = 0
        while True:
            txn_id, start_ts, census = self.oracle.begin_read_only_transaction()
            handle = self.cc.begin_read_only(
                txn_id, start_ts, census, deferrable=bool(deferrable)
            )
            if handle is RETAKE_SNAPSHOT:
                # A census member committed dangerously but new snapshots
                # cannot see its commit yet; it becomes visible once it and
                # every older commit have published, and a fresh snapshot
                # then covers it.
                self.oracle.retire_transaction(txn_id)
                retakes += 1
                continue
            if handle is not None and deferrable:
                safe = self.cc.wait_for_safe_snapshot(handle)
                if not safe:
                    self.oracle.retire_transaction(txn_id)
                    retakes += 1
                    continue
                handle = None  # proven safe: run fully untracked
            txn = SnapshotTransaction(
                self,
                Snapshot(txn_id=txn_id, start_ts=start_ts),
                read_only=True,
                cc_record=None,
                safe_snapshot=handle,
            )
            if trace is not None and retakes:
                trace.annotate("snapshot_retakes", retakes)
            return self._attach_trace(txn, trace)

    @staticmethod
    def _attach_trace(txn: SnapshotTransaction, trace) -> SnapshotTransaction:
        """Bind a sampled trace to its transaction and close the begin phase."""
        if trace is not None:
            trace.txn_id = txn.txn_id
            trace.mark("begin")
            txn.trace = trace
        return txn

    def commit_transaction(self, txn: SnapshotTransaction) -> bool:
        """Commit: validate the write rule, install versions, log, publish.

        Returns whether the store's backlog is due a catch-up, which the
        caller runs once this has released everything.

        The critical section is sharded: the transaction acquires, in sorted
        order (deadlock-free), only the commit stripes covering its write set
        plus the structural neighbourhood its validation reads — the endpoint
        nodes of created relationships and the adjacent relationships of
        deleted nodes.  Commits on disjoint stripe sets run concurrently; the
        oracle's pending-commit protocol keeps new snapshots behind any
        committer that is still installing.
        """
        trace = txn.trace
        if trace is not None:
            # Everything since the begin mark was the transaction's own work.
            trace.mark("read")
        if not txn.has_writes():
            self.oracle.retire_transaction(txn.txn_id)
            if txn.safe_snapshot is not None:
                self.cc.finish_read_only(txn.safe_snapshot)
            # A committed-but-writeless transaction still finished reading at
            # this point in commit order; the policy needs that boundary to
            # judge concurrency against later committers.
            self.cc.finish_transaction(
                txn.txn_id,
                txn.cc_record,
                committed=True,
                visible_ts=self.oracle.latest_commit_ts,
                finish_seq=self.oracle.newest_txn_id(),
            )
            self.cc.release_locks(txn.txn_id)
            self.stats.record_commit()
            with self._counter_lock:
                self._writeless_commits += 1
                # Writeless commits leave tracking records too (their SIREADs
                # must outlive concurrent writers), so they drive the policy
                # reclaim cadence independently of version-installing commits
                # — otherwise a pure-read serializable workload would grow
                # the tracker without bound.
                cc_reclaim_due = (
                    self.cc.tracks_reads
                    and self._writeless_commits % SSI_RECLAIM_EVERY_N_COMMITS == 0
                )
            if cc_reclaim_due:
                self._reclaim_cc_state()
            if trace is not None:
                trace.mark("publish")
                trace.finish("committed")
                self.obs.tracer.record(trace)
            return False
        writes = txn.effective_writes()
        created = txn.created_keys()
        # Fence before any version install: a writer committing after the
        # engine degraded must not publish in-memory versions that can never
        # be made durable (apply_batch fences again, for commits racing the
        # degradation itself).
        self.store.health.ensure_writable()
        try:
            if self._failpoints is not None:
                fault = self._failpoints.hit("commit.stripe_acquire")
                if fault is not None:
                    fault.raise_fault()
            stripe_set = self._commit_stripe_set(writes, created)
            with self._acquire_stripes(stripe_set):
                if trace is not None:
                    trace.mark("stripe_wait")
                    trace.annotate("stripes", len(stripe_set))
                self._validate(txn, writes, created)
                changes = self._collect_changes(writes) if self.cc.tracks_reads else ()
                commit_ts = self.oracle.issue_commit_timestamp()
                try:
                    # SSI dangerous-structure check + commit publication to the
                    # policy, before any version installs: a serialization
                    # abort raised here leaves nothing to undo.
                    self.cc.record_commit(txn.cc_record, changes, commit_ts)
                    if trace is not None:
                        trace.mark("validate")
                    old_states = self._install_versions(writes, created, commit_ts)
                    self._update_indexes(writes, old_states, commit_ts)
                    if trace is not None:
                        trace.mark("install")
                    operations = build_store_operations(writes, commit_ts, created)
                    try:
                        catch_up_due = self.store.apply_batch(txn.txn_id, operations)
                    except BaseException:
                        # The batch was never logged, but publish_commit
                        # below still advances the watermark past commit_ts —
                        # anything left installed would become visible to
                        # every later snapshot while recovery would drop it.
                        self._revert_installs(writes, old_states, commit_ts)
                        raise
                    if self._failpoints is not None:
                        # Fires after the durable append but before the
                        # commit is acknowledged — the deterministic probe
                        # for the "durable but un-acked" window.
                        fault = self._failpoints.hit("commit.publish")
                        if fault is not None:
                            fault.raise_fault()
                    if trace is not None:
                        trace.mark("wal")
                        trace.annotate("writes", len(writes))
                finally:
                    # Publish unconditionally so a failed install can never
                    # wedge the snapshot watermark (store operations are not
                    # expected to fail; this mirrors the seed, where the next
                    # publish exposed whatever had been installed).
                    self.oracle.publish_commit(txn.txn_id, commit_ts)
                txn.commit_ts = commit_ts
        finally:
            self.cc.release_locks(txn.txn_id)
        self.stats.record_commit()
        # The counter and the modulo decision must move together: concurrent
        # committers racing an unlocked += can jump the counter past the
        # trigger boundary and skip a scheduled GC pass entirely.
        with self._counter_lock:
            self._versioned_commits += 1
            gc_due = (
                self._gc_every_n_commits != 0
                and self._versioned_commits % self._gc_every_n_commits == 0
            )
            cc_reclaim_due = (
                self.cc.tracks_reads
                and self._versioned_commits % SSI_RECLAIM_EVERY_N_COMMITS == 0
            )
        if gc_due:
            self.gc.collect()
        elif cc_reclaim_due:
            self._reclaim_cc_state()
        if trace is not None:
            trace.mark("publish")
            trace.finish("committed")
            self.obs.tracer.record(trace)
        return catch_up_due

    def _reclaim_cc_state(self) -> int:
        """One opportunistic pass over the CC policy's tracking state."""
        return self.cc.reclaim(
            self.oracle.watermark(),
            quiescent=self.oracle.active_count() == 0,
            oldest_active_txn_id=self.oracle.oldest_active_txn_id(),
        )

    # ------------------------------------------------------------------
    # commit stripes
    # ------------------------------------------------------------------

    @property
    def commit_stripe_count(self) -> int:
        """Number of commit stripes the pipeline was configured with."""
        return len(self._commit_stripes)

    def _stripe_index(self, key: EntityKey) -> int:
        return stripe_of(key, len(self._commit_stripes))

    def _commit_stripe_set(
        self, writes: Dict[EntityKey, Optional[object]], created: Set[EntityKey]
    ) -> List[int]:
        """Sorted stripe indices a committing transaction must hold.

        Beyond the write set itself this covers the keys validation *reads*:
        the endpoint nodes of created relationships (so a concurrent node
        delete cannot slip between the liveness check and the install) and the
        adjacency candidates of deleted nodes (so a concurrent relationship
        delete on the same node is serialised against the node delete).  A
        relationship created against one of our nodes after this set is
        computed must itself hold the node's stripe, so it serialises with us
        and is re-read by :meth:`_validate_node_delete` under our stripes.
        """
        indices = set()
        for key, payload in writes.items():
            indices.add(self._stripe_index(key))
            if isinstance(payload, RelationshipData) and key in created:
                indices.add(self._stripe_index(payload.start_node))
                indices.add(self._stripe_index(payload.end_node))
            if payload is None and key < REL_TAG:
                for rel_id in self.indexes.adjacency.candidate_rel_ids(key):
                    indices.add(self._stripe_index(REL_TAG | rel_id))
        return sorted(indices)

    @contextlib.contextmanager
    def _acquire_stripes(self, indices: List[int]) -> Iterator[None]:
        """Hold the given commit stripes, acquired in sorted index order."""
        acquired: List[threading.Lock] = []
        waits = 0
        try:
            for index in indices:
                lock = self._commit_stripes[index]
                if not lock.acquire(blocking=False):
                    waits += 1
                    lock.acquire()
                acquired.append(lock)
            self.commit_pipeline_stats.record_commit(len(acquired), waits)
            yield
        finally:
            for lock in reversed(acquired):
                lock.release()

    def abort_transaction(self, txn: SnapshotTransaction) -> None:
        """Abort: discard the private write set and release write locks."""
        if txn.safe_snapshot is not None:
            # A rolled-back reader has still handed reads to the caller, so
            # its census entry keeps gating members until they finish.
            self.cc.finish_read_only(txn.safe_snapshot)
        self.cc.finish_transaction(txn.txn_id, txn.cc_record, committed=False)
        self.cc.release_locks(txn.txn_id)
        self.oracle.retire_transaction(txn.txn_id)
        self._record_abort(txn)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def read_committed_versions(
        self, keys: Sequence[EntityKey], start_ts: int
    ) -> List[Optional[object]]:
        """Batch read rule: the committed state of each key, in order.

        Keys with a valid shared payload entry are answered from it; one
        pass collects the other keys' chains (lock-free when resident) and
        one pass resolves them against the snapshot.  Thread-safe with no
        shared mutable state, so concurrent transactions may call it for the
        same snapshot.
        """
        cache = self._payload_cache
        stamp = self._payload_stamp
        results: List[Optional[object]] = [None] * len(keys)
        misses: List[int] = []
        miss_keys: List[EntityKey] = []
        for index, key in enumerate(keys):
            entry = cache.get(key)
            if entry is not None:
                built_ts, payload = entry
                if built_ts <= start_ts and stamp.get(key, 0) <= built_ts:
                    results[index] = payload
                    continue
            misses.append(index)
            miss_keys.append(key)
        if not miss_keys:
            return results
        chains = self.versions.get_many(
            miss_keys, lambda key: (lambda: self.store.read_persisted(key))
        )
        publish = self._publish_entry
        for index, key, payload in zip(
            misses, miss_keys, resolve_payloads(chains, start_ts)
        ):
            results[index] = payload
            publish(cache, stamp, key, start_ts, payload)
        return results

    @staticmethod
    def _publish_entry(cache, stamps, key, built_ts: int, payload) -> None:
        """Admit ``payload``, resolved for ``key`` at snapshot ``built_ts``,
        into the shared payload cache.

        Dropped when it is invalid at birth (a change its snapshot cannot
        see already stamped the key) or a valid entry stands that already
        serves this snapshot; an older snapshot's build must never displace
        an entry newer readers can still validate.  A valid build older than
        a standing valid entry does replace it — nothing changed between
        the two, so it serves every snapshot that one served and the
        builder's own as well.
        """
        stamp = stamps.get(key, 0)
        if stamp > built_ts:
            return
        standing = cache.get(key)
        if standing is None:
            if len(cache) >= PAYLOAD_CACHE_LIMIT:
                return
        elif stamp <= standing[0] <= built_ts:
            return
        cache[key] = (built_ts, payload)

    def committed_ids(self, kind: EntityKind) -> Iterator[int]:
        """Cached chain keys first, then the store's ids: a deletion an old
        snapshot predates is gone from the store but still in the chain."""
        tag = REL_TAG if kind is EntityKind.RELATIONSHIP else 0
        seen = set()
        for key in self.versions.keys():
            if key & REL_TAG == tag:
                entity_id = key_id(key)
                seen.add(entity_id)
                yield entity_id
        for entity_id in super().committed_ids(kind):
            if entity_id not in seen:
                yield entity_id

    def _newest_version(self, key: EntityKey) -> Optional[Version]:
        """The newest committed version of ``key`` (a tombstone if deleted)."""
        chain = self.versions.get_or_load(key, lambda: self.store.read_persisted(key))
        return None if chain is None else chain.newest()

    def newest_committed_ts(self, key: EntityKey) -> Optional[int]:
        """Commit timestamp of the newest committed version of ``key``."""
        newest = self._newest_version(key)
        return None if newest is None else newest.commit_ts

    def check_write_conflict(self, txn: SnapshotTransaction, key: EntityKey) -> None:
        """Write-time conflict rule, delegated to the concurrency-control policy.

        The newest committed timestamp is passed lazily so the policy reads
        it under the entity's long lock, after any concurrent committer of
        this key has finished installing (see
        ``SnapshotWriteRulePolicy.check_write``).
        """
        self.cc.check_write(
            txn.txn_id,
            txn.start_ts,
            key,
            txn.cc_record,
            lambda: self.newest_committed_ts(key),
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Run a final garbage-collection pass (the store is closed by the database)."""
        self.gc.collect()

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------

    def run_gc(self) -> GcStats:
        """Run one pass of the threaded-list garbage collector."""
        return self.gc.collect()

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def _policy_abort_counts(self) -> Dict[str, int]:
        ww_stats = self.cc.ww_conflict_stats()
        return {
            "ww-conflict": ww_stats["write_time"] + ww_stats["commit_time"],
            "rw-antidependency": self.cc.rw_antidependency_aborts(),
            "safe-snapshot": self.cc.safe_snapshot_aborts(),
        }

    def statistics(self) -> Dict[str, object]:
        """Aggregate statistics used by experiments and the database stats API."""
        return {
            "transactions": dict(
                self.stats.as_dict(), abort_reasons=self.abort_reasons()
            ),
            "concurrency_control": self.cc.statistics(),
            "conflicts": self.cc.ww_conflict_stats(),
            "versions": {
                "chains": self.versions.chain_count(),
                "total_versions": self.versions.total_versions(),
                "multi_version_chains": self.versions.multi_version_chains(),
                "gc_pending": self.gc.pending_versions(),
            },
            "gc": self.gc.total_stats.as_dict(),
            "oracle": {
                "latest_commit_ts": self.oracle.latest_commit_ts,
                "active_transactions": self.oracle.active_count(),
                "watermark": self.oracle.watermark(),
                "pending_commits": self.oracle.pending_commit_count(),
            },
            "commit_pipeline": dict(
                self.commit_pipeline_stats.as_dict(),
                stripes=len(self._commit_stripes),
            ),
            "safe_snapshots": self.cc.safe_snapshot_statistics(),
            "cardinalities": self.cardinalities(),
        }

    # ------------------------------------------------------------------
    # commit internals
    # ------------------------------------------------------------------

    def _validate(
        self,
        txn: SnapshotTransaction,
        writes: Dict[EntityKey, Optional[object]],
        created: Set[EntityKey],
    ) -> None:
        """Commit-time checks run under the commit mutex.

        Policy validation (first-committer-wins ww-detection and/or the SSI
        dangerous-structure pre-check, depending on the configured policy)
        plus structural checks that keep the persistent store consistent even
        when snapshot isolation alone would allow the interleaving: a
        relationship cannot be created against a node whose deletion has
        already committed, and a node cannot be deleted while a concurrently
        committed relationship still attaches to it.
        """
        self.cc.validate_commit(
            txn.txn_id,
            txn.start_ts,
            txn.cc_record,
            writes,
            created,
            self.newest_committed_ts,
        )
        for key, payload in writes.items():
            if isinstance(payload, RelationshipData) and key in created:
                # A node's key is its id.
                for node_id in (payload.start_node, payload.end_node):
                    if node_id in writes and writes[node_id] is not None:
                        continue
                    if node_id in created:
                        continue
                    if self._latest_committed_payload(node_id) is None:
                        raise WriteWriteConflictError(
                            f"transaction {txn.txn_id} creates relationship "
                            f"{payload.rel_id} against node {node_id}, which a "
                            "concurrent transaction has deleted"
                        )
            if payload is None and key < REL_TAG:
                self._validate_node_delete(txn, key, writes)

    def _validate_node_delete(
        self,
        txn: SnapshotTransaction,
        node_id: int,
        writes: Dict[EntityKey, Optional[object]],
    ) -> None:
        for rel_id in self.indexes.adjacency.candidate_rel_ids(node_id):
            rel_key = REL_TAG | rel_id
            if rel_key in writes and writes[rel_key] is None:
                continue
            if self._latest_committed_payload(rel_key) is not None:
                raise WriteWriteConflictError(
                    f"transaction {txn.txn_id} deletes node {node_id} "
                    f"but relationship {rel_id} still attaches to it in the "
                    "latest committed state"
                )

    def _latest_committed_payload(self, key: EntityKey) -> Optional[object]:
        """Newest committed live payload of ``key`` (``None`` if absent/deleted)."""
        newest = self._newest_version(key)
        if newest is None or newest.is_tombstone:
            return None
        return newest.payload

    def _collect_changes(
        self, writes: Dict[EntityKey, Optional[object]]
    ) -> List[Change]:
        """``(key, before, after)`` triples for the CC policy's commit record.

        Computed under the commit stripes (before versions install), where the
        newest committed state of every written key is stable — this is what
        the SSI policy matches reader predicates against.
        """
        return [
            (key, self._latest_committed_payload(key), payload)
            for key, payload in writes.items()
        ]

    def _install_versions(
        self,
        writes: Dict[EntityKey, Optional[object]],
        created: Set[EntityKey],
        commit_ts: int,
    ) -> Dict[EntityKey, Optional[object]]:
        """Install committed versions into the chains; returns superseded payloads.

        Installs go through :meth:`VersionStore.install_committed`, which runs
        under the key's stripe lock and re-inserts the chain — never through
        the lock-free read hit path, whose un-promoted chains can be evicted
        mid-install (see that method's docstring).

        A key in ``created`` is installed without reading the
        store: its id came fresh from the allocator, which hands out an id
        again only once a catch-up has applied its delete — so the store
        holds no state for it and the backlog no operation on it.  (A chain
        still cached for a reused id is found by the install as before.)
        """
        old_states: Dict[EntityKey, Optional[object]] = {}
        payload_stamp = self._payload_stamp
        for key, payload in writes.items():
            # Invalidate the shared resolved-payload cache for this key.
            # This runs before the commit is published, so no snapshot that
            # can see the new version validates a stale entry.
            payload_stamp[key] = commit_ts
            version = Version(key, payload, commit_ts)
            superseded = self.versions.install_committed(
                key,
                version,
                _no_persisted_state
                if key in created
                else (lambda k=key: self.store.read_persisted(k)),
            )
            old_states[key] = (
                superseded.payload
                if superseded is not None and not superseded.is_tombstone
                else None
            )
            if superseded is not None:
                self.gc.version_superseded(superseded, commit_ts)
            if version.is_tombstone:
                self.gc.tombstone_installed(version)
        return old_states

    def _revert_installs(
        self,
        writes: Dict[EntityKey, Optional[object]],
        old_states: Dict[EntityKey, Optional[object]],
        commit_ts: int,
    ) -> None:
        """Unwind version installs and index deltas after a failed log append.

        Index deltas are cancelled by applying the inverse change at the same
        timestamp, which collapses the membership interval to the empty
        ``[ts, ts)``.  The written chains are dropped outright rather than
        surgically trimmed: readers rebuild them from the store, which (once
        it has caught up with its backlog, as a read of a queued key makes
        it) reflects exactly the logged batches.  GC-list entries
        registered by the forward install are left behind on purpose — the
        reclaim pass tolerates versions whose chain no longer holds them.
        """
        payload_stamp = self._payload_stamp
        for key, payload in writes.items():
            payload_stamp[key] = commit_ts
            self.indexes.apply_change(key, payload, old_states.get(key), commit_ts)
            self.versions.remove_chain(key)

    def _update_indexes(
        self,
        writes: Dict[EntityKey, Optional[object]],
        old_states: Dict[EntityKey, Optional[object]],
        commit_ts: int,
    ) -> None:
        """Tag every index with the commit's changes, the adjacency index
        included: a relationship create opens an entry under each endpoint
        and a delete closes them.  This runs before the commit is
        published, so a snapshot that can see the commit sees its entries."""
        for key, payload in writes.items():
            self.indexes.apply_change(key, old_states.get(key), payload, commit_ts)
