"""Store manager: the logical face of the persistent store.

Everything above this module (transaction managers, indexes, the MVCC layer)
speaks :class:`~repro.graph.entity.NodeData` and
:class:`~repro.graph.entity.RelationshipData`; this module translates those
logical entities into record writes across the node, relationship, property,
dynamic and token stores, keeps each node's count of relationships (the guard
against deleting a node a relationship still names), logs every mutation to
the write-ahead log, and replays the log on startup.

A commit only logs: :meth:`StoreManager.apply_batch` appends the batch to the
log and queues it.  The record stores catch up later, in commit order and
writing only the newest queued state of a key — at a checkpoint, when the
backlog reaches :data:`CATCH_UP_BATCHES`, and before any store read that
depends on a queued batch.

The snapshot-isolation layer relies on one property of this class that the
paper calls out explicitly in Section 4: **only the most recent committed
version of an entity is ever written to the persistent store** — the store
manager has no notion of versions at all.  Older versions live purely in the
object cache above.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import (
    ConstraintViolationError,
    NodeNotFoundError,
    SimulatedCrashError,
    WalError,
)
from repro.health import EngineHealth
from repro.graph.dynamic_store import DynamicStore
from repro.graph.entity import (
    REL_TAG,
    EntityKey,
    NodeData,
    RelationshipData,
    key_id,
)
from repro.graph.node_store import NodeStore
from repro.graph.operations import (
    DeleteNodeOp,
    DeleteRelationshipOp,
    StoreOperation,
    WriteNodeOp,
    WriteRelationshipOp,
    operations_from_payloads,
)
from repro.graph.paging import (
    DEFAULT_PAGE_CAPACITY,
    DEFAULT_PAGE_SIZE,
    PageCache,
    PagedFile,
    open_backend,
)
from repro.graph.property_store import PropertyStore
from repro.graph.records import RelationshipRecord, NodeRecord
from repro.graph.relationship_store import RelationshipStore
from repro.graph.token_store import TokenStore
from repro.graph.tokens import TokenSet
from repro.graph.recovery import (
    read_checkpoint_marker,
    write_checkpoint_marker,
)
from repro.graph.wal import WriteAheadLog
from repro.graph.properties import COMMIT_TS_PROPERTY, PropertyValue, split_commit_ts

#: Logged batches the record stores may lag behind before the committer whose
#: batch reaches the bound catches them up (after it has published).
CATCH_UP_BATCHES = 4096

_WRITES = (WriteNodeOp, WriteRelationshipOp)


class StoreManagerStats:
    """Mutation counters used by the persistence experiment (E8) and tests.

    ``batches_applied`` counts batches logged by :meth:`StoreManager.apply_batch`
    (the commits); the write and delete counters count record-store applies,
    and ``writes_skipped`` the queued writes a later one superseded.
    """

    def __init__(self) -> None:
        self.node_writes = 0
        self.relationship_writes = 0
        self.node_deletes = 0
        self.relationship_deletes = 0
        self.writes_skipped = 0
        self.batches_applied = 0
        self.batches_replayed = 0
        self.group_flushes = 0
        self.group_batches = 0
        self.group_max_coalesced = 0

    def entity_writes(self) -> int:
        """Total number of logical entity writes flushed to the store."""
        return self.node_writes + self.relationship_writes

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view of the counters."""
        return {
            "node_writes": self.node_writes,
            "relationship_writes": self.relationship_writes,
            "node_deletes": self.node_deletes,
            "relationship_deletes": self.relationship_deletes,
            "writes_skipped": self.writes_skipped,
            "batches_applied": self.batches_applied,
            "batches_replayed": self.batches_replayed,
            "entity_writes": self.entity_writes(),
            "group_flushes": self.group_flushes,
            "group_batches": self.group_batches,
            "group_max_coalesced": self.group_max_coalesced,
        }


class _PendingCommit:
    """One committer's batch on its way to the log and the backlog."""

    __slots__ = ("txn_id", "operations", "done", "error")

    def __init__(self, txn_id: int, operations: List[StoreOperation]) -> None:
        self.txn_id = txn_id
        self.operations = operations
        #: Set, under the store latch, once the batch was flushed (or failed);
        #: a group-commit follower reads it after taking the latch.
        self.done = False
        self.error: Optional[BaseException] = None


class StoreManager:
    """Owns every store file and exposes the logical read/write API."""

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        page_cache_pages: int = DEFAULT_PAGE_CAPACITY,
        page_size: int = DEFAULT_PAGE_SIZE,
        wal_sync: bool = False,
        reuse_entity_ids: bool = True,
        group_commit: bool = False,
        failpoints=None,
        health: Optional[EngineHealth] = None,
    ) -> None:
        """Open (or create) a graph store.

        ``path`` is a directory; ``None`` keeps everything in memory.  Every
        applied batch is logged before it touches the stores and the log is
        replayed on the next open.  ``wal_sync`` controls whether commits
        fsync the log (off by default because the benchmarks measure
        concurrency-control costs, not disk latency).
        ``reuse_entity_ids`` is disabled by the multi-version engine so that
        node/relationship ids are never recycled while old versions of a
        deleted entity may still be readable by an open snapshot.

        With ``group_commit`` concurrent :meth:`apply_batch` callers coalesce:
        whichever committer reaches the store latch first drains the whole
        queue and flushes every queued batch with one WAL append (and one
        fsync, when ``wal_sync`` is on) — the classic group commit that makes
        the sharded commit pipeline pay one disk round trip per *group*.

        ``failpoints`` is an optional
        :class:`~repro.fault.FailpointRegistry` threaded into the WAL, the
        checkpoint path and the group-commit flush; ``health`` is the shared
        :class:`~repro.health.EngineHealth` switch (one is created here when
        the caller does not supply it).
        """
        self._path = path
        self._lock = threading.RLock()
        self._closed = False
        self._failpoints = failpoints
        self.health = health if health is not None else EngineHealth()
        self._group_commit = group_commit
        self._group_gate = threading.Lock()
        self._group_pending: List[_PendingCommit] = []
        self.stats = StoreManagerStats()
        # The backlog: logged operations the record stores have not caught
        # up with, in commit order, plus what apply_batch's checks and the
        # reads need to know about them (all guarded by the latch).
        self._backlog: List[StoreOperation] = []
        self._backlog_batches = 0
        #: Key -> position of its last queued operation.
        self._queued: Dict[EntityKey, int] = {}
        #: Positions of writes a later queued write of the same key replaces.
        self._superseded: Set[int] = set()
        #: Node id -> queued change of its relationship count.
        self._rel_delta: Dict[int, int] = {}
        #: Queued change of the node and relationship totals: creates minus
        #: deletes of the batches the commit path admitted.
        self._queued_nodes = 0
        self._queued_relationships = 0
        self._apply_failed = False
        #: Observability bundle (set by the database); when present, the
        #: commit flush path times WAL appends into its latency histogram.
        self.obs = None
        self.page_cache = PageCache(page_cache_pages, page_size)

        def paged(name: str) -> PagedFile:
            file_path = None if path is None else os.path.join(path, name)
            return PagedFile(open_backend(file_path), self.page_cache)

        self._label_dynamic = DynamicStore(paged("labels.dyn"), "label-dynamic")
        self._value_dynamic = DynamicStore(paged("values.dyn"), "value-dynamic")
        self._name_dynamic = DynamicStore(paged("names.dyn"), "name-dynamic")
        self.nodes = NodeStore(
            paged("node.store"), self._label_dynamic, reuse_ids=reuse_entity_ids
        )
        self.relationships = RelationshipStore(
            paged("relationship.store"), reuse_ids=reuse_entity_ids
        )
        self.properties = PropertyStore(paged("property.store"), self._value_dynamic)
        self._label_tokens = TokenStore(paged("label_tokens.store"), self._name_dynamic, "label-tokens")
        self._type_tokens = TokenStore(paged("type_tokens.store"), self._name_dynamic, "type-tokens")
        self._key_tokens = TokenStore(paged("key_tokens.store"), self._name_dynamic, "key-tokens")

        self.tokens = TokenSet(
            on_create_label=self._label_tokens.create,
            on_create_type=self._type_tokens.create,
            on_create_key=self._key_tokens.create,
        )
        self._load_tokens()

        wal_path = None if path is None else os.path.join(path, "wal.log")
        self.wal = WriteAheadLog(
            wal_path,
            sync_on_commit=wal_sync,
            failpoints=failpoints,
        )
        marker = read_checkpoint_marker(path) if path is not None else None
        self._checkpoint_generation = (
            int(marker.get("generation", 0)) if marker else 0
        )
        self._recover()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def path(self) -> Optional[str]:
        """Directory holding the store files (``None`` when in memory)."""
        return self._path

    @property
    def failpoints(self):
        """The fault-injection registry, or ``None`` (the production default)."""
        return self._failpoints

    def wal_stats(self) -> Dict[str, object]:
        """Write-ahead-log counters (the database's ``statistics()["wal"]``)."""
        return self.wal.stats()

    def checkpoint(self) -> None:
        """Catch up, flush all dirty pages, persist the checkpoint marker,
        reset the WAL.

        The three steps after the catch-up are strictly ordered so that a
        crash at *any* point is repaired by WAL replay on the next open:

        1. every store file is flushed and fsynced (crash after: the WAL is
           still intact, replay re-applies — harmless, replay is idempotent);
        2. the checkpoint marker is written crash-atomically via a temp file
           and ``os.replace`` (crash after: same as 1);
        3. only then is the WAL truncated — nothing is ever dropped from the
           log before the stores durably contain it.

        A degraded engine refuses to checkpoint: after a failed durability
        operation the store files cannot be trusted to contain everything in
        the WAL, and truncating the log would turn a transient fault into
        data loss.  Any checkpoint failure likewise flips the engine into
        degraded read-only mode, for the same reason.
        """
        with self._lock:
            self.health.ensure_writable()
            try:
                if self._failpoints is not None:
                    fault = self._failpoints.hit("store.checkpoint")
                    if fault is not None:
                        fault.raise_fault()
                self._catch_up()
                self.page_cache.flush()
                if self._failpoints is not None:
                    fault = self._failpoints.hit("store.flush")
                    if fault is not None:
                        fault.raise_fault()
                for store in (self.nodes, self.relationships, self.properties):
                    store.flush()
                self._label_dynamic.flush()
                self._value_dynamic.flush()
                self._name_dynamic.flush()
                self._label_tokens.flush()
                self._type_tokens.flush()
                self._key_tokens.flush()
                if self._path is not None:
                    write_checkpoint_marker(
                        self._path,
                        self._checkpoint_generation + 1,
                        failpoints=self._failpoints,
                    )
                self.wal.checkpoint()
                self._checkpoint_generation += 1
            except BaseException as exc:  # noqa: BLE001 - degrade, then surface
                self.health.mark_degraded("checkpoint-failed", exc)
                self._note_degraded_obs()
                raise

    def close(self) -> None:
        """Checkpoint (when healthy) and close every store file.

        The file descriptors are *always* released, even when the final
        checkpoint fails — the failure is re-raised after cleanup.  A
        degraded engine skips the checkpoint entirely: its WAL must survive
        for replay on the next open.
        """
        with self._lock:
            if self._closed:
                return
            checkpoint_error: Optional[BaseException] = None
            if not self.health.is_degraded:
                try:
                    self.checkpoint()
                except BaseException as exc:  # noqa: BLE001 - close fds first
                    checkpoint_error = exc
            for closable in (
                self.nodes,
                self.relationships,
                self.properties,
                self._label_dynamic,
                self._value_dynamic,
                self._name_dynamic,
                self._label_tokens,
                self._type_tokens,
                self._key_tokens,
            ):
                closable.close()
            self.wal.close()
            self._closed = True
            if checkpoint_error is not None:
                raise checkpoint_error

    def _note_degraded_obs(self) -> None:
        """Mirror a degradation into the metrics registry, when wired."""
        obs = self.obs
        if obs is not None:
            obs.engine_degraded.set(1)

    # ------------------------------------------------------------------
    # id allocation
    # ------------------------------------------------------------------

    def allocate_node_id(self) -> int:
        """Reserve a node id for a not-yet-committed node."""
        return self.nodes.allocate_id()

    def allocate_relationship_id(self) -> int:
        """Reserve a relationship id for a not-yet-committed relationship."""
        return self.relationships.allocate_id()

    # ------------------------------------------------------------------
    # the commit path: log, queue, catch up
    # ------------------------------------------------------------------

    def apply_batch(self, txn_id: int, operations: List[StoreOperation]) -> bool:
        """Log one committed transaction's store operations and queue them
        for the record stores.

        The batch is durable once this returns; the record stores catch up
        later (:meth:`catch_up`).  Returns whether the backlog has reached
        :data:`CATCH_UP_BATCHES`: the caller then catches up once it holds
        nothing another committer waits for.

        A batch that would not apply after everything logged before it — a
        relationship create whose endpoint is not in use, a node delete
        while a relationship still names the node — is refused with the
        error its apply would raise, and nothing of it is logged.  So every
        logged batch applies, at catch-up and at replay alike.

        Without group commit each batch takes the store latch on its own.
        With group commit the batch joins the pending queue; the first
        committer through the latch logs the entire queue (its own batch
        included) and later committers find their entry already done.
        """
        if not operations:
            return False
        self.health.ensure_writable()
        entry = _PendingCommit(txn_id, operations)
        if not self._group_commit:
            with self._lock:
                self._flush_batches([entry])
        else:
            with self._group_gate:
                self._group_pending.append(entry)
            with self._lock:
                if not entry.done:
                    with self._group_gate:
                        drained = self._group_pending
                        self._group_pending = []
                    self.stats.group_flushes += 1
                    self.stats.group_batches += len(drained)
                    self.stats.group_max_coalesced = max(
                        self.stats.group_max_coalesced, len(drained)
                    )
                    self._flush_batches(drained)
        if entry.error is not None:
            raise entry.error
        return self._backlog_batches >= CATCH_UP_BATCHES

    def _flush_batches(self, batch: List[_PendingCommit]) -> None:
        """Log a group of batches and queue them (caller holds the latch).

        Never raises directly: failures are recorded per entry and re-raised
        in each owning committer's thread, so every follower finds its entry
        done.  A batch that would not apply is refused on its own; the rest
        share one WAL append, and a failed append fails all of them (nothing
        was made durable).  An unrecoverable append failure (after the retry
        budget, or a simulated crash) also flips the engine into degraded
        read-only mode: durability can no longer be promised.
        """
        obs = self.obs
        try:
            if self._failpoints is not None:
                fault = self._failpoints.hit("store.group_flush")
                if fault is not None:
                    fault.raise_fault()
            admitted: List[_PendingCommit] = []
            live: Dict[EntityKey, object] = {}
            counts: Dict[int, int] = {}
            totals = [0, 0]
            for entry in batch:
                entry.error = self._refusal(entry.operations, live, counts, totals)
                if entry.error is None:
                    admitted.append(entry)
                else:
                    entry.done = True
            if not admitted:
                return
            encoded = [
                (entry.txn_id, [operation.encode() for operation in entry.operations])
                for entry in admitted
            ]
            if obs is not None:
                wal_started = perf_counter()
                self.wal.append_commits(encoded)
                obs.wal_append_seconds.observe(perf_counter() - wal_started)
            else:
                self.wal.append_commits(encoded)
        except BaseException as exc:  # noqa: BLE001 - re-raised in the owners
            if isinstance(exc, (WalError, SimulatedCrashError)) or not isinstance(
                exc, Exception
            ):
                self.health.mark_degraded("wal-append-failed", exc)
                self._note_degraded_obs()
            for entry in batch:
                if not entry.done:
                    entry.error = exc
                    entry.done = True
            return
        for entry in admitted:
            self._enqueue(entry.operations)
            self.stats.batches_applied += 1
            entry.done = True
        rel_delta = self._rel_delta
        for node_id, delta in counts.items():
            rel_delta[node_id] = rel_delta.get(node_id, 0) + delta
        self._queued_nodes += totals[0]
        self._queued_relationships += totals[1]
        # An in-memory log can never be replayed: the queued operations hold
        # the states, and the log bytes are dead weight.
        if self._path is None:
            self.wal.forget()

    def _refusal(
        self,
        operations: List[StoreOperation],
        live: Dict[EntityKey, object],
        counts: Dict[int, int],
        totals: List[int],
    ) -> Optional[Exception]:
        """The error ``operations`` would raise when applied after the
        backlog and after the batches of this group before them, or ``None``.

        ``live``, ``counts`` and ``totals`` hold those earlier batches'
        effects: the state of each key they touched (``None`` once deleted,
        a relationship's endpoints, ``True`` for a node), each node's change
        of relationship count, and the change of the node and relationship
        totals.  An accepted batch adds its own.
        """
        own_live: Dict[EntityKey, object] = {}
        own_counts: Dict[int, int] = {}
        nodes = rels = 0

        def state(key: EntityKey) -> object:
            if key in own_live:
                return own_live[key]
            if key in live:
                return live[key]
            return self._logged_state(key)

        def creates(operation) -> bool:
            # A committer that knows says so: its creates hold fresh ids,
            # which the stores and the backlog know nothing of (an id is
            # handed out again only once a catch-up applied its delete).
            if operation.created is None:
                return state(operation.key) is None
            return operation.created

        for operation in operations:
            key = operation.key
            if isinstance(operation, WriteNodeOp):
                if creates(operation):
                    nodes += 1
                own_live[key] = True
            elif isinstance(operation, WriteRelationshipOp):
                if creates(operation):
                    rel = operation.relationship
                    for node_id in (rel.start_node, rel.end_node):
                        if state(node_id) is None:
                            return NodeNotFoundError(node_id)
                    ends = own_live[key] = frozenset((rel.start_node, rel.end_node))
                    for node_id in ends:
                        own_counts[node_id] = own_counts.get(node_id, 0) + 1
                    rels += 1
            elif isinstance(operation, DeleteRelationshipOp):
                ends = state(key)
                if ends is not None:
                    for node_id in ends:
                        own_counts[node_id] = own_counts.get(node_id, 0) - 1
                    own_live[key] = None
                    rels -= 1
            elif state(key) is not None:  # DeleteNodeOp
                record = self.nodes.read(key)
                rel_count = (
                    (record.rel_count if record.in_use else 0)
                    + self._rel_delta.get(key, 0)
                    + counts.get(key, 0)
                    + own_counts.get(key, 0)
                )
                if rel_count > 0:
                    return ConstraintViolationError(
                        f"node {key} still has relationships in the store"
                    )
                own_live[key] = None
                nodes -= 1
        live.update(own_live)
        for node_id, delta in own_counts.items():
            counts[node_id] = counts.get(node_id, 0) + delta
        totals[0] += nodes
        totals[1] += rels
        return None

    def _logged_state(self, key: EntityKey) -> object:
        """``key``'s state after every logged batch, as :meth:`_refusal`
        tracks it: the last queued operation on the key, else the stores."""
        position = self._queued.get(key)
        if position is not None:
            operation = self._backlog[position]
            if isinstance(operation, WriteNodeOp):
                return True
            if isinstance(operation, WriteRelationshipOp):
                rel = operation.relationship
                return frozenset((rel.start_node, rel.end_node))
            return None
        if key < REL_TAG:
            return True if self.nodes.exists(key) else None
        record = self.relationships.read(key_id(key))
        return frozenset((record.start_node, record.end_node)) if record.in_use else None

    def _enqueue(self, operations: List[StoreOperation]) -> None:
        """Queue one logged batch (caller holds the latch).  A write whose
        key's last queued operation is also a write supersedes that one."""
        backlog = self._backlog
        queued = self._queued
        for operation in operations:
            key = operation.key
            previous = queued.get(key)
            if (
                previous is not None
                and isinstance(operation, _WRITES)
                and isinstance(backlog[previous], _WRITES)
            ):
                self._superseded.add(previous)
            queued[key] = len(backlog)
            backlog.append(operation)
        self._backlog_batches += 1

    @property
    def backlog_size(self) -> int:
        """Logged batches the record stores have not caught up with."""
        return self._backlog_batches

    def catch_up(self) -> int:
        """Apply every queued batch to the record stores, in commit order;
        returns how many batches that was.

        A superseded write is skipped when its key is already in use in the
        stores (a create always applies, so operations queued between the
        two find the entity).  Takes only the store latch, so any caller may
        run it.  A failure part-way marks the store degraded and raises
        here; from then on a read that needs the backlog is refused.
        """
        with self._lock:
            return self._catch_up()

    def _catch_up(self) -> int:
        """:meth:`catch_up` with the latch held."""
        backlog = self._backlog
        if not backlog:
            return 0
        if self._apply_failed:
            # The stores stopped part-way through the backlog; only replay
            # on the next open knows where.
            self.health.ensure_writable()
        started = perf_counter()
        superseded = self._superseded
        skipped = 0
        try:
            for position, operation in enumerate(backlog):
                if position in superseded and self._in_use(operation.key):
                    skipped += 1
                    continue
                self._apply_operation(operation)
        except BaseException as exc:  # noqa: BLE001 - degrade, then surface
            self._apply_failed = True
            self.health.mark_degraded("store-apply-failed", exc)
            self._note_degraded_obs()
            raise
        batches = self._backlog_batches
        self._backlog = []
        self._backlog_batches = 0
        self._queued = {}
        self._superseded = set()
        self._rel_delta = {}
        self._queued_nodes = self._queued_relationships = 0
        self.stats.writes_skipped += skipped
        obs = self.obs
        if obs is not None:
            obs.store_apply_seconds.observe(perf_counter() - started)
            obs.store_apply_skipped.inc(skipped)
        return batches

    def _in_use(self, key: EntityKey) -> bool:
        if key < REL_TAG:
            return self.nodes.exists(key)
        return self.relationships.exists(key_id(key))

    def _apply_operation(self, operation: StoreOperation) -> None:
        """Apply one logged operation (caller holds the store latch)."""
        if isinstance(operation, WriteNodeOp):
            self._write_node(operation.node, operation.commit_ts)
        elif isinstance(operation, DeleteNodeOp):
            self._delete_node(operation.node_id)
        elif isinstance(operation, WriteRelationshipOp):
            self._write_relationship(operation.relationship, operation.commit_ts)
        elif isinstance(operation, DeleteRelationshipOp):
            self._delete_relationship(operation.rel_id)
        else:  # pragma: no cover - exhaustive over StoreOperation
            raise TypeError(f"unknown store operation {operation!r}")

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------

    def _write_node(self, node: NodeData, commit_ts: Optional[int]) -> None:
        """Create or overwrite a node's persistent state (caller holds the latch).

        An overwrite costs what changed: the label block and every property
        record whose value is unchanged are left alone, and the node record is
        rewritten only when one of its references moved (see
        :meth:`PropertyStore.replace_chain` for the rule and its fall-through).
        """
        self.nodes.mark_id_used(node.node_id)
        record = self.nodes.read(node.node_id)
        created = not record.in_use
        if created:
            record = NodeRecord(in_use=True)
        label_id = self.tokens.labels.get_or_create
        label_ref = self.nodes.replace_labels(
            record.label_ref, [label_id(label) for label in node.labels]
        )
        first_prop = self.properties.replace_chain(
            record.first_prop, self._encode_property_keys(node.properties, commit_ts)
        )
        if created or (label_ref, first_prop) != (record.label_ref, record.first_prop):
            record.label_ref = label_ref
            record.first_prop = first_prop
            if created:
                self.nodes.create(node.node_id, record)
            else:
                self.nodes.write(node.node_id, record)
        self.stats.node_writes += 1

    def read_node(self, node_id: int) -> Optional[NodeData]:
        """Read a node's persistent state, or ``None`` if the slot is unused."""
        if node_id < 0:
            return None
        with self._lock:
            if node_id in self._queued:
                self._catch_up()
            record = self.nodes.read(node_id)
            if not record.in_use:
                return None
            labels = frozenset(
                self.tokens.labels.name_of(label_id)
                for label_id in self.nodes.read_labels(record.label_ref)
            )
            properties = self._decode_property_keys(
                self.properties.read_chain(record.first_prop)
            )
            return NodeData(node_id=node_id, labels=labels, properties=properties)

    def _delete_node(self, node_id: int) -> None:
        """Delete a node's persistent state, if present (caller holds the
        latch).  The node must have no relationships left in the store;
        higher layers are responsible for detach semantics."""
        if not self.nodes.exists(node_id):
            return
        record = self.nodes.read(node_id)
        if record.rel_count:
            raise ConstraintViolationError(
                f"node {node_id} still has relationships in the store"
            )
        self.nodes.free_labels(record.label_ref)
        self.properties.free_chain(record.first_prop)
        self.nodes.delete(node_id)
        self.stats.node_deletes += 1

    def node_exists(self, node_id: int) -> bool:
        """Whether the persistent store holds a node with this id."""
        with self._lock:
            if node_id in self._queued:
                self._catch_up()
            return self.nodes.exists(node_id)

    def iter_node_ids(self) -> Iterator[int]:
        """Node ids present in the persistent store, in id order."""
        with self._lock:
            self._catch_up()
            ids = list(self.nodes.iter_used_ids())
        return iter(ids)

    def iter_nodes(self) -> Iterator[NodeData]:
        """Persistent node states, in id order."""
        for node_id in self.iter_node_ids():
            node = self.read_node(node_id)
            if node is not None:
                yield node

    def node_count(self) -> int:
        """Number of nodes once the backlog is caught up: the records' kept
        count plus the backlog's queued creates minus its deletes (the
        planner's estimate, not a census).  Reads two ints, without the
        latch and without catching up — during a catch-up it may count the
        part already applied twice."""
        return self.nodes.count() + self._queued_nodes

    # ------------------------------------------------------------------
    # relationships
    # ------------------------------------------------------------------

    def _write_relationship(
        self, relationship: RelationshipData, commit_ts: Optional[int]
    ) -> None:
        """Create or overwrite a relationship's persistent state (caller
        holds the latch).

        For an existing relationship only the property chain is replaced
        (in place where the key set is unchanged, as for nodes); the endpoints
        and type of a relationship are immutable, as in Neo4j.  A create
        checks both endpoints before it writes anything, then counts itself
        once on each distinct endpoint; it writes no other relationship.
        """
        self.relationships.mark_id_used(relationship.rel_id)
        record = self.relationships.read(relationship.rel_id)
        if record.in_use:
            first_prop = self.properties.replace_chain(
                record.first_prop,
                self._encode_property_keys(relationship.properties, commit_ts),
            )
            if first_prop != record.first_prop:
                record.first_prop = first_prop
                self.relationships.write(relationship.rel_id, record)
        else:
            start, end = relationship.start_node, relationship.end_node
            self._require_node(start)
            self._require_node(end)
            record = RelationshipRecord(
                in_use=True,
                start_node=start,
                end_node=end,
                type_id=self.tokens.relationship_types.get_or_create(
                    relationship.rel_type
                ),
                first_prop=self.properties.write_chain(
                    self._encode_property_keys(relationship.properties, commit_ts)
                ),
            )
            self.relationships.create(relationship.rel_id, record)
            for node_id in {start, end}:
                self._add_to_rel_count(node_id, 1)
        self.stats.relationship_writes += 1

    def read_relationship(self, rel_id: int) -> Optional[RelationshipData]:
        """Read a relationship's persistent state, or ``None`` if unused."""
        if rel_id < 0:
            return None
        with self._lock:
            if REL_TAG | rel_id in self._queued:
                self._catch_up()
            record = self.relationships.read(rel_id)
            if not record.in_use:
                return None
            properties = self._decode_property_keys(
                self.properties.read_chain(record.first_prop)
            )
            return RelationshipData(
                rel_id=rel_id,
                rel_type=self.tokens.relationship_types.name_of(record.type_id),
                start_node=record.start_node,
                end_node=record.end_node,
                properties=properties,
            )

    def read_persisted(self, key: EntityKey) -> Optional[Tuple[object, int]]:
        """The stored state of ``key`` as ``(state without reserved
        properties, commit_ts)``, or ``None`` — what both engines read."""
        if key < REL_TAG:
            data = self.read_node(key)
        else:
            data = self.read_relationship(key_id(key))
        return None if data is None else split_commit_ts(data)

    def _delete_relationship(self, rel_id: int) -> None:
        """Delete a relationship, if present (caller holds the latch)."""
        if not self.relationships.exists(rel_id):
            return
        record = self.relationships.read(rel_id)
        for node_id in {record.start_node, record.end_node}:
            self._add_to_rel_count(node_id, -1)
        self.properties.free_chain(record.first_prop)
        self.relationships.delete(rel_id)
        self.stats.relationship_deletes += 1

    def iter_relationship_ids(self) -> Iterator[int]:
        """Relationship ids present in the persistent store, in id order."""
        with self._lock:
            self._catch_up()
            ids = list(self.relationships.iter_used_ids())
        return iter(ids)

    def iter_relationships(self) -> Iterator[RelationshipData]:
        """Persistent relationship states, in id order."""
        for rel_id in self.iter_relationship_ids():
            relationship = self.read_relationship(rel_id)
            if relationship is not None:
                yield relationship

    def relationship_count(self) -> int:
        """Number of relationships once the backlog is caught up (as
        :meth:`node_count`)."""
        return self.relationships.count() + self._queued_relationships

    def _add_to_rel_count(self, node_id: int, delta: int) -> None:
        """Move an in-use node's relationship count by ``delta``, never below
        zero: replay over a torn page image can find a count that missed the
        create its delete now undoes."""
        record = self.nodes.read(node_id)
        if record.in_use and record.rel_count + delta >= 0:
            record.rel_count += delta
            self.nodes.write(node_id, record)

    # ------------------------------------------------------------------
    # property key translation
    # ------------------------------------------------------------------

    def _encode_property_keys(
        self, properties, commit_ts: Optional[int]
    ) -> Dict[int, PropertyValue]:
        """A property map keyed by key token id, with ``commit_ts`` (when
        given) as the reserved commit-timestamp property.

        The timestamp's key is interned after the state's own keys, as when
        it was the last entry of the state's property map.
        """
        key_id = self.tokens.property_keys.get_or_create
        encoded = {
            key_id(key): list(value) if isinstance(value, tuple) else value
            for key, value in properties.items()
        }
        if commit_ts is not None:
            encoded[key_id(COMMIT_TS_PROPERTY)] = commit_ts
        return encoded

    def _decode_property_keys(self, properties: Dict[int, PropertyValue]) -> Dict[str, PropertyValue]:
        return {
            self.tokens.property_keys.name_of(key_id): value
            for key_id, value in properties.items()
        }

    def _require_node(self, node_id: int) -> None:
        if not self.nodes.exists(node_id):
            raise NodeNotFoundError(node_id)

    # ------------------------------------------------------------------
    # startup
    # ------------------------------------------------------------------

    def _load_tokens(self) -> None:
        self._label_tokens.populate_registry(self.tokens.labels)
        self._type_tokens.populate_registry(self.tokens.relationship_types)
        self._key_tokens.populate_registry(self.tokens.property_keys)

    def _recover(self) -> None:
        """Replay committed write-ahead-log batches left over from a crash.

        Replayed batches join the backlog and reach the stores through the
        commit path's own catch-up (at the bound, and at the checkpoint that
        ends recovery).  Replay is idempotent (writes overwrite, deletes
        tolerate absence), so a crash *during* recovery simply replays the
        same prefix again on the next open — the ``recovery.replay``
        failpoint (hit once per committed batch) exists exactly to prove
        that in tests.
        """
        replayed = 0
        for payloads in self.wal.replay():
            if self._failpoints is not None:
                fault = self._failpoints.hit("recovery.replay")
                if fault is not None:
                    fault.raise_fault()
            self._enqueue(operations_from_payloads(payloads))
            replayed += 1
            if self._backlog_batches >= CATCH_UP_BATCHES:
                self._catch_up()
        self.stats.batches_replayed = replayed
        if replayed:
            self.checkpoint()
