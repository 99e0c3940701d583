"""Store manager: the logical face of the persistent store.

Everything above this module (transaction managers, indexes, the MVCC layer)
speaks :class:`~repro.graph.entity.NodeData` and
:class:`~repro.graph.entity.RelationshipData`; this module translates those
logical entities into record writes across the node, relationship, property,
dynamic and token stores, keeps each node's count of relationships (the guard
against deleting a node a relationship still names), logs every mutation to
the write-ahead log, and replays the log on startup.

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
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    ConstraintViolationError,
    NodeNotFoundError,
    RelationshipNotFoundError,
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


class StoreManagerStats:
    """Mutation counters used by the persistence experiment (E8) and tests."""

    def __init__(self) -> None:
        self.node_writes = 0
        self.relationship_writes = 0
        self.node_deletes = 0
        self.relationship_deletes = 0
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
            "batches_applied": self.batches_applied,
            "batches_replayed": self.batches_replayed,
            "entity_writes": self.entity_writes(),
            "group_flushes": self.group_flushes,
            "group_batches": self.group_batches,
            "group_max_coalesced": self.group_max_coalesced,
        }


class _PendingCommit:
    """One committer's batch on its way to the log and the record stores."""

    __slots__ = ("txn_id", "operations", "done", "error", "apply_seconds")

    def __init__(self, txn_id: int, operations: List[StoreOperation]) -> None:
        self.txn_id = txn_id
        self.operations = operations
        #: Set, under the store latch, once the batch was flushed (or failed);
        #: a group-commit follower reads it after taking the latch.
        self.done = False
        self.error: Optional[BaseException] = None
        #: Time its operations took to reach the record stores.
        self.apply_seconds = 0.0


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
        """Flush all dirty pages, persist the checkpoint marker, reset the WAL.

        The three steps are strictly ordered so that a crash at *any* point
        is repaired by WAL replay on the next open:

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
    # batched application (the commit path)
    # ------------------------------------------------------------------

    def apply_batch(self, txn_id: int, operations: List[StoreOperation]) -> float:
        """Log and apply one committed transaction's store operations.

        Returns the seconds the record-store apply of this batch took (the
        part of the call that is neither the WAL append nor a latch wait).

        The write-ahead log entry is appended before any store file is
        touched, so a crash in the middle of application is repaired by
        replay on the next open.

        Without group commit each batch takes the store latch on its own.
        With group commit the batch joins the pending queue; the first
        committer through the latch flushes the entire queue (its own batch
        included) and later committers find their entry already flushed.
        """
        if not operations:
            return 0.0
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
        return entry.apply_seconds

    def _flush_batches(self, batch: List[_PendingCommit]) -> None:
        """Apply a group of batches under the store latch (caller holds it).

        Never raises directly: failures are recorded per entry and re-raised
        in each owning committer's thread, so every follower finds its entry
        done.  A failed WAL append fails the whole group
        (nothing was made durable).  After a durable append the batches are
        independent: each one is applied regardless of another batch's apply
        failure and is attributed only its own error — skipping an innocent
        follower's operations would leave the store behind its own durable
        log entry.  As in the seed's single-batch path, an apply failure
        after the durable append leaves the store to be repaired by WAL
        replay on the next open.

        Unrecoverable failures additionally flip the engine into degraded
        read-only mode: a failed WAL append after the retry budget (or a
        simulated crash) means durability can no longer be promised, and a
        failed store apply after a *durable* append means a later checkpoint
        would truncate operations out of the log that never reached the
        store files.  Either way the safe continuation is "stop writing,
        keep serving snapshot reads, repair by replay on the next open".
        """
        obs = self.obs
        try:
            if self._failpoints is not None:
                fault = self._failpoints.hit("store.group_flush")
                if fault is not None:
                    fault.raise_fault()
            encoded = [
                (entry.txn_id, [operation.encode() for operation in entry.operations])
                for entry in batch
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
                entry.error = exc
                entry.done = True
            return
        for entry in batch:
            apply_started = perf_counter()
            try:
                for operation in entry.operations:
                    self._apply_operation(operation)
                self.stats.batches_applied += 1
            except BaseException as exc:  # noqa: BLE001 - re-raised in the owner
                self.health.mark_degraded("store-apply-failed", exc)
                self._note_degraded_obs()
                entry.error = exc
            entry.apply_seconds = perf_counter() - apply_started
            if obs is not None:
                obs.store_apply_seconds.observe(entry.apply_seconds)
            entry.done = True
        # An in-memory log can never be replayed: once its batches are in
        # the stores, its bytes are dead weight.
        if self._path is None:
            self.wal.forget()

    def _apply_operation(self, operation: StoreOperation) -> None:
        """Apply one logged operation (caller holds the store latch)."""
        if isinstance(operation, WriteNodeOp):
            self._write_node(operation.node, operation.commit_ts)
        elif isinstance(operation, DeleteNodeOp):
            self._delete_node(operation.node_id, missing_ok=True)
        elif isinstance(operation, WriteRelationshipOp):
            self._write_relationship(operation.relationship, operation.commit_ts)
        elif isinstance(operation, DeleteRelationshipOp):
            self._delete_relationship(operation.rel_id, missing_ok=True)
        else:  # pragma: no cover - exhaustive over StoreOperation
            raise TypeError(f"unknown store operation {operation!r}")

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------

    def write_node(self, node: NodeData) -> None:
        """Log, then create or overwrite, a node's persistent state."""
        with self._lock:
            self.wal.append_commit(0, [WriteNodeOp(node).encode()])
            self._write_node(node, None)

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

    def delete_node(self, node_id: int, *, missing_ok: bool = False) -> None:
        """Log, then delete, a node's persistent state.

        The node must have no relationships left in the store; higher layers
        are responsible for detach semantics.
        """
        with self._lock:
            self._delete_node(node_id, missing_ok=missing_ok, log=True)

    def _delete_node(self, node_id: int, *, missing_ok: bool, log: bool = False) -> None:
        """Delete a node's persistent state (caller holds the latch); with
        ``log``, append the delete to the log once it is known to apply."""
        if not self.nodes.exists(node_id):
            if missing_ok:
                return
            raise NodeNotFoundError(node_id)
        record = self.nodes.read(node_id)
        if record.rel_count:
            raise ConstraintViolationError(
                f"node {node_id} still has relationships in the store"
            )
        if log:
            self.wal.append_commit(0, [DeleteNodeOp(node_id).encode()])
        self.nodes.free_labels(record.label_ref)
        self.properties.free_chain(record.first_prop)
        self.nodes.delete(node_id)
        self.stats.node_deletes += 1

    def node_exists(self, node_id: int) -> bool:
        """Whether the persistent store holds a node with this id."""
        with self._lock:
            return self.nodes.exists(node_id)

    def iter_node_ids(self) -> Iterator[int]:
        """Node ids present in the persistent store, in id order."""
        with self._lock:
            ids = list(self.nodes.iter_used_ids())
        return iter(ids)

    def iter_nodes(self) -> Iterator[NodeData]:
        """Persistent node states, in id order."""
        for node_id in self.iter_node_ids():
            node = self.read_node(node_id)
            if node is not None:
                yield node

    def node_count(self) -> int:
        """Number of nodes in the persistent store: a kept count, read
        without the latch (one int; the planner's estimate, not a census)."""
        return self.nodes.count()

    # ------------------------------------------------------------------
    # relationships
    # ------------------------------------------------------------------

    def write_relationship(self, relationship: RelationshipData) -> None:
        """Log, then create or overwrite, a relationship's persistent state."""
        with self._lock:
            self.wal.append_commit(0, [WriteRelationshipOp(relationship).encode()])
            self._write_relationship(relationship, None)

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

    def delete_relationship(self, rel_id: int, *, missing_ok: bool = False) -> None:
        """Log, then delete, a relationship."""
        with self._lock:
            self._delete_relationship(rel_id, missing_ok=missing_ok, log=True)

    def _delete_relationship(
        self, rel_id: int, *, missing_ok: bool, log: bool = False
    ) -> None:
        """Delete a relationship (caller holds the latch); ``log`` as for
        :meth:`_delete_node`."""
        if not self.relationships.exists(rel_id):
            if missing_ok:
                return
            raise RelationshipNotFoundError(rel_id)
        if log:
            self.wal.append_commit(0, [DeleteRelationshipOp(rel_id).encode()])
        record = self.relationships.read(rel_id)
        for node_id in {record.start_node, record.end_node}:
            self._add_to_rel_count(node_id, -1)
        self.properties.free_chain(record.first_prop)
        self.relationships.delete(rel_id)
        self.stats.relationship_deletes += 1

    def iter_relationship_ids(self) -> Iterator[int]:
        """Relationship ids present in the persistent store, in id order."""
        with self._lock:
            ids = list(self.relationships.iter_used_ids())
        return iter(ids)

    def iter_relationships(self) -> Iterator[RelationshipData]:
        """Persistent relationship states, in id order."""
        for rel_id in self.iter_relationship_ids():
            relationship = self.read_relationship(rel_id)
            if relationship is not None:
                yield relationship

    def relationship_count(self) -> int:
        """Number of relationships in the persistent store (as
        :meth:`node_count`)."""
        return self.relationships.count()

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

        Replay is idempotent (writes overwrite, deletes tolerate absence), so
        a crash *during* recovery simply replays the same prefix again on the
        next open — the ``recovery.replay`` failpoint (hit once per committed
        batch) exists exactly to prove that in tests.
        """
        replayed = 0
        for payloads in self.wal.replay():
            if self._failpoints is not None:
                fault = self._failpoints.hit("recovery.replay")
                if fault is not None:
                    fault.raise_fault()
            operations = operations_from_payloads(payloads)
            for operation in operations:
                self._apply_operation(operation)
            replayed += 1
        self.stats.batches_replayed = replayed
        if replayed:
            self.checkpoint()
