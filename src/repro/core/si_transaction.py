"""Snapshot-isolation transactions.

A :class:`SnapshotTransaction` reads from the snapshot taken at its start
timestamp (the read rule), keeps its uncommitted writes in a private write
set (read-your-own-writes without exposing uncommitted data to others), and
checks the write rule on every first update of an entity (first-updater-wins,
via the engine's conflict detector).

Unlike the read-committed transaction it never takes read locks: the paper
removes Neo4j's short read locks entirely because the version chains make
them unnecessary.

A transaction holds no copy of anything it read.  A committed read is a pure
function of ``(key, start_ts)`` over a version chain, so repeatability comes
from the read rule itself and read-your-own-writes from overlaying the
private write set on every answer; neither needs a memo.  What this layer
keeps is *bookkeeping* — the write set and, for tracked serializable
transactions, the SIREAD/predicate registration done in :meth:`_note_reads`
before the engine is asked.  *Resolved state* (payloads and per-node
adjacency lists) lives only in the engine's shared, stamp-validated cache
(:mod:`repro.core.si_manager`), under one validity rule for every
transaction and isolation level.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.snapshot import Snapshot
from repro.core.versioned_iterator import SnapshotIterator
from repro.engine import EngineTransaction, TransactionState
from repro.errors import ReadOnlyTransactionError, classify_abort
from repro.graph.entity import (
    Direction,
    EntityKey,
    EntityKind,
    NodeData,
    RelationshipData,
)
from repro.graph.properties import PropertyValue
from repro.index.property_index import hashable_value


class SnapshotTransaction(EngineTransaction):
    """One transaction running under the snapshot-isolation engine."""

    def __init__(
        self,
        engine,
        snapshot: Snapshot,
        *,
        read_only: bool = False,
        cc_record=None,
        safe_snapshot=None,
    ) -> None:
        super().__init__(snapshot.txn_id, read_only=read_only)
        self._engine = engine
        self.snapshot = snapshot
        #: Concurrency-control record (SSI tracking; ``None`` under plain SI
        #: and for read-only serializable transactions, which register no
        #: reads and can never be aborted).
        self.cc_record = cc_record
        self._cc = engine.cc
        self._track_reads = cc_record is not None and self._cc.tracks_reads
        #: Commit timestamp, set by the engine once a versioned commit
        #: publishes (``None`` for writeless or uncommitted transactions).
        #: Experiments and the history-recording test harness read it.
        self.commit_ts: Optional[int] = None
        #: Safe-snapshot handle (read-only serializable transactions whose
        #: snapshot is not yet proven safe).  While present, reads are
        #: buffered locally so a forced upgrade can register them
        #: retroactively; once the snapshot resolves safe the handle is
        #: dropped and the read path pays nothing again.
        self.safe_snapshot = safe_snapshot
        self._pending_reader = safe_snapshot
        #: Private uncommitted versions: entity key -> new state (None = delete).
        self._writes: Dict[EntityKey, Optional[object]] = {}
        #: Keys created by this transaction (no committed predecessor).
        self._created: Set[EntityKey] = set()
        #: Number of reads served (used by experiments).
        self.reads_performed = 0
        #: This transaction's lookups in the engine's shared adjacency
        #: entries (surfaced by :meth:`snapshot_cache_stats`).
        self.snapshot_cache_hits = 0
        self.snapshot_cache_misses = 0
        #: Observability trace (set by the engine for sampled transactions).
        self.trace = None
        #: Classified cause when :meth:`commit` aborts (``None`` for explicit
        #: rollbacks); feeds the labelled abort counter and the trace.
        self.abort_reason: Optional[str] = None

    @property
    def start_ts(self) -> int:
        """Start timestamp of this transaction's snapshot."""
        return self.snapshot.start_ts

    # ------------------------------------------------------------------
    # reads (read rule + read-your-own-writes)
    # ------------------------------------------------------------------

    def _resolve(self, key: EntityKey) -> Optional[object]:
        """Read path shared by point reads, scans and index lookups.

        Own writes win; everything else is the committed state the snapshot
        selects.
        """
        self.reads_performed += 1
        if key in self._writes:
            return self._writes[key]
        return self._resolve_committed(key)

    def _note_reads(
        self,
        keys: Sequence[EntityKey] = (),
        predicates: Sequence[tuple] = (),
    ) -> None:
        """The one read-bookkeeping site: every committed-state read — point
        read, scan, index lookup, traversal level — reports the entity keys
        it resolved and the predicates it evaluated here, once per batch.

        Plain snapshot readers (and serializable read-only transactions whose
        snapshot was safe from birth) return after two attribute tests.  A
        tracked transaction registers the batch as SIREADs / predicate reads
        in one tracker-mutex visit.  Predicates — label scans, property
        lookups, type scans, whole-store iterations, adjacency expansions —
        are what catch phantoms: a concurrent committer whose change moves an
        entity into or out of one forms an rw-antidependency with this
        transaction even though no common entity was point-read.

        A *pending* safe-snapshot reader buffers the batch in its handle's
        local record (plain set updates, touched only by this thread, so the
        path stays mutex-free).  When the census drains the handle flips safe
        and is dropped here; when a writer was aborted on this reader's
        behalf the handle demands an upgrade, after which every buffered and
        future read is registered for real so later committers get precise
        conflict checks.  The handle is read once per call: another thread
        flipping it safe mid-batch cannot leave a half-handled batch.
        """
        if self._track_reads:
            self._cc.register_reads(self.cc_record, keys, predicates)
            return
        handle = self._pending_reader
        if handle is None:
            return
        if handle.safe and not handle.upgraded:
            self._pending_reader = None
            return
        if handle.upgrade_required and not handle.upgraded:
            self._cc.upgrade_reader(handle)
        if handle.upgraded:
            self._cc.register_reads(handle.record, keys, predicates)
        else:
            handle.record.read_keys.update(keys)
            handle.record.predicates.update(predicates)

    def _resolve_committed(self, key: EntityKey) -> Optional[object]:
        """Committed-state resolution: register the read, then apply the
        engine's read rule.

        Shared by point reads (:meth:`_resolve`, after the own-writes check)
        and scans.  Own-write reads never reach this method and correctly
        register nothing.
        """
        self._note_reads((key,))
        return self._engine.read_committed_version(key, self.snapshot.start_ts)

    # -- batch reads (vectorized executor) -----------------------------------

    def _resolve_many(self, keys: Sequence[EntityKey]) -> List[Optional[object]]:
        """Batch form of :meth:`_resolve`: own writes overlaid, then one
        batched committed-state resolution for everything else."""
        self.reads_performed += len(keys)
        writes = self._writes
        if not writes:
            return self._resolve_committed_many(keys)
        resolved: List[Optional[object]] = [None] * len(keys)
        committed_keys: List[EntityKey] = []
        committed_indexes: List[int] = []
        for index, key in enumerate(keys):
            if key in writes:
                resolved[index] = writes[key]
            else:
                committed_indexes.append(index)
                committed_keys.append(key)
        if committed_keys:
            for index, value in zip(
                committed_indexes, self._resolve_committed_many(committed_keys)
            ):
                resolved[index] = value
        return resolved

    def _resolve_committed_many(self, keys: Sequence[EntityKey]) -> List[Optional[object]]:
        """Batch committed-state resolution: the whole batch pays one read
        registration and one engine-level chain-resolution pass — the same
        SIREADs as :meth:`_resolve_committed` per key, just amortised."""
        self._note_reads(keys)
        return self._engine.read_committed_versions(keys, self.snapshot.start_ts)

    def read_nodes_many(self, node_ids: Sequence[int]) -> List[Optional[NodeData]]:
        self.ensure_open()
        resolved = self._resolve_many([EntityKey.node(i) for i in node_ids])
        return [
            value if isinstance(value, NodeData) else None for value in resolved
        ]

    def read_relationships_many(
        self, rel_ids: Sequence[int]
    ) -> List[Optional[RelationshipData]]:
        self.ensure_open()
        resolved = self._resolve_many(
            [EntityKey.relationship(i) for i in rel_ids]
        )
        return [
            value if isinstance(value, RelationshipData) else None
            for value in resolved
        ]

    def read_node(self, node_id: int) -> Optional[NodeData]:
        self.ensure_open()
        resolved = self._resolve(EntityKey.node(node_id))
        return resolved if isinstance(resolved, NodeData) else None

    def read_relationship(self, rel_id: int) -> Optional[RelationshipData]:
        self.ensure_open()
        resolved = self._resolve(EntityKey.relationship(rel_id))
        return resolved if isinstance(resolved, RelationshipData) else None

    def iter_nodes(self) -> Iterator[NodeData]:
        self.ensure_open()
        self._note_reads(predicates=(("all_nodes",),))
        return self._iterator().nodes()

    def iter_relationships(self) -> Iterator[RelationshipData]:
        self.ensure_open()
        self._note_reads(predicates=(("all_rels",),))
        return self._iterator().relationships()

    def _iterator(self) -> SnapshotIterator:
        return SnapshotIterator(
            self._engine.store,
            self._engine.versions,
            resolver=self._resolve,
            own_writes=self._writes,
        )

    # -- index-backed predicate reads ---------------------------------------------

    def find_nodes_by_label(self, label: str) -> Set[int]:
        self.ensure_open()
        self._note_reads(predicates=(("label", label),))
        return self._nodes_with_label(label)

    def find_nodes_by_property(self, key: str, value: PropertyValue) -> Set[int]:
        self.ensure_open()
        self._note_reads(predicates=(("node_prop", key, hashable_value(value)),))
        return self._nodes_with_property(key, value)

    def node_seek_candidates(
        self, label: str, key: str, value: PropertyValue
    ) -> Set[int]:
        self.ensure_open()
        self._note_reads(
            predicates=(("label", label), ("node_prop", key, hashable_value(value)))
        )
        engine = self._engine
        if engine.count_nodes_with_label(label) <= engine.count_nodes_with_property(
            key, value
        ):
            return self._nodes_with_label(label)
        return self._nodes_with_property(key, value)

    def find_relationships_by_property(self, key: str, value: PropertyValue) -> Set[int]:
        self.ensure_open()
        self._note_reads(predicates=(("rel_prop", key, hashable_value(value)),))
        return self._relationships_with_property(key, value)

    def find_relationships_by_type(self, rel_type: str) -> Set[int]:
        """Ids of visible relationships of ``rel_type`` (snapshot-consistent)."""
        self.ensure_open()
        self._note_reads(predicates=(("rel_type", rel_type),))
        return self._relationships_of_type(rel_type)

    def relationship_seek_candidates(
        self, rel_type: str, key: str, value: PropertyValue
    ) -> Set[int]:
        self.ensure_open()
        self._note_reads(
            predicates=(("rel_type", rel_type), ("rel_prop", key, hashable_value(value)))
        )
        engine = self._engine
        if engine.count_relationships_of_type(
            rel_type
        ) <= engine.count_relationships_with_property(key, value):
            return self._relationships_of_type(rel_type)
        return self._relationships_with_property(key, value)

    # One index entry at this snapshot with the private write set overlaid;
    # the callers above have registered the predicate(s) being evaluated.

    def _nodes_with_label(self, label: str) -> Set[int]:
        result = self._engine.indexes.node_labels.visible(label, self.snapshot.start_ts)
        return self._overlay_nodes(result, lambda node: label in node.labels)

    def _nodes_with_property(self, key: str, value: PropertyValue) -> Set[int]:
        result = self._engine.indexes.node_properties.visible(
            key, value, self.snapshot.start_ts
        )
        return self._overlay_nodes(result, lambda node: node.properties.get(key) == value)

    def _relationships_with_property(self, key: str, value: PropertyValue) -> Set[int]:
        result = self._engine.indexes.relationship_properties.visible(
            key, value, self.snapshot.start_ts
        )
        return self._overlay_relationships(
            result, lambda rel: rel.properties.get(key) == value
        )

    def _relationships_of_type(self, rel_type: str) -> Set[int]:
        result = self._engine.indexes.relationship_types.visible(
            rel_type, self.snapshot.start_ts
        )
        return self._overlay_relationships(result, lambda rel: rel.rel_type == rel_type)

    def _overlay_nodes(self, result: Set[int], predicate) -> Set[int]:
        """Overlay the private write set onto an index lookup result."""
        for key, data in self._writes.items():
            if key.kind is not EntityKind.NODE:
                continue
            if data is None:
                result.discard(key.entity_id)
            elif predicate(data):
                result.add(key.entity_id)
            else:
                result.discard(key.entity_id)
        return result

    def _overlay_relationships(self, result: Set[int], predicate) -> Set[int]:
        for key, data in self._writes.items():
            if key.kind is not EntityKind.RELATIONSHIP:
                continue
            if data is None:
                result.discard(key.entity_id)
            elif predicate(data):
                result.add(key.entity_id)
            else:
                result.discard(key.entity_id)
        return result

    # -- traversal reads -------------------------------------------------------------

    def _committed_adjacency_many(
        self, node_ids: Sequence[int]
    ) -> List[Tuple[RelationshipData, ...]]:
        """Snapshot-visible committed relationships of each node, by rel id.

        A resolved list is a pure function of (node, snapshot): a candidate
        added to the global adjacency index by a later committer resolves to
        a version newer than this snapshot (invisible), and GC never reclaims
        a version an active snapshot can still select.  So it is served from
        the engine's shared entry for the node — payloads + the SIREAD keys
        that reading them implies; valid iff ``built_ts <= S`` and the node's
        stamp ``<= built_ts`` — or by resolving every adjacency candidate,
        which publishes such an entry.

        Hit or miss, the reads reported are the same: the key of every
        candidate relationship plus the ``("adjacency", node)`` predicate (a
        concurrent committer attaching or detaching a relationship here must
        form an rw edge even though the new relationship id was never
        point-read) — in one bookkeeping visit for the whole batch.
        """
        if not node_ids:
            return []
        engine = self._engine
        start_ts = self.snapshot.start_ts
        results: List[Optional[Tuple[RelationshipData, ...]]] = [None] * len(node_ids)
        read_keys: List[EntityKey] = []
        misses: List[Tuple[int, int, Tuple[EntityKey, ...]]] = []
        cached_adjacency = engine.cached_committed_adjacency
        candidate_rel_ids = engine.indexes.adjacency.candidate_rel_ids
        for index, node_id in enumerate(node_ids):
            shared = cached_adjacency(node_id, start_ts)
            if shared is None:
                candidates = tuple(
                    EntityKey.relationship(rel_id)
                    for rel_id in sorted(candidate_rel_ids(node_id))
                )
                misses.append((index, node_id, candidates))
            else:
                adjacency, candidates = shared
                self.reads_performed += len(adjacency)
                results[index] = adjacency
            read_keys.extend(candidates)
        self.snapshot_cache_misses += len(misses)
        self.snapshot_cache_hits += len(node_ids) - len(misses)
        self._note_reads(
            read_keys, [("adjacency", node_id) for node_id in node_ids]
        )
        if misses:
            resolved = engine.read_committed_versions(
                [key for _index, _node_id, candidates in misses for key in candidates],
                start_ts,
            )
            cursor = 0
            for index, node_id, candidates in misses:
                count = len(candidates)
                adjacency = tuple(
                    payload
                    for payload in resolved[cursor:cursor + count]
                    if isinstance(payload, RelationshipData)
                )
                cursor += count
                self.reads_performed += count
                results[index] = adjacency
                engine.store_adjacency_entry(node_id, start_ts, adjacency, candidates)
        return results  # type: ignore[return-value]

    def _overlay_and_filter(
        self,
        node_id: int,
        committed: Tuple[RelationshipData, ...],
        direction: Direction,
        wanted_types: Optional[Set[str]],
    ) -> List[RelationshipData]:
        """Write-set overlay + direction/type filter of one adjacency list."""
        # Overlay the private write set: relationship endpoints are immutable,
        # so an own write either replaces a committed entry (property update),
        # adds a new one (create) or removes one (delete).
        relationships: Sequence[RelationshipData] = committed
        if self._writes:
            merged: Dict[int, RelationshipData] = {
                relationship.rel_id: relationship for relationship in committed
            }
            changed = False
            for key, data in self._writes.items():
                if key.kind is not EntityKind.RELATIONSHIP:
                    continue
                if data is None:
                    if merged.pop(key.entity_id, None) is not None:
                        changed = True
                elif data.touches(node_id):
                    merged[key.entity_id] = data
                    changed = True
            if changed:
                relationships = [merged[rel_id] for rel_id in sorted(merged)]
        # Adjacency candidates always touch the node, so BOTH never filters
        # on direction — skip the per-relationship endpoint checks.
        if direction is Direction.BOTH:
            if wanted_types is None:
                return list(relationships)
            return [
                relationship
                for relationship in relationships
                if relationship.rel_type in wanted_types
            ]
        result: List[RelationshipData] = []
        for relationship in relationships:
            if not direction.matches(node_id, relationship.start_node, relationship.end_node):
                continue
            if wanted_types is not None and relationship.rel_type not in wanted_types:
                continue
            result.append(relationship)
        return result

    def relationships_of(
        self,
        node_id: int,
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[RelationshipData]:
        return self.relationships_of_many((node_id,), direction, rel_types)[0]

    def relationships_of_many(
        self,
        node_ids: Sequence[int],
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[List[RelationshipData]]:
        """Visible relationships of each node, resolved as one batch: the
        write-set overlay and the direction/type filter applied to each
        node's committed list (see :meth:`_committed_adjacency_many`)."""
        self.ensure_open()
        wanted_types = set(rel_types) if rel_types else None
        return [
            self._overlay_and_filter(node_id, committed, direction, wanted_types)
            for node_id, committed in zip(
                node_ids, self._committed_adjacency_many(node_ids)
            )
        ]

    # ------------------------------------------------------------------
    # writes (write rule, first-updater-wins)
    # ------------------------------------------------------------------

    def put_node(self, node: NodeData, *, create: bool = False) -> None:
        self.ensure_open()
        self._check_writable()
        key = node.key
        self._register_write(key, create=create)
        self._writes[key] = node

    def put_relationship(self, relationship: RelationshipData, *, create: bool = False) -> None:
        self.ensure_open()
        self._check_writable()
        key = relationship.key
        self._register_write(key, create=create)
        self._writes[key] = relationship

    def delete_node(self, node_id: int) -> None:
        self.ensure_open()
        self._check_writable()
        key = EntityKey.node(node_id)
        self._register_write(key, create=False)
        self._writes[key] = None

    def delete_relationship(self, rel_id: int) -> None:
        self.ensure_open()
        self._check_writable()
        key = EntityKey.relationship(rel_id)
        self._register_write(key, create=False)
        self._writes[key] = None

    def _register_write(self, key: EntityKey, *, create: bool) -> None:
        """First-updater-wins check on the first write of each entity."""
        if key in self._writes:
            return
        if create:
            self._created.add(key)
            # A brand-new entity cannot conflict: its id has never been
            # visible to any other transaction.
            return
        self._engine.check_write_conflict(self, key)

    def _check_writable(self) -> None:
        if self.read_only:
            raise ReadOnlyTransactionError(
                f"transaction {self.txn_id} was opened read-only"
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def commit(self) -> None:
        self.ensure_open()
        try:
            self._engine.commit_transaction(self)
            self.state = TransactionState.COMMITTED
        except BaseException as exc:
            self.abort_reason = classify_abort(exc)
            self._engine.abort_transaction(self)
            self.state = TransactionState.ABORTED
            raise

    def rollback(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            return
        self._engine.abort_transaction(self)
        self.state = TransactionState.ABORTED

    # ------------------------------------------------------------------
    # commit support (used by the engine)
    # ------------------------------------------------------------------

    def pending_writes(self) -> Dict[EntityKey, Optional[object]]:
        """The private write set (key -> new state, ``None`` for deletes)."""
        return dict(self._writes)

    def created_keys(self) -> Set[EntityKey]:
        """Keys of entities created by this transaction."""
        return set(self._created)

    def has_writes(self) -> bool:
        """Whether the transaction buffered any write."""
        return bool(self._writes)

    # ------------------------------------------------------------------
    # shared-cache introspection
    # ------------------------------------------------------------------

    def snapshot_cache_stats(self) -> Dict[str, int]:
        """How many of this transaction's adjacency lookups the engine's
        shared entries answered (``hits``) or had to resolve (``misses``)."""
        return {
            "hits": self.snapshot_cache_hits,
            "misses": self.snapshot_cache_misses,
        }
