"""Snapshot-isolation transactions.

A :class:`SnapshotTransaction` reads from the snapshot taken at its start
timestamp (the read rule), keeps its uncommitted writes in a private write
set (read-your-own-writes without exposing uncommitted data to others), and
checks the write rule on every first update of an entity (first-updater-wins,
via the engine's write-rule policy).  The write set, its overlay on index
results and adjacency lists, and commit/rollback are the shared
:class:`~repro.engine.EngineTransaction` skeleton.

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

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.snapshot import Snapshot
from repro.core.versioned_iterator import SnapshotIterator
from repro.engine import EngineTransaction
from repro.graph.entity import EntityKey, NodeData, RelationshipData


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
        super().__init__(engine, snapshot.txn_id, read_only=read_only)
        self.snapshot = snapshot
        self._index_ts = snapshot.start_ts
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
        #: Number of reads served (used by experiments).
        self.reads_performed = 0
        #: This transaction's lookups in the engine's shared adjacency
        #: entries (surfaced by :meth:`snapshot_cache_stats`).
        self.snapshot_cache_hits = 0
        self.snapshot_cache_misses = 0

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
