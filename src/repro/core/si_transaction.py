"""Snapshot-isolation transactions.

A :class:`SnapshotTransaction` reads from the snapshot taken at its start
timestamp (the read rule), keeps its uncommitted writes in a private write
set (read-your-own-writes without exposing uncommitted data to others), and
checks the write rule on every first update of an entity (first-updater-wins,
via the engine's write-rule policy).  The write set, its overlay on point
reads, scans, index results and adjacency lists, and commit/rollback are the
shared :class:`~repro.engine.EngineTransaction` skeleton; this class supplies
the snapshot read of committed state under it.

Unlike the read-committed transaction it never takes read locks: the paper
removes Neo4j's short read locks entirely because the version chains make
them unnecessary.

A transaction holds no copy of anything it read.  A committed read is a pure
function of ``(key, start_ts)`` over a version chain, so repeatability comes
from the read rule itself and read-your-own-writes from overlaying the
private write set on every answer; neither needs a memo.  What this layer
keeps is *bookkeeping* — the write set and, for tracked serializable
transactions, the SIREAD/predicate registration done in :meth:`_note_reads`
before the engine is asked.  Resolved payloads live only in the engine's
shared, stamp-validated payload cache (:mod:`repro.core.si_manager`); an
adjacency is read from the versioned adjacency index at the snapshot, which
needs no cache at all.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.snapshot import Snapshot
from repro.engine import EngineTransaction
from repro.graph.entity import REL_TAG, Direction, EntityKey, NodeData, RelationshipData


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

    @property
    def start_ts(self) -> int:
        """Start timestamp of this transaction's snapshot."""
        return self.snapshot.start_ts

    # ------------------------------------------------------------------
    # reads (read rule + read-your-own-writes)
    # ------------------------------------------------------------------

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

    def _read_committed(self, keys: Sequence[EntityKey]) -> List[Optional[object]]:
        """The read rule over one batch: register the reads, then resolve
        every key against the snapshot in one engine-level pass.  Own-write
        reads never reach this method and correctly register nothing."""
        self._note_reads(keys)
        return self._engine.read_committed_versions(keys, self.snapshot.start_ts)

    # -- traversal reads -------------------------------------------------------------

    def _committed_topology_many(
        self,
        node_ids: Sequence[int],
        direction: Direction,
        wanted_types: Optional[FrozenSet[str]],
    ) -> List[List[Tuple[int, int]]]:
        """The relation at the snapshot, straight from the versioned
        adjacency index: no relationship version is resolved.

        The one read reported is the ``("adjacency", node)`` predicate per
        node — a concurrent committer attaching or detaching a relationship
        here forms an rw edge with it, and a relationship property update,
        which cannot change the answer, does not.
        """
        if self._track_reads or self._pending_reader is not None:
            self._note_reads(predicates=[("adjacency", node_id) for node_id in node_ids])
        return self._engine.indexes.adjacency.visible_many(
            node_ids, self.snapshot.start_ts, direction, wanted_types
        )

    def _committed_labelled_many(
        self, node_ids: Sequence[int], labels: FrozenSet[str]
    ) -> List[bool]:
        """Label membership at the snapshot, straight from the versioned
        label index: no node version is resolved.

        The reads reported are the node keys themselves — what reading the
        states would register — so a concurrent relabel or delete forms the
        same rw edge with this check as with a state read.
        """
        if self._track_reads or self._pending_reader is not None:
            self._note_reads(node_ids)
        carries_many = self._engine.indexes.node_labels.carries_many
        first, *rest = labels
        result = carries_many(first, node_ids, self._index_ts)
        for label in rest:
            result = [
                both and this
                for both, this in zip(result, carries_many(label, node_ids, self._index_ts))
            ]
        return result

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
        self._register_write(node_id, create=False)  # a node's key is its id
        self._writes[node_id] = None

    def delete_relationship(self, rel_id: int) -> None:
        self.ensure_open()
        self._check_writable()
        key = REL_TAG | rel_id
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
    # read-path introspection
    # ------------------------------------------------------------------

    def snapshot_cache_stats(self) -> Dict[str, int]:
        """Hits and misses of the per-snapshot adjacency cache, which is
        gone: expands read the versioned adjacency index, so both are 0.
        Kept so that callers of the earlier read-path statistics still run."""
        return {"hits": 0, "misses": 0}
