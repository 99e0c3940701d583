"""Common engine interface implemented by both concurrency-control engines.

The repository ships two transaction engines over the same storage substrate:

* :class:`repro.locking.rc_manager.ReadCommittedEngine` — Neo4j's stock
  behaviour (short read locks, long write locks), which exhibits unrepeatable
  and phantom reads, and
* :class:`repro.core.si_manager.SnapshotIsolationEngine` — the paper's
  multi-version concurrency control providing snapshot isolation.

Both run over one substrate: the record store, the lock manager and the
multi-versioned indexes of :mod:`repro.core.versioned_index`.  They differ
only in the control layer — short shared read locks and in-place apply
against version chains, a snapshot read rule and commit validation.  The
classes in this module hold everything else once: the write set and its
overlay on point reads, batch reads, scans and index results, the committed
ids scans enumerate, commit/rollback, the smaller-entry seek choice, index
cardinalities, id allocation and abort accounting.  The public API
(:mod:`repro.api`) is written against them, so the two engines are
interchangeable and the same transaction bodies run under every isolation
level.
"""

from __future__ import annotations

import abc
import enum
import itertools
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ReadOnlyTransactionError, TransactionClosedError, classify_abort
from repro.graph.entity import (
    REL_TAG,
    Direction,
    EntityKey,
    EntityKind,
    NodeData,
    RelationshipData,
    key_id,
)
from repro.graph.properties import PropertyValue, hashable_value


class IsolationLevel(enum.Enum):
    """Isolation levels selectable when opening a database.

    ``SERIALIZABLE`` runs the same multi-version engine as ``SNAPSHOT`` with
    the Serializable Snapshot Isolation policy on top: reads stay lock-free
    against the transaction's snapshot, but rw-antidependencies are tracked
    and a transaction completing a dangerous structure is aborted with
    :class:`~repro.errors.SerializationError` — which closes the write-skew
    gap snapshot isolation is known for.  Read-only serializable
    transactions are gated by *safe snapshots* (PostgreSQL-style), closing
    the Fekete read-only-transaction anomaly without registering reads or
    ever aborting a reader.
    """

    READ_COMMITTED = "read_committed"
    SNAPSHOT = "snapshot"
    SERIALIZABLE = "serializable"


class TransactionState(enum.Enum):
    """Lifecycle states of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class EngineTransaction(abc.ABC):
    """Engine-level transaction: logical reads and buffered logical writes.

    The user-facing :class:`repro.api.transaction.Transaction` wraps one of
    these and adds graph-model validation (endpoint checks, detach-delete,
    property validation).  Engine transactions therefore only deal in whole
    :class:`~repro.graph.entity.NodeData` / ``RelationshipData`` states.

    A subclass supplies the committed side of every read — one batch read
    ``_read_committed``, one topology read ``_committed_topology_many`` and
    the commit point ``_index_ts`` that index lookups read at — and the
    write-time concurrency control; this class overlays the private write
    set on all of it.
    """

    #: Commit point the versioned indexes are read at: the snapshot under
    #: MVCC, the newest published commit under read committed.
    _index_ts: int

    def __init__(self, engine, txn_id: int, *, read_only: bool = False) -> None:
        self._engine = engine
        self.txn_id = txn_id
        self.read_only = read_only
        self.state = TransactionState.ACTIVE
        #: Buffered writes: entity key -> new state (``None`` buffers a delete).
        self._writes: Dict[EntityKey, Optional[object]] = {}
        #: Keys created by this transaction (no committed predecessor).
        self._created: Set[EntityKey] = set()
        #: Observability trace (set by the engine for sampled transactions).
        self.trace = None
        #: Classified cause when :meth:`commit` aborts (``None`` for explicit
        #: rollbacks); feeds the labelled abort counter and the trace.
        self.abort_reason: Optional[str] = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def is_open(self) -> bool:
        """Whether the transaction can still be used."""
        return self.state is TransactionState.ACTIVE

    def ensure_open(self) -> None:
        """Raise :class:`TransactionClosedError` unless the transaction is active."""
        if self.state is not TransactionState.ACTIVE:
            raise TransactionClosedError(
                f"transaction {self.txn_id} is {self.state.value}"
            )

    def commit(self) -> None:
        """Make the transaction's writes visible to others (or raise and abort)."""
        self.ensure_open()
        try:
            catch_up_due = self._engine.commit_transaction(self)
            self.state = TransactionState.COMMITTED
        except BaseException as exc:
            self.abort_reason = classify_abort(exc)
            self._engine.abort_transaction(self)
            self.state = TransactionState.ABORTED
            raise
        if catch_up_due:
            # Published and unlocked: the record stores catch up on this
            # thread.  A failure degrades the store and raises here; the
            # commit stands.
            self._engine.catch_up_store()

    def rollback(self) -> None:
        """Discard the transaction's writes."""
        if self.state is not TransactionState.ACTIVE:
            return
        self._engine.abort_transaction(self)
        self.state = TransactionState.ABORTED

    def _check_writable(self) -> None:
        if self.read_only:
            raise ReadOnlyTransactionError(
                f"transaction {self.txn_id} was opened read-only"
            )

    # -- commit support (used by the engine) ----------------------------------

    def created_keys(self) -> Set[EntityKey]:
        """Keys of entities created by this transaction."""
        return set(self._created)

    def has_writes(self) -> bool:
        """Whether the transaction buffered any write."""
        return bool(self._writes)

    def effective_writes(self) -> Dict[EntityKey, Optional[object]]:
        """The write set minus entities created and deleted by this transaction."""
        created = self._created
        return {
            key: payload
            for key, payload in self._writes.items()
            if not (payload is None and key in created)
        }

    # -- reads ----------------------------------------------------------------
    #
    # Every read shape — point, batch, whole-store scan — is the private
    # write set overlaid on one committed batch read, ``_read_committed``:
    # the paper's store iterator "enriched ... to guarantee
    # read-your-own-writes", written once for both engines.

    def _note_reads(
        self,
        keys: Sequence[EntityKey] = (),
        predicates: Sequence[tuple] = (),
    ) -> None:
        """Read bookkeeping for the committed-state reads of one batch; only
        a serializable transaction keeps any."""

    @abc.abstractmethod
    def _read_committed(self, keys: Sequence[EntityKey]) -> List[Optional[object]]:
        """The committed state of each key as this transaction reads it, in
        order (``None`` if absent or deleted): the one read of committed
        state, which own-write reads never reach."""

    def _read(self, keys: Sequence[EntityKey]) -> List[Optional[object]]:
        """The state of each key visible to this transaction: own writes
        win, and the rest is one committed batch."""
        writes = self._writes
        if not writes:
            return self._read_committed(keys)
        states: List[Optional[object]] = [None] * len(keys)
        committed_keys: List[EntityKey] = []
        committed_indexes: List[int] = []
        for index, key in enumerate(keys):
            if key in writes:
                states[index] = writes[key]
            else:
                committed_indexes.append(index)
                committed_keys.append(key)
        if committed_keys:
            for index, state in zip(
                committed_indexes, self._read_committed(committed_keys)
            ):
                states[index] = state
        return states

    def read_node(self, node_id: int) -> Optional[NodeData]:
        """The node state visible to this transaction, or ``None``."""
        return self.read_nodes_many((node_id,))[0]

    def read_relationship(self, rel_id: int) -> Optional[RelationshipData]:
        """The relationship state visible to this transaction, or ``None``."""
        return self.read_relationships_many((rel_id,))[0]

    def read_nodes_many(self, node_ids: Sequence[int]) -> List[Optional[NodeData]]:
        """The visible state of each node id, in order (``None`` if absent)."""
        self.ensure_open()
        # A node's key is its id.
        return self._read(node_ids)  # type: ignore[return-value]

    def read_relationships_many(
        self, rel_ids: Sequence[int]
    ) -> List[Optional[RelationshipData]]:
        """The visible state of each relationship id, in order."""
        self.ensure_open()
        return self._read(  # type: ignore[return-value]
            [REL_TAG | rel_id for rel_id in rel_ids]
        )

    def iter_nodes(self) -> Iterator[NodeData]:
        """Every node visible to this transaction (including its own writes)."""
        self.ensure_open()
        self._note_reads(predicates=(("all_nodes",),))
        return self._scan(EntityKind.NODE)

    def iter_relationships(self) -> Iterator[RelationshipData]:
        """Every relationship visible to this transaction."""
        self.ensure_open()
        self._note_reads(predicates=(("all_rels",),))
        return self._scan(EntityKind.RELATIONSHIP)

    def _scan(self, kind: EntityKind) -> Iterator:
        """Own writes of ``kind`` first, then every committed id they do not
        shadow, read ``query_batch_size`` keys at a time."""
        tag = REL_TAG if kind is EntityKind.RELATIONSHIP else 0
        seen: Set[int] = set()
        for key, state in list(self._writes.items()):
            if key & REL_TAG == tag:
                seen.add(key_id(key))
                if state is not None:
                    yield state
        engine = self._engine
        unshadowed = (
            tag | entity_id
            for entity_id in engine.committed_ids(kind)
            if entity_id not in seen
        )
        while True:
            chunk = list(itertools.islice(unshadowed, engine.query_batch_size))
            if not chunk:
                return
            for state in self._read(chunk):
                if state is not None:
                    yield state

    # -- index-backed predicate reads -------------------------------------------

    def find_nodes_by_label(self, label: str) -> Set[int]:
        """Ids of visible nodes carrying ``label``."""
        self.ensure_open()
        self._note_reads(predicates=(("label", label),))
        return self._nodes_with_label(label)

    def find_nodes_by_property(self, key: str, value: PropertyValue) -> Set[int]:
        """Ids of visible nodes with property ``key`` = ``value``."""
        self.ensure_open()
        self._note_reads(predicates=(("node_prop", key, hashable_value(value)),))
        return self._nodes_with_property(key, value)

    def find_relationships_by_property(self, key: str, value: PropertyValue) -> Set[int]:
        """Ids of visible relationships with property ``key`` = ``value``."""
        self.ensure_open()
        self._note_reads(predicates=(("rel_prop", key, hashable_value(value)),))
        return self._relationships_with_property(key, value)

    def find_relationships_by_type(self, rel_type: str) -> Set[int]:
        """Ids of visible relationships of type ``rel_type``."""
        self.ensure_open()
        self._note_reads(predicates=(("rel_type", rel_type),))
        return self._relationships_of_type(rel_type)

    def node_seek_candidates(
        self, label: str, key: str, value: PropertyValue
    ) -> Set[int]:
        """Candidate ids for "carries ``label`` *and* ``key`` = ``value``".

        The ids of whichever of the two index entries currently has fewer
        members — a superset of the matches; the caller checks both conjuncts
        on the node states it reads, so the larger entry is never
        materialised.  Both predicates count as read.
        """
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

    def relationship_seek_candidates(
        self, rel_type: str, key: str, value: PropertyValue
    ) -> Set[int]:
        """Candidate ids for "of ``rel_type`` *and* ``key`` = ``value``"
        (see :meth:`node_seek_candidates`)."""
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

    # One index entry at ``_index_ts`` with the private write set overlaid;
    # the callers above have noted the predicate(s) being evaluated.

    def _nodes_with_label(self, label: str) -> Set[int]:
        result = self._engine.indexes.node_labels.visible(label, self._index_ts)
        return self._overlay(result, EntityKind.NODE, lambda node: label in node.labels)

    def _nodes_with_property(self, key: str, value: PropertyValue) -> Set[int]:
        result = self._engine.indexes.node_properties.visible(key, value, self._index_ts)
        return self._overlay(
            result, EntityKind.NODE, lambda node: node.properties.get(key) == value
        )

    def _relationships_with_property(self, key: str, value: PropertyValue) -> Set[int]:
        result = self._engine.indexes.relationship_properties.visible(
            key, value, self._index_ts
        )
        return self._overlay(
            result, EntityKind.RELATIONSHIP, lambda rel: rel.properties.get(key) == value
        )

    def _relationships_of_type(self, rel_type: str) -> Set[int]:
        result = self._engine.indexes.relationship_types.visible(
            rel_type, self._index_ts
        )
        return self._overlay(
            result, EntityKind.RELATIONSHIP, lambda rel: rel.rel_type == rel_type
        )

    def _overlay(self, result: Set[int], kind: EntityKind, predicate) -> Set[int]:
        """Overlay the private writes of ``kind`` onto an index lookup result."""
        tag = REL_TAG if kind is EntityKind.RELATIONSHIP else 0
        for key, data in self._writes.items():
            if key & REL_TAG == tag:
                entity_id = key_id(key)
                if data is not None and predicate(data):
                    result.add(entity_id)
                else:
                    result.discard(entity_id)
        return result

    # -- traversal reads ---------------------------------------------------------
    #
    # A relationship's type and endpoints never change after its create, so
    # which relationships attach to a node is a question about the relation,
    # not about relationship versions: ``topology_many`` answers it with
    # ``(rel_id, other)`` pairs.  An expand that needs the relationships
    # themselves resolves only the pairs' keys (``relationships_of_many``).

    @abc.abstractmethod
    def _committed_topology_many(
        self,
        node_ids: Sequence[int],
        direction: Direction,
        wanted_types: Optional[FrozenSet[str]],
    ) -> List[List[Tuple[int, int]]]:
        """Committed ``(rel_id, other)`` pairs of each node as this
        transaction reads them, filtered by direction and type, by rel id
        (the private write set is overlaid by the caller)."""

    def topology_many(
        self,
        node_ids: Sequence[int],
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[List[Tuple[int, int]]]:
        """The visible ``(rel_id, other)`` pairs of each node id, in rel-id
        order: ``other`` is the far endpoint (the node itself for a
        self-loop, listed once).  One batched read of the relation with the
        private write set overlaid; no relationship state is resolved."""
        self.ensure_open()
        wanted_types = frozenset(rel_types) if rel_types else None
        committed = self._committed_topology_many(node_ids, direction, wanted_types)
        if not self._writes:
            return committed
        own = [(key, data) for key, data in self._writes.items() if key >= REL_TAG]
        if not own:
            return committed
        return [
            self._overlay_topology(node_id, pairs, own, direction, wanted_types)
            for node_id, pairs in zip(node_ids, committed)
        ]

    @staticmethod
    def _overlay_topology(
        node_id: int,
        pairs: List[Tuple[int, int]],
        own: List[Tuple[EntityKey, Optional[RelationshipData]]],
        direction: Direction,
        wanted_types: Optional[FrozenSet[str]],
    ) -> List[Tuple[int, int]]:
        """One node's committed pairs with the private relationship writes
        overlaid: an own delete removes a pair, an own create adds one, and
        a property update changes nothing (endpoints and type are
        immutable)."""
        merged = dict(pairs)
        changed = False
        for key, data in own:
            rel_id = key_id(key)
            if data is None:
                if rel_id in merged:
                    del merged[rel_id]
                    changed = True
            elif (
                rel_id not in merged
                and direction.matches(node_id, data.start_node, data.end_node)
                and (wanted_types is None or data.rel_type in wanted_types)
            ):
                merged[rel_id] = data.other_node(node_id)
                changed = True
        return sorted(merged.items()) if changed else pairs

    def relationships_of(
        self,
        node_id: int,
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[RelationshipData]:
        """Visible relationships attached to ``node_id``."""
        return self.relationships_of_many((node_id,), direction, rel_types)[0]

    def relationships_of_many(
        self,
        node_ids: Sequence[int],
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[List[RelationshipData]]:
        """Visible relationships of each node id, in rel-id order (batched
        expand): one topology read, then one batch read of just the visible,
        type-matching relationships it named (own writes win)."""
        topology = self.topology_many(node_ids, direction, rel_types)
        keys = list(dict.fromkeys(
            REL_TAG | rel_id for pairs in topology for rel_id, _other in pairs
        ))
        if not keys:
            return [[] for _pairs in topology]
        states = dict(zip(keys, self._read(keys)))
        return [
            [
                state
                for state in (states[REL_TAG | rel_id] for rel_id, _other in pairs)
                if state is not None
            ]
            for pairs in topology
        ]

    # -- writes ----------------------------------------------------------------

    @abc.abstractmethod
    def put_node(self, node: NodeData, *, create: bool = False) -> None:
        """Buffer a node create or update."""

    @abc.abstractmethod
    def put_relationship(self, relationship: RelationshipData, *, create: bool = False) -> None:
        """Buffer a relationship create or update."""

    @abc.abstractmethod
    def delete_node(self, node_id: int) -> None:
        """Buffer a node delete."""

    @abc.abstractmethod
    def delete_relationship(self, rel_id: int) -> None:
        """Buffer a relationship delete."""


class GraphEngine(abc.ABC):
    """A concurrency-control engine bound to one storage substrate.

    A subclass sets ``store``, ``locks``, ``indexes`` (a
    :class:`~repro.core.versioned_index.VersionedIndexSet`),
    ``query_batch_size``, ``stats_epoch``, ``stats``, ``obs``,
    ``_io_abort_counts`` and ``_counter_lock``; the committed-id,
    cardinality, id and abort-accounting methods below work from those.
    """

    isolation_level: IsolationLevel

    @abc.abstractmethod
    def begin(
        self, *, read_only: bool = False, deferrable: Optional[bool] = None
    ) -> EngineTransaction:
        """Start a new transaction.

        ``deferrable`` applies to read-only transactions under serializable
        isolation: ``True`` blocks until a *safe snapshot* (one no in-flight
        read-write transaction can render anomalous) is available, after
        which the transaction runs completely untracked; ``False`` starts
        immediately and lets the safe-snapshot machinery validate the
        snapshot retroactively, and so does ``None``.  Engines without the
        machinery ignore the flag.
        """

    @abc.abstractmethod
    def close(self) -> None:
        """Release engine resources (the store is closed by the database)."""

    def checkpoint(self) -> None:
        """Optional hook: flush engine state (default does nothing)."""

    def catch_up_store(self) -> int:
        """Apply the store's logged backlog to its record files (run by a
        committer whose commit reported it due); returns the batch count."""
        return self.store.catch_up()

    # -- ids ------------------------------------------------------------------

    def allocate_node_id(self) -> int:
        """Reserve a node id for an entity being created."""
        return self.store.allocate_node_id()

    def allocate_relationship_id(self) -> int:
        """Reserve a relationship id for an entity being created."""
        return self.store.allocate_relationship_id()

    # -- committed ids (scans) and totals (planner estimates) -----------------

    def committed_ids(self, kind: EntityKind) -> Iterator[int]:
        """Every id of ``kind`` a committed read may resolve: the one place
        scans learn which entities the store holds."""
        if kind is EntityKind.NODE:
            return self.store.iter_node_ids()
        return self.store.iter_relationship_ids()

    def committed_count(self, kind: EntityKind) -> int:
        """Entities of ``kind`` in the store (the planner's totals)."""
        if kind is EntityKind.NODE:
            return self.store.node_count()
        return self.store.relationship_count()

    # -- cardinality fast paths (query planner estimates) ---------------------

    def cardinality_epoch(self) -> int:
        """Current statistics epoch (the plan cache's invalidation key)."""
        return self.stats_epoch.epoch

    def count_nodes_with_label(self, label: str) -> int:
        """Nodes currently carrying ``label`` in O(1) (open-interval counter)."""
        return self.indexes.node_labels.count(label)

    def count_nodes_with_property(self, key: str, value) -> int:
        """Nodes currently holding ``key`` = ``value`` in O(1)."""
        return self.indexes.node_properties.count(key, value)

    def count_relationships_of_type(self, rel_type: str) -> int:
        """Relationships currently of ``rel_type`` in O(1)."""
        return self.indexes.relationship_types.count(rel_type)

    def count_relationships_with_property(self, key: str, value) -> int:
        """Relationships currently holding ``key`` = ``value`` in O(1)."""
        return self.indexes.relationship_properties.count(key, value)

    def cardinalities(self) -> Dict[str, Dict[str, int]]:
        """Per-label and per-type current cardinalities (stats surface)."""
        return {
            "node_labels": {
                str(label): count
                for label, count in sorted(
                    self.indexes.node_labels.current_cardinalities().items()
                )
            },
            "relationship_types": {
                str(rel_type): count
                for rel_type, count in sorted(
                    self.indexes.relationship_types.current_cardinalities().items()
                )
            },
        }

    # -- abort accounting -----------------------------------------------------

    def _policy_abort_counts(self) -> Dict[str, int]:
        """Aborts the control layer issued: write-rule violations,
        dangerous structures, safe-snapshot writer aborts (none under 2PL)."""
        return {"ww-conflict": 0, "rw-antidependency": 0, "safe-snapshot": 0}

    def abort_reasons(self) -> Dict[str, int]:
        """Abort counts broken down by cause (the statistics surface).

        ``ww-conflict`` counts write-rule violations (every detection aborts
        the transaction), ``rw-antidependency`` the SSI dangerous-structure
        aborts, ``safe-snapshot`` the writers aborted to keep a concurrent
        read-only snapshot safe (counted separately so benchmarks can
        attribute retries), ``deadlock`` the lock-wait cycles and timeouts
        resolved by killing a transaction, ``io-error`` the transactions
        killed by a storage-layer failure, and ``degraded-mode`` the writers
        fenced off after the engine entered degraded read-only mode.
        """
        with self._counter_lock:
            io_counts = dict(self._io_abort_counts)
        return dict(
            self._policy_abort_counts(),
            deadlock=self.locks.stats.deadlocks + self.locks.stats.timeouts,
            **io_counts,
        )

    def _record_abort(self, txn: EngineTransaction) -> None:
        """Count an aborted transaction and close its trace."""
        self.stats.record_abort()
        reason = txn.abort_reason or "rollback"
        if reason in self._io_abort_counts:
            with self._counter_lock:
                self._io_abort_counts[reason] += 1
        self.obs.txn_abort_reasons.labels(reason=reason).inc()
        trace = txn.trace
        if trace is not None:
            txn.trace = None
            trace.finish("aborted", reason)
            self.obs.tracer.record(trace)
