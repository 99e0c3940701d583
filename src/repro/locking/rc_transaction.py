"""Read-committed transactions (the Neo4j baseline).

This is the behaviour the paper sets out to improve: reads take a short shared
lock (released as soon as the value has been read) and writes take long
exclusive locks held until commit.  Because nothing is retained about what a
transaction has read, two reads of the same entity inside one transaction can
observe different committed values (unrepeatable reads) and repeated predicate
scans can observe different result sets (phantom reads).  The anomaly
experiments E1 and E2 measure exactly this.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.engine import EngineTransaction, TransactionState
from repro.errors import ReadOnlyTransactionError, classify_abort
from repro.graph.entity import Direction, EntityKey, EntityKind, NodeData, RelationshipData
from repro.graph.operations import (
    DeleteNodeOp,
    DeleteRelationshipOp,
    StoreOperation,
    WriteNodeOp,
    WriteRelationshipOp,
)
from repro.graph.properties import PropertyValue
from repro.locking.lock_manager import LockMode


class ReadCommittedTransaction(EngineTransaction):
    """One transaction running under the read-committed engine."""

    def __init__(self, engine, txn_id: int, *, read_only: bool = False) -> None:
        super().__init__(txn_id, read_only=read_only)
        self._engine = engine
        #: Buffered writes: entity key -> new state (``None`` buffers a delete).
        self._writes: Dict[EntityKey, Optional[object]] = {}
        #: Keys created by this transaction (they do not exist in the store yet).
        self._created: Set[EntityKey] = set()
        #: Observability trace (set by the engine for sampled transactions).
        self.trace = None
        #: Classified cause when :meth:`commit` aborts (``None`` for explicit
        #: rollbacks); feeds the labelled abort counter and the trace.
        self.abort_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read_node(self, node_id: int) -> Optional[NodeData]:
        self.ensure_open()
        key = EntityKey.node(node_id)
        if key in self._writes:
            return self._writes[key]  # type: ignore[return-value]
        return self._locked_read(key, lambda: self._engine.store.read_node(node_id))

    def read_relationship(self, rel_id: int) -> Optional[RelationshipData]:
        self.ensure_open()
        key = EntityKey.relationship(rel_id)
        if key in self._writes:
            return self._writes[key]  # type: ignore[return-value]
        return self._locked_read(
            key, lambda: self._engine.store.read_relationship(rel_id)
        )

    def _locked_read(self, key: EntityKey, reader):
        """Perform one read under a *short* shared lock (released immediately).

        The lock lives inside :meth:`LockManager.shared_guard`: one
        lock-table visit, no holder bookkeeping, release before the
        statement returns, and a read of an entity the transaction already
        write-locked (e.g. an endpoint node of a created relationship)
        piggybacks on that lock instead of dropping it.
        """
        with self._engine.locks.shared_guard(self.txn_id, key):
            return reader()

    def iter_nodes(self) -> Iterator[NodeData]:
        self.ensure_open()
        seen: Set[int] = set()
        for key, value in list(self._writes.items()):
            if key.kind is EntityKind.NODE:
                seen.add(key.entity_id)
                if value is not None:
                    yield value  # type: ignore[misc]
        for node in self._engine.store.iter_nodes():
            if node.node_id not in seen:
                yield node

    def iter_relationships(self) -> Iterator[RelationshipData]:
        self.ensure_open()
        seen: Set[int] = set()
        for key, value in list(self._writes.items()):
            if key.kind is EntityKind.RELATIONSHIP:
                seen.add(key.entity_id)
                if value is not None:
                    yield value  # type: ignore[misc]
        for relationship in self._engine.store.iter_relationships():
            if relationship.rel_id not in seen:
                yield relationship

    def find_nodes_by_label(self, label: str) -> Set[int]:
        self.ensure_open()
        result = self._engine.indexes.nodes_with_label(label)
        return self._merge_node_predicate(result, lambda node: label in node.labels)

    def find_nodes_by_property(self, key: str, value: PropertyValue) -> Set[int]:
        self.ensure_open()
        result = self._engine.indexes.nodes_with_property(key, value)
        return self._merge_node_predicate(
            result, lambda node: node.properties.get(key) == value
        )

    def find_relationships_by_property(self, key: str, value: PropertyValue) -> Set[int]:
        self.ensure_open()
        result = self._engine.indexes.relationships_with_property(key, value)
        return self._merge_relationship_predicate(
            result, lambda rel: rel.properties.get(key) == value
        )

    def find_relationships_by_type(self, rel_type: str) -> Set[int]:
        self.ensure_open()
        result = self._engine.indexes.relationships_of_type(rel_type)
        return self._merge_relationship_predicate(
            result, lambda rel: rel.rel_type == rel_type
        )

    def node_seek_candidates(
        self, label: str, key: str, value: PropertyValue
    ) -> Set[int]:
        engine = self._engine
        if engine.count_nodes_with_label(label) <= engine.count_nodes_with_property(
            key, value
        ):
            return self.find_nodes_by_label(label)
        return self.find_nodes_by_property(key, value)

    def relationship_seek_candidates(
        self, rel_type: str, key: str, value: PropertyValue
    ) -> Set[int]:
        engine = self._engine
        if engine.count_relationships_of_type(
            rel_type
        ) <= engine.count_relationships_with_property(key, value):
            return self.find_relationships_by_type(rel_type)
        return self.find_relationships_by_property(key, value)

    def _merge_node_predicate(self, result: Set[int], predicate) -> Set[int]:
        """Overlay this transaction's own node writes onto an index result."""
        return self._merge_predicate(result, predicate, EntityKind.NODE)

    def _merge_relationship_predicate(self, result: Set[int], predicate) -> Set[int]:
        """Overlay this transaction's own relationship writes onto an index result."""
        return self._merge_predicate(result, predicate, EntityKind.RELATIONSHIP)

    def _merge_predicate(self, result: Set[int], predicate, kind: EntityKind) -> Set[int]:
        for entity_key, data in self._writes.items():
            if entity_key.kind is not kind:
                continue
            if data is None:
                result.discard(entity_key.entity_id)
            elif predicate(data):
                result.add(entity_key.entity_id)
            else:
                result.discard(entity_key.entity_id)
        return result

    def relationships_of(
        self,
        node_id: int,
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[RelationshipData]:
        self.ensure_open()
        store = self._engine.store
        candidate_ids: Set[int] = set()
        if store.node_exists(node_id):
            candidate_ids.update(store.node_relationship_ids(node_id))
        for entity_key, data in self._writes.items():
            if entity_key.kind is EntityKind.RELATIONSHIP and data is not None:
                if data.touches(node_id):
                    candidate_ids.add(entity_key.entity_id)
        wanted_types = set(rel_types) if rel_types else None
        result: List[RelationshipData] = []
        for rel_id in sorted(candidate_ids):
            relationship = self.read_relationship(rel_id)
            if relationship is None:
                continue
            if not direction.matches(node_id, relationship.start_node, relationship.end_node):
                continue
            if wanted_types is not None and relationship.rel_type not in wanted_types:
                continue
            result.append(relationship)
        return result

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def put_node(self, node: NodeData, *, create: bool = False) -> None:
        self.ensure_open()
        self._check_writable()
        key = node.key
        self._engine.locks.acquire(self.txn_id, key, LockMode.EXCLUSIVE)
        if create:
            self._created.add(key)
        self._writes[key] = node

    def put_relationship(self, relationship: RelationshipData, *, create: bool = False) -> None:
        self.ensure_open()
        self._check_writable()
        key = relationship.key
        locks = self._engine.locks
        locks.acquire(self.txn_id, key, LockMode.EXCLUSIVE)
        if create:
            # Like Neo4j, creating a relationship write-locks both endpoint
            # nodes so they cannot be concurrently deleted.
            locks.acquire(self.txn_id, EntityKey.node(relationship.start_node), LockMode.EXCLUSIVE)
            locks.acquire(self.txn_id, EntityKey.node(relationship.end_node), LockMode.EXCLUSIVE)
            self._created.add(key)
        self._writes[key] = relationship

    def delete_node(self, node_id: int) -> None:
        self.ensure_open()
        self._check_writable()
        key = EntityKey.node(node_id)
        self._engine.locks.acquire(self.txn_id, key, LockMode.EXCLUSIVE)
        self._writes[key] = None

    def delete_relationship(self, rel_id: int) -> None:
        self.ensure_open()
        self._check_writable()
        key = EntityKey.relationship(rel_id)
        locks = self._engine.locks
        locks.acquire(self.txn_id, key, LockMode.EXCLUSIVE)
        existing = self._writes.get(key)
        if existing is None:
            existing = self._engine.store.read_relationship(rel_id)
        if existing is not None:
            locks.acquire(self.txn_id, EntityKey.node(existing.start_node), LockMode.EXCLUSIVE)
            locks.acquire(self.txn_id, EntityKey.node(existing.end_node), LockMode.EXCLUSIVE)
        self._writes[key] = None

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
        """The buffered writes of this transaction (key -> new state or None)."""
        return dict(self._writes)

    def build_store_operations(self) -> List[StoreOperation]:
        """Translate buffered writes into ordered store operations.

        Creations are ordered nodes-before-relationships and deletions
        relationships-before-nodes so the store's structural constraints hold
        at every point during application.
        """
        node_writes: List[StoreOperation] = []
        rel_writes: List[StoreOperation] = []
        rel_deletes: List[StoreOperation] = []
        node_deletes: List[StoreOperation] = []
        for key, data in self._writes.items():
            if key.kind is EntityKind.NODE:
                if data is None:
                    if key not in self._created:
                        node_deletes.append(DeleteNodeOp(key.entity_id))
                else:
                    node_writes.append(WriteNodeOp(data))
            else:
                if data is None:
                    if key not in self._created:
                        rel_deletes.append(DeleteRelationshipOp(key.entity_id))
                else:
                    rel_writes.append(WriteRelationshipOp(data))
        return node_writes + rel_writes + rel_deletes + node_deletes
