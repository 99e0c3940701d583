"""Read-committed transactions (the Neo4j baseline).

This is the behaviour the paper sets out to improve: reads take a short shared
lock (released as soon as the value has been read) and writes take long
exclusive locks held until commit.  Because nothing is retained about what a
transaction has read, two reads of the same entity inside one transaction can
observe different committed values (unrepeatable reads) and repeated predicate
scans can observe different result sets (phantom reads).  The anomaly
experiments E1 and E2 measure exactly this.

Everything else — the write set, its overlay on index results and adjacency
lists, commit/rollback — is the shared :class:`~repro.engine.EngineTransaction`
skeleton.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine import EngineTransaction
from repro.graph.entity import EntityKey, EntityKind, NodeData, RelationshipData
from repro.locking.lock_manager import LockMode


class ReadCommittedTransaction(EngineTransaction):
    """One transaction running under the read-committed engine."""

    @property
    def _index_ts(self) -> int:
        """Index lookups read the newest published commit, not a snapshot."""
        return self._engine.latest_seq

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read_node(self, node_id: int) -> Optional[NodeData]:
        self.ensure_open()
        key = EntityKey.node(node_id)
        if key in self._writes:
            return self._writes[key]  # type: ignore[return-value]
        return self._locked_read(key)  # type: ignore[return-value]

    def read_relationship(self, rel_id: int) -> Optional[RelationshipData]:
        self.ensure_open()
        key = EntityKey.relationship(rel_id)
        if key in self._writes:
            return self._writes[key]  # type: ignore[return-value]
        return self._locked_read(key)  # type: ignore[return-value]

    def _locked_read(self, key: EntityKey) -> Optional[object]:
        """Perform one read under a *short* shared lock (released immediately).

        The lock lives inside :meth:`LockManager.shared_guard`: one
        lock-table visit, no holder bookkeeping, release before the
        statement returns, and a read of an entity the transaction already
        write-locked (e.g. an endpoint node of a created relationship)
        piggybacks on that lock instead of dropping it.
        """
        with self._engine.locks.shared_guard(self.txn_id, key):
            return self._engine.read_committed(key)

    def iter_nodes(self) -> Iterator[NodeData]:
        self.ensure_open()
        return self._scan(EntityKind.NODE, self._engine.store.iter_node_ids())

    def iter_relationships(self) -> Iterator[RelationshipData]:
        self.ensure_open()
        return self._scan(
            EntityKind.RELATIONSHIP, self._engine.store.iter_relationship_ids()
        )

    def _scan(self, kind: EntityKind, stored_ids: Iterable[int]) -> Iterator:
        """Own writes of ``kind`` first, then every stored entity they do not
        shadow, read without a lock."""
        seen = set()
        for key, value in list(self._writes.items()):
            if key.kind is kind:
                seen.add(key.entity_id)
                if value is not None:
                    yield value
        read_committed = self._engine.read_committed
        for entity_id in stored_ids:
            if entity_id not in seen:
                data = read_committed(EntityKey(kind, entity_id))
                if data is not None:
                    yield data

    def _committed_adjacency_many(
        self, node_ids: Sequence[int]
    ) -> List[Tuple[RelationshipData, ...]]:
        """Each node's adjacency candidates read one short lock at a time;
        candidates this transaction wrote are left to the overlay."""
        candidate_rel_ids = self._engine.indexes.adjacency.candidate_rel_ids
        results: List[Tuple[RelationshipData, ...]] = []
        for node_id in node_ids:
            adjacency = []
            for rel_id in sorted(candidate_rel_ids(node_id)):
                key = EntityKey.relationship(rel_id)
                if key in self._writes:
                    continue
                relationship = self._locked_read(key)
                if relationship is not None:
                    adjacency.append(relationship)
            results.append(tuple(adjacency))
        return results

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
            existing = self._engine.read_committed(key)
        if existing is not None:
            locks.acquire(self.txn_id, EntityKey.node(existing.start_node), LockMode.EXCLUSIVE)
            locks.acquire(self.txn_id, EntityKey.node(existing.end_node), LockMode.EXCLUSIVE)
        self._writes[key] = None
