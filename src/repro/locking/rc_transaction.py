"""Read-committed transactions (the Neo4j baseline).

This is the behaviour the paper sets out to improve: reads take a short shared
lock (released as soon as the value has been read) and writes take long
exclusive locks held until commit.  Because nothing is retained about what a
transaction has read, two reads of the same entity inside one transaction can
observe different committed values (unrepeatable reads) and repeated predicate
scans can observe different result sets (phantom reads).  The anomaly
experiments E1 and E2 measure exactly this.

Everything else — the write set, its overlay on point reads, scans, index
results and adjacency lists, commit/rollback — is the shared
:class:`~repro.engine.EngineTransaction` skeleton; this class supplies only
the locked committed read under it.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.engine import EngineTransaction
from repro.graph.entity import REL_TAG, Direction, EntityKey, RelationshipData
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

    def _read_committed(self, keys: Sequence[EntityKey]) -> List[Optional[object]]:
        """Read each key under a *short* shared lock (released immediately).

        The lock lives inside :meth:`LockManager.shared_guard`: one
        lock-table visit, no holder bookkeeping, release before the read
        returns, and a read of an entity the transaction already
        write-locked (e.g. an endpoint node of a created relationship)
        piggybacks on that lock instead of dropping it.  Point reads, seeks,
        scans and adjacency all come here, so every one of them waits for an
        uncommitted writer of the entity alike.
        """
        engine = self._engine
        shared_guard = engine.locks.shared_guard
        states: List[Optional[object]] = []
        for key in keys:
            with shared_guard(self.txn_id, key):
                states.append(engine.read_committed(key))
        return states

    def _committed_topology_many(
        self,
        node_ids: Sequence[int],
        direction: Direction,
        wanted_types: Optional[FrozenSet[str]],
    ) -> List[List[Tuple[int, int]]]:
        """Each node's adjacency candidates read one short lock at a time,
        then filtered; candidates this transaction wrote are left to the
        overlay."""
        candidate_rel_ids = self._engine.indexes.adjacency.candidate_rel_ids
        writes = self._writes
        results: List[List[Tuple[int, int]]] = []
        for node_id in node_ids:
            keys = [
                key
                for key in (REL_TAG | rel_id for rel_id in candidate_rel_ids(node_id))
                if key not in writes
            ]
            results.append([
                (state.rel_id, state.other_node(node_id))
                for state in self._read_committed(keys)
                if state is not None
                and direction.matches(node_id, state.start_node, state.end_node)
                and (wanted_types is None or state.rel_type in wanted_types)
            ])
        return results

    def _committed_labelled_many(
        self, node_ids: Sequence[int], labels: FrozenSet[str]
    ) -> List[bool]:
        """The node states, each read under a short lock, checked for the
        labels: the newest committed state, as every read here."""
        return [
            state is not None and labels <= state.labels
            for state in self._read_committed(node_ids)
        ]

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
            locks.acquire(self.txn_id, relationship.start_node, LockMode.EXCLUSIVE)
            locks.acquire(self.txn_id, relationship.end_node, LockMode.EXCLUSIVE)
            self._created.add(key)
        self._writes[key] = relationship

    def delete_node(self, node_id: int) -> None:
        self.ensure_open()
        self._check_writable()
        self._engine.locks.acquire(self.txn_id, node_id, LockMode.EXCLUSIVE)
        self._writes[node_id] = None

    def delete_relationship(self, rel_id: int) -> None:
        self.ensure_open()
        self._check_writable()
        key = REL_TAG | rel_id
        locks = self._engine.locks
        locks.acquire(self.txn_id, key, LockMode.EXCLUSIVE)
        existing = self._writes.get(key)
        if existing is None:
            existing = self._engine.read_committed(key)
        if existing is not None:
            locks.acquire(self.txn_id, existing.start_node, LockMode.EXCLUSIVE)
            locks.acquire(self.txn_id, existing.end_node, LockMode.EXCLUSIVE)
        self._writes[key] = None
