"""Common engine interface implemented by both concurrency-control engines.

The repository ships two transaction engines over the same storage substrate:

* :class:`repro.locking.rc_manager.ReadCommittedEngine` — Neo4j's stock
  behaviour (short read locks, long write locks), which exhibits unrepeatable
  and phantom reads, and
* :class:`repro.core.si_manager.SnapshotIsolationEngine` — the paper's
  multi-version concurrency control providing snapshot isolation.

The public API (:mod:`repro.api`) is written against the abstract classes in
this module so the two engines are interchangeable, which is what makes the
experiment harness able to run identical workloads under both isolation
levels.
"""

from __future__ import annotations

import abc
import enum
from typing import Iterator, List, Optional, Sequence, Set

from repro.errors import TransactionClosedError
from repro.graph.entity import Direction, NodeData, RelationshipData
from repro.graph.properties import PropertyValue


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
    """

    def __init__(self, txn_id: int, *, read_only: bool = False) -> None:
        self.txn_id = txn_id
        self.read_only = read_only
        self.state = TransactionState.ACTIVE

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

    @abc.abstractmethod
    def commit(self) -> None:
        """Make the transaction's writes visible to others (or raise and abort)."""

    @abc.abstractmethod
    def rollback(self) -> None:
        """Discard the transaction's writes."""

    # -- reads ----------------------------------------------------------------

    @abc.abstractmethod
    def read_node(self, node_id: int) -> Optional[NodeData]:
        """The node state visible to this transaction, or ``None``."""

    @abc.abstractmethod
    def read_relationship(self, rel_id: int) -> Optional[RelationshipData]:
        """The relationship state visible to this transaction, or ``None``."""

    @abc.abstractmethod
    def iter_nodes(self) -> Iterator[NodeData]:
        """Every node visible to this transaction (including its own writes)."""

    @abc.abstractmethod
    def iter_relationships(self) -> Iterator[RelationshipData]:
        """Every relationship visible to this transaction."""

    @abc.abstractmethod
    def find_nodes_by_label(self, label: str) -> Set[int]:
        """Ids of visible nodes carrying ``label``."""

    @abc.abstractmethod
    def find_nodes_by_property(self, key: str, value: PropertyValue) -> Set[int]:
        """Ids of visible nodes with property ``key`` = ``value``."""

    @abc.abstractmethod
    def find_relationships_by_property(self, key: str, value: PropertyValue) -> Set[int]:
        """Ids of visible relationships with property ``key`` = ``value``."""

    @abc.abstractmethod
    def find_relationships_by_type(self, rel_type: str) -> Set[int]:
        """Ids of visible relationships of type ``rel_type``."""

    @abc.abstractmethod
    def node_seek_candidates(
        self, label: str, key: str, value: PropertyValue
    ) -> Set[int]:
        """Candidate ids for "carries ``label`` *and* ``key`` = ``value``".

        The ids of whichever of the two index entries currently has fewer
        members — a superset of the matches; the caller checks both conjuncts
        on the node states it reads, so the larger entry is never
        materialised.  Both predicates count as read.
        """

    @abc.abstractmethod
    def relationship_seek_candidates(
        self, rel_type: str, key: str, value: PropertyValue
    ) -> Set[int]:
        """Candidate ids for "of ``rel_type`` *and* ``key`` = ``value``"
        (see :meth:`node_seek_candidates`)."""

    @abc.abstractmethod
    def relationships_of(
        self,
        node_id: int,
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[RelationshipData]:
        """Visible relationships attached to ``node_id``."""

    # -- batch reads (vectorized executor) -----------------------------------
    #
    # Engines that can resolve a whole batch more cheaply than N point reads
    # override these; the defaults simply loop, so every engine supports the
    # batch API with unchanged semantics (locking behaviour included).

    def read_nodes_many(self, node_ids: Sequence[int]) -> List[Optional[NodeData]]:
        """The visible state of each node id, in order (``None`` if absent)."""
        return [self.read_node(node_id) for node_id in node_ids]

    def read_relationships_many(
        self, rel_ids: Sequence[int]
    ) -> List[Optional[RelationshipData]]:
        """The visible state of each relationship id, in order."""
        return [self.read_relationship(rel_id) for rel_id in rel_ids]

    def relationships_of_many(
        self,
        node_ids: Sequence[int],
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[List[RelationshipData]]:
        """Visible relationships of each node id, in order (batched expand)."""
        return [
            self.relationships_of(node_id, direction, rel_types)
            for node_id in node_ids
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
    """A concurrency-control engine bound to one storage substrate."""

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
    def allocate_node_id(self) -> int:
        """Reserve a node id for an entity being created."""

    @abc.abstractmethod
    def allocate_relationship_id(self) -> int:
        """Reserve a relationship id for an entity being created."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release engine resources (the store is closed by the database)."""

    def checkpoint(self) -> None:
        """Optional hook: flush engine state (default does nothing)."""
