"""User-facing transactions and entity handles.

:class:`Transaction` wraps an engine transaction (read-committed or snapshot
isolation — the API is identical) and adds the graph-model rules Neo4j
enforces at its API boundary: property and label validation, endpoint
existence checks, and the "cannot delete a node that still has relationships
unless detach-deleting" constraint.

:class:`Node` and :class:`Relationship` are lightweight handles: immutable
snapshots of an entity's state as read by this transaction, with convenience
methods that delegate mutations back to the transaction.
"""

from __future__ import annotations

import sys
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.query.result import QueryResult

from repro.engine import EngineTransaction, TransactionState
from repro.errors import (
    ConstraintViolationError,
    NodeNotFoundError,
    RelationshipNotFoundError,
    ReservedNameError,
    classify_abort,
)
from repro.graph.entity import Direction, NodeData, RelationshipData
from repro.graph.properties import (
    RESERVED_PROPERTY_PREFIX,
    PropertyValue,
    hashable_value,
    validate_properties,
    validate_property_key,
    validate_property_value,
)

#: Anything accepted where a node is expected: a handle or a raw id.
NodeLike = Union["Node", int]

#: Anything accepted where a relationship is expected: a handle or a raw id.
RelationshipLike = Union["Relationship", int]


def _validate_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise ValueError("labels must be non-empty strings")
    if label.startswith(RESERVED_PROPERTY_PREFIX):
        raise ReservedNameError(
            f"label {label!r} uses the reserved prefix {RESERVED_PROPERTY_PREFIX!r}"
        )
    # One canonical string per label spelling: frozenset membership tests on
    # hot read paths then short-circuit on object identity.
    return sys.intern(label) if type(label) is str else label


class Node:
    """A read handle on one node, as seen by one transaction."""

    __slots__ = ("_tx", "_data")

    def __init__(self, tx: "Transaction", data: NodeData) -> None:
        self._tx = tx
        self._data = data

    # -- state ------------------------------------------------------------------

    @property
    def id(self) -> int:
        """The node id."""
        return self._data.node_id

    @property
    def labels(self) -> Set[str]:
        """The node's labels (a copy)."""
        return set(self._data.labels)

    @property
    def properties(self) -> Dict[str, PropertyValue]:
        """The node's properties (a copy)."""
        return dict(self._data.properties)

    @property
    def data(self) -> NodeData:
        """The underlying immutable state."""
        return self._data

    def __getitem__(self, key: str) -> PropertyValue:
        return self._data.properties[key]

    def get(self, key: str, default: Optional[PropertyValue] = None) -> Optional[PropertyValue]:
        """Property value, or ``default`` if the property is absent."""
        return self._data.properties.get(key, default)

    def has_label(self, label: str) -> bool:
        """Whether the node carries ``label``."""
        return label in self._data.labels

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and other.id == self.id

    def __hash__(self) -> int:
        # Nodes hash even, relationships odd (see Relationship.__hash__):
        # cheap, stable, and collision-free across the two handle types.
        return self._data.node_id << 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        labels = ":".join(sorted(self._data.labels))
        return f"Node(id={self.id}, labels=[{labels}])"

    # -- delegated mutations ---------------------------------------------------------

    def set_property(self, key: str, value: PropertyValue) -> "Node":
        """Set one property; returns a refreshed handle."""
        return self._tx.set_node_property(self, key, value)

    def remove_property(self, key: str) -> "Node":
        """Remove one property; returns a refreshed handle."""
        return self._tx.remove_node_property(self, key)

    def add_label(self, label: str) -> "Node":
        """Add a label; returns a refreshed handle."""
        return self._tx.add_label(self, label)

    def remove_label(self, label: str) -> "Node":
        """Remove a label; returns a refreshed handle."""
        return self._tx.remove_label(self, label)

    def delete(self, *, detach: bool = False) -> None:
        """Delete this node (see :meth:`Transaction.delete_node`)."""
        self._tx.delete_node(self, detach=detach)

    def relationships(
        self,
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List["Relationship"]:
        """Relationships attached to this node."""
        return self._tx.relationships_of(self, direction, rel_types)

    def degree(self, direction: Direction = Direction.BOTH) -> int:
        """Number of attached relationships."""
        return self._tx.degree(self, direction)


class Relationship:
    """A read handle on one relationship, as seen by one transaction."""

    __slots__ = ("_tx", "_data")

    def __init__(self, tx: "Transaction", data: RelationshipData) -> None:
        self._tx = tx
        self._data = data

    @property
    def id(self) -> int:
        """The relationship id."""
        return self._data.rel_id

    @property
    def type(self) -> str:
        """The relationship type name."""
        return self._data.rel_type

    @property
    def start_node_id(self) -> int:
        """Id of the start (source) node."""
        return self._data.start_node

    @property
    def end_node_id(self) -> int:
        """Id of the end (destination) node."""
        return self._data.end_node

    @property
    def properties(self) -> Dict[str, PropertyValue]:
        """The relationship's properties (a copy)."""
        return dict(self._data.properties)

    @property
    def data(self) -> RelationshipData:
        """The underlying immutable state."""
        return self._data

    def __getitem__(self, key: str) -> PropertyValue:
        return self._data.properties[key]

    def get(self, key: str, default: Optional[PropertyValue] = None) -> Optional[PropertyValue]:
        """Property value, or ``default`` if the property is absent."""
        return self._data.properties.get(key, default)

    def other_node_id(self, node: NodeLike) -> int:
        """Id of the endpoint that is not ``node``."""
        return self._data.other_node(_node_id(node))

    def start_node(self) -> Node:
        """Handle on the start node."""
        return self._tx.get_node(self._data.start_node)

    def end_node(self) -> Node:
        """Handle on the end node."""
        return self._tx.get_node(self._data.end_node)

    def other_node(self, node: NodeLike) -> Node:
        """Handle on the endpoint that is not ``node``."""
        return self._tx.get_node(self.other_node_id(node))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relationship) and other.id == self.id

    def __hash__(self) -> int:
        return (self._data.rel_id << 1) | 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Relationship(id={self.id}, type={self.type}, "
            f"{self.start_node_id}->{self.end_node_id})"
        )

    # -- delegated mutations ---------------------------------------------------------

    def set_property(self, key: str, value: PropertyValue) -> "Relationship":
        """Set one property; returns a refreshed handle."""
        return self._tx.set_relationship_property(self, key, value)

    def remove_property(self, key: str) -> "Relationship":
        """Remove one property; returns a refreshed handle."""
        return self._tx.remove_relationship_property(self, key)

    def delete(self) -> None:
        """Delete this relationship."""
        self._tx.delete_relationship(self)


def _state_node_id(data: NodeData) -> int:
    return data.node_id


def _node_id(node: NodeLike) -> int:
    return node.id if isinstance(node, Node) else int(node)


def _rel_id(relationship: RelationshipLike) -> int:
    return relationship.id if isinstance(relationship, Relationship) else int(relationship)


class Transaction:
    """The user-facing transaction (context manager: commit on success)."""

    def __init__(self, engine, engine_txn: EngineTransaction, *, on_close=None) -> None:
        self._engine = engine
        self._txn = engine_txn
        #: Invoked exactly once when the transaction leaves the ACTIVE state
        #: (commit, failed commit, or rollback).  The database's transaction
        #: gate registers itself here so ``close()`` can drain in-flight
        #: transactions before releasing the store files.
        self._on_close = on_close

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def id(self) -> int:
        """Engine transaction id."""
        return self._txn.txn_id

    @property
    def is_open(self) -> bool:
        """Whether the transaction is still active."""
        return self._txn.is_open

    @property
    def read_only(self) -> bool:
        """Whether the transaction was opened read-only."""
        return self._txn.read_only

    @property
    def isolation_level(self):
        """The :class:`~repro.engine.IsolationLevel` this transaction runs under.

        Under ``SERIALIZABLE``, any read or write — not just ``commit()`` —
        may raise :class:`~repro.errors.SerializationError` when the SSI
        policy picks this transaction as the victim of a dangerous structure;
        callers should run such transactions through ``db.run_transaction``.
        """
        return self._engine.isolation_level

    @property
    def engine_transaction(self) -> EngineTransaction:
        """The wrapped engine transaction (exposed for experiments)."""
        return self._txn

    def commit(self) -> None:
        """Commit the transaction."""
        try:
            self._txn.commit()
        finally:
            # A failed commit aborts the engine transaction, so either way
            # the transaction is no longer active once commit() returns.
            self._notify_closed()

    def rollback(self) -> None:
        """Roll the transaction back (safe to call on a closed transaction)."""
        try:
            self._txn.rollback()
        finally:
            self._notify_closed()

    def _notify_closed(self) -> None:
        if self._txn.is_open:
            return
        callback, self._on_close = self._on_close, None
        if callback is not None:
            callback(self)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is not None:
            # Attribute the abort before rolling back: write-time conflicts
            # (first-updater-wins) surface mid-block rather than in commit(),
            # and the trace/abort-reason counters should still name them.
            if getattr(self._txn, "abort_reason", None) is None:
                self._txn.abort_reason = classify_abort(exc_value)
            self.rollback()
            return
        if self._txn.state is TransactionState.ACTIVE:
            self.commit()

    # ------------------------------------------------------------------
    # node operations
    # ------------------------------------------------------------------

    def create_node(
        self,
        labels: Iterable[str] = (),
        properties: Optional[Mapping[str, PropertyValue]] = None,
    ) -> Node:
        """Create a node with the given labels and properties."""
        clean_labels = frozenset(_validate_label(label) for label in labels)
        clean_properties = validate_properties(properties)
        node_id = self._engine.allocate_node_id()
        data = NodeData(node_id=node_id, labels=clean_labels, properties=clean_properties)
        self._txn.put_node(data, create=True)
        return Node(self, data)

    def get_node(self, node: NodeLike) -> Node:
        """Node handle for ``node``; raises if it is not visible."""
        node_id = _node_id(node)
        data = self._txn.read_node(node_id)
        if data is None:
            raise NodeNotFoundError(node_id)
        return Node(self, data)

    def try_get_node(self, node: NodeLike) -> Optional[Node]:
        """Node handle for ``node``, or ``None`` if it is not visible."""
        data = self._txn.read_node(_node_id(node))
        return Node(self, data) if data is not None else None

    def node_exists(self, node: NodeLike) -> bool:
        """Whether ``node`` is visible to this transaction."""
        return self._txn.read_node(_node_id(node)) is not None

    def nodes(self) -> Iterator[Node]:
        """Every node visible to this transaction."""
        for data in self.all_node_states():
            yield Node(self, data)

    # -- state reads: the engine's immutable states, no handles ----------------
    #
    # The handle-returning reads (``find_nodes``, ``nodes_by_ids``,
    # ``relationships_of_many``, ``expand_many``) wrap these, so there is one
    # read path and one SIREAD registration per read either way.  The query
    # executor reads only through these and builds a handle only where a
    # value leaves its statement.  ``topology_of_many`` reads the relation
    # alone — which relationships attach, not their states — for every
    # expand that never reads a relationship.

    def all_node_states(self) -> Iterator[NodeData]:
        """The state of every node visible to this transaction (what
        :meth:`nodes` wraps)."""
        return self._txn.iter_nodes()

    def node_states(self, node_ids: Sequence[int]) -> List[Optional[NodeData]]:
        """The visible state of each node id, in input order, ``None`` where
        a node is not visible: one engine-level batch read (one
        SIREAD-registration visit under serializable isolation)."""
        return self._txn.read_nodes_many(node_ids)

    def find_node_states(
        self,
        label: Optional[str] = None,
        key: Optional[str] = None,
        value: Optional[PropertyValue] = None,
    ) -> List[NodeData]:
        """The states :meth:`find_nodes` returns handles on, same order."""
        if key is None and value is not None:
            raise ValueError("find_nodes with a property value requires a key")
        if label is None and key is None:
            return sorted(self.all_node_states(), key=_state_node_id)
        if key is not None and value is None:
            raise ValueError("find_nodes with a property key requires a value")
        if label is not None and key is not None:
            candidates = self._txn.node_seek_candidates(label, key, value)
            wanted = hashable_value(value)
            return [
                data
                for data in self._txn.read_nodes_many(sorted(candidates))
                if data is not None
                and label in data.labels
                and hashable_value(data.properties.get(key)) == wanted
            ]
        if label is not None:
            ids = self._txn.find_nodes_by_label(label)
        else:
            ids = self._txn.find_nodes_by_property(key, value)
        return [
            data for data in self._txn.read_nodes_many(sorted(ids)) if data is not None
        ]

    def topology_of_many(
        self,
        node_ids: Sequence[int],
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[List[Tuple[int, int]]]:
        """The visible ``(relationship id, far-end node id)`` pairs of each
        node id, in adjacency order (a self-loop once, its far end the node
        itself): one batched read of the versioned adjacency index, no
        relationship state resolved (under serializable isolation, one
        adjacency predicate per node and no SIREAD)."""
        return self._txn.topology_many(node_ids, direction, rel_types)

    def relationship_states_of_many(
        self,
        node_ids: Sequence[int],
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[List[RelationshipData]]:
        """The visible relationship states of each node id, in adjacency
        order, resolved as one batch (what :meth:`relationships_of_many`
        wraps)."""
        return self._txn.relationships_of_many(node_ids, direction, rel_types)

    def expand_states_many(
        self,
        node_ids: Sequence[int],
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[List[Tuple[RelationshipData, NodeData]]]:
        """One-hop expansion of many node ids as states (what
        :meth:`expand_many` wraps): per node, the ``(relationship,
        neighbour)`` pairs in adjacency order, relationships whose far end
        is not visible skipped.  The adjacency of every node resolves in one
        engine visit, and each distinct neighbour is read once for the whole
        batch (one batched point read; under serializable isolation, one
        SIREAD-registration visit each)."""
        adjacency = self._txn.relationships_of_many(node_ids, direction, rel_types)
        others: List[List[int]] = [
            [data.other_node(node_id) for data in data_list]
            for node_id, data_list in zip(node_ids, adjacency)
        ]
        distinct = list(dict.fromkeys(other for row in others for other in row))
        neighbours = {
            data.node_id: data
            for data in self._txn.read_nodes_many(distinct)
            if data is not None
        }
        return [
            [
                (data, neighbours[other])
                for data, other in zip(data_list, row)
                if other in neighbours
            ]
            for data_list, row in zip(adjacency, others)
        ]

    def find_nodes(
        self,
        label: Optional[str] = None,
        key: Optional[str] = None,
        value: Optional[PropertyValue] = None,
    ) -> List[Node]:
        """Nodes matching a label and/or a property equality predicate.

        With no arguments every visible node is returned.  Results are sorted
        by node id so repeated scans are comparable (the phantom experiment
        relies on that).

        A label *and* a property predicate together are a seek: candidates
        come from whichever of the two index entries is smaller and both
        conjuncts are checked on the node states read for the result — the
        states this transaction sees, own writes included — so the larger
        entry (typically the whole label set) is never materialised.
        """
        return [Node(self, data) for data in self.find_node_states(label, key, value)]

    def nodes_by_ids(self, node_ids: Sequence[int]) -> List[Node]:
        """Handles for the visible nodes among ``node_ids``, in input order.

        Batch companion of :meth:`get_node`: one engine-level batch read
        resolves every id (one SIREAD-registration visit under serializable
        isolation) and invisible ids are silently skipped.  The vectorized
        executor's scans are built on this.
        """
        return [
            Node(self, data) for data in self.node_states(node_ids) if data is not None
        ]

    def set_node_property(self, node: NodeLike, key: str, value: PropertyValue) -> Node:
        """Set one property on a node (read-modify-write under the engine's rules)."""
        validate_property_key(key)
        clean_value = validate_property_value(value)
        data = self._require_node_data(node)
        updated = data.with_property(key, clean_value)
        self._txn.put_node(updated)
        return Node(self, updated)

    def remove_node_property(self, node: NodeLike, key: str) -> Node:
        """Remove one property from a node (no-op if absent)."""
        data = self._require_node_data(node)
        updated = data.without_property(key)
        self._txn.put_node(updated)
        return Node(self, updated)

    def update_node_properties(
        self, node: NodeLike, properties: Mapping[str, PropertyValue]
    ) -> Node:
        """Merge a property map into a node's existing properties."""
        clean = validate_properties(properties)
        data = self._require_node_data(node)
        merged = dict(data.properties)
        merged.update(clean)
        updated = data.with_properties(merged)
        self._txn.put_node(updated)
        return Node(self, updated)

    def add_label(self, node: NodeLike, label: str) -> Node:
        """Add a label to a node."""
        _validate_label(label)
        data = self._require_node_data(node)
        updated = data.with_label(label)
        self._txn.put_node(updated)
        return Node(self, updated)

    def remove_label(self, node: NodeLike, label: str) -> Node:
        """Remove a label from a node (no-op if absent)."""
        data = self._require_node_data(node)
        updated = data.without_label(label)
        self._txn.put_node(updated)
        return Node(self, updated)

    def delete_node(self, node: NodeLike, *, detach: bool = False) -> None:
        """Delete a node.

        A node that still has visible relationships cannot be deleted unless
        ``detach=True``, in which case the relationships are deleted first
        (Neo4j's ``DETACH DELETE``).
        """
        node_id = _node_id(node)
        self._require_node_data(node_id)
        attached = self._txn.topology_many((node_id,))[0]
        if attached:
            if not detach:
                raise ConstraintViolationError(
                    f"node {node_id} still has {len(attached)} relationship(s); "
                    "use detach=True to delete them too"
                )
            for rel_id, _other in attached:
                self._txn.delete_relationship(rel_id)
        self._txn.delete_node(node_id)

    # ------------------------------------------------------------------
    # relationship operations
    # ------------------------------------------------------------------

    def create_relationship(
        self,
        start: NodeLike,
        end: NodeLike,
        rel_type: str,
        properties: Optional[Mapping[str, PropertyValue]] = None,
    ) -> Relationship:
        """Create a relationship of ``rel_type`` from ``start`` to ``end``."""
        if not isinstance(rel_type, str) or not rel_type:
            raise ValueError("relationship types must be non-empty strings")
        rel_type = sys.intern(rel_type)
        start_id = _node_id(start)
        end_id = _node_id(end)
        self._require_node_data(start_id)
        self._require_node_data(end_id)
        clean_properties = validate_properties(properties)
        rel_id = self._engine.allocate_relationship_id()
        data = RelationshipData(
            rel_id=rel_id,
            rel_type=rel_type,
            start_node=start_id,
            end_node=end_id,
            properties=clean_properties,
        )
        self._txn.put_relationship(data, create=True)
        return Relationship(self, data)

    def get_relationship(self, relationship: RelationshipLike) -> Relationship:
        """Relationship handle; raises if it is not visible."""
        rel_id = _rel_id(relationship)
        data = self._txn.read_relationship(rel_id)
        if data is None:
            raise RelationshipNotFoundError(rel_id)
        return Relationship(self, data)

    def try_get_relationship(self, relationship: RelationshipLike) -> Optional[Relationship]:
        """Relationship handle, or ``None`` if it is not visible."""
        data = self._txn.read_relationship(_rel_id(relationship))
        return Relationship(self, data) if data is not None else None

    def relationships(self) -> Iterator[Relationship]:
        """Every relationship visible to this transaction."""
        for data in self._txn.iter_relationships():
            yield Relationship(self, data)

    def find_relationships(
        self,
        key: Optional[str] = None,
        value: Optional[PropertyValue] = None,
        *,
        rel_type: Optional[str] = None,
    ) -> List[Relationship]:
        """Relationships matching a type and/or a property equality predicate.

        Mirrors :meth:`find_nodes`: ``rel_type`` uses the relationship-type
        index, ``key``/``value`` the relationship-property index, and giving
        both is a seek over the smaller of the two entries.  Results are
        sorted by id and resolved as one batch read.
        """
        if key is None and rel_type is None:
            raise ValueError("find_relationships needs a property predicate or rel_type")
        if key is not None and value is None:
            raise ValueError("find_relationships with a property key requires a value")
        if key is None and value is not None:
            raise ValueError("find_relationships with a property value requires a key")
        if key is None:
            ids = self._txn.find_relationships_by_type(rel_type)
        elif rel_type is None:
            ids = self._txn.find_relationships_by_property(key, value)
        else:
            ids = self._txn.relationship_seek_candidates(rel_type, key, value)
        wanted = hashable_value(value)
        return [
            Relationship(self, data)
            for data in self._txn.read_relationships_many(sorted(ids))
            if data is not None
            and (rel_type is None or data.rel_type == rel_type)
            and (key is None or hashable_value(data.properties.get(key)) == wanted)
        ]

    def relationships_of(
        self,
        node: NodeLike,
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[Relationship]:
        """Visible relationships attached to ``node``."""
        data_list = self._txn.relationships_of(_node_id(node), direction, rel_types)
        return [Relationship(self, data) for data in data_list]

    def relationships_of_many(
        self,
        nodes: Sequence[NodeLike],
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[List[Relationship]]:
        """Visible relationships of each node, resolved as one batch.

        Engines expose :meth:`~repro.engine.EngineTransaction.relationships_of_many`
        (the SI engine resolves the whole candidate set in one pass and pays
        one predicate-registration visit for the batch); this wraps the
        results in handles, preserving per-node order.
        """
        return [
            [Relationship(self, data) for data in data_list]
            for data_list in self.relationship_states_of_many(
                [_node_id(node) for node in nodes], direction, rel_types
            )
        ]

    def count_relationships_of_many(
        self,
        nodes: Sequence[NodeLike],
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[int]:
        """Visible-relationship count of each node, as one topology read
        (:meth:`topology_of_many`): a degree needs no relationship state."""
        return [
            len(pairs)
            for pairs in self._txn.topology_many(
                [_node_id(node) for node in nodes], direction, rel_types
            )
        ]

    def expand(
        self,
        node: NodeLike,
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> Iterator[Tuple[Relationship, Node]]:
        """Yield ``(relationship, neighbour)`` pairs around ``node``."""
        return iter(self.expand_many((node,), direction, rel_types)[0])

    def expand_many(
        self,
        nodes: Sequence[NodeLike],
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[List[Tuple[Relationship, Node]]]:
        """One-hop expansion of many nodes as a single batched read.

        Per node, the ``(relationship, neighbour)`` pairs in adjacency
        order, relationships whose far end is not visible skipped.  The
        adjacency lists of *all* nodes resolve in one engine visit and every
        distinct neighbour id is materialised exactly once for the whole
        batch (one batched point read; under serializable isolation, one
        SIREAD-registration visit each).  :meth:`expand`, the traversal
        framework and the query executor's expand operators are all built
        on this; it wraps :meth:`expand_states_many`, one handle per distinct
        neighbour.
        """
        pairs_of = self.expand_states_many(
            [_node_id(node) for node in nodes], direction, rel_types
        )
        handles: Dict[int, Node] = {}
        for pairs in pairs_of:
            for _data, other in pairs:
                if other.node_id not in handles:
                    handles[other.node_id] = Node(self, other)
        return [
            [(Relationship(self, data), handles[other.node_id]) for data, other in pairs]
            for pairs in pairs_of
        ]

    def neighbours(
        self,
        node: NodeLike,
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[Node]:
        """Distinct neighbouring nodes of ``node``."""
        seen: Set[int] = set()
        result: List[Node] = []
        for _relationship, neighbour in self.expand(node, direction, rel_types):
            if neighbour.id not in seen:
                seen.add(neighbour.id)
                result.append(neighbour)
        return result

    def degree(self, node: NodeLike, direction: Direction = Direction.BOTH) -> int:
        """Number of visible relationships attached to ``node``."""
        return self.count_relationships_of_many((node,), direction)[0]

    def set_relationship_property(
        self, relationship: RelationshipLike, key: str, value: PropertyValue
    ) -> Relationship:
        """Set one property on a relationship."""
        validate_property_key(key)
        clean_value = validate_property_value(value)
        data = self._require_relationship_data(relationship)
        updated = data.with_property(key, clean_value)
        self._txn.put_relationship(updated)
        return Relationship(self, updated)

    def remove_relationship_property(
        self, relationship: RelationshipLike, key: str
    ) -> Relationship:
        """Remove one property from a relationship (no-op if absent)."""
        data = self._require_relationship_data(relationship)
        updated = data.without_property(key)
        self._txn.put_relationship(updated)
        return Relationship(self, updated)

    def delete_relationship(self, relationship: RelationshipLike) -> None:
        """Delete a relationship."""
        rel_id = _rel_id(relationship)
        self._require_relationship_data(rel_id)
        self._txn.delete_relationship(rel_id)

    # ------------------------------------------------------------------
    # declarative queries (Cypher subset)
    # ------------------------------------------------------------------

    def execute(
        self,
        query: str,
        parameters: Optional[Mapping[str, object]] = None,
        **params: object,
    ) -> "QueryResult":
        """Run a Cypher-subset query inside this transaction.

        Parameters may be passed as a mapping, as keyword arguments, or both
        (keywords win).  Read-only queries return a lazy result that pulls
        rows on demand from this transaction's snapshot; write queries and
        ``EXPLAIN`` execute eagerly.  See :mod:`repro.query` for the language.
        """
        merged = dict(parameters or {})
        merged.update(params)
        return _execute_query(self, self._engine, query, merged)

    # ------------------------------------------------------------------
    # counting helpers
    # ------------------------------------------------------------------

    def node_count(self) -> int:
        """Number of nodes visible to this transaction."""
        return sum(1 for _node in self._txn.iter_nodes())

    def relationship_count(self) -> int:
        """Number of relationships visible to this transaction."""
        return sum(1 for _rel in self._txn.iter_relationships())

    # ------------------------------------------------------------------
    # internal
    # ------------------------------------------------------------------

    def _require_node_data(self, node: NodeLike) -> NodeData:
        node_id = _node_id(node)
        data = self._txn.read_node(node_id)
        if data is None:
            raise NodeNotFoundError(node_id)
        return data

    def _require_relationship_data(self, relationship: RelationshipLike) -> RelationshipData:
        rel_id = _rel_id(relationship)
        data = self._txn.read_relationship(rel_id)
        if data is None:
            raise RelationshipNotFoundError(rel_id)
        return data


# The query layer's executor builds on the handle classes above, so it is
# imported once they exist.
from repro.query import execute as _execute_query  # noqa: E402
