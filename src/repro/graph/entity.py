"""Logical graph entities.

The storage layer thinks in fixed-size records; everything above it thinks in
the immutable value objects defined here.  ``NodeData`` and
``RelationshipData`` describe the full logical state of an entity at one point
in time — which is exactly what a *version* is under the paper's MVCC scheme,
so the snapshot-isolation layer stores these objects directly in its version
chains.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Mapping, Tuple

from repro.graph.properties import PropertyValue


class EntityKind(enum.Enum):
    """The two kinds of versioned entity in the store (paper Section 4)."""

    NODE = "node"
    RELATIONSHIP = "relationship"


class Direction(enum.Enum):
    """Traversal direction relative to a node."""

    OUTGOING = "outgoing"
    INCOMING = "incoming"
    BOTH = "both"

    def matches(self, node_id: int, start_node: int, end_node: int) -> bool:
        """Whether a relationship with the given endpoints matches this direction."""
        if self is Direction.OUTGOING:
            return start_node == node_id
        if self is Direction.INCOMING:
            return end_node == node_id
        return node_id in (start_node, end_node)

    def reverse(self) -> "Direction":
        """The opposite direction (BOTH is its own reverse)."""
        if self is Direction.OUTGOING:
            return Direction.INCOMING
        if self is Direction.INCOMING:
            return Direction.OUTGOING
        return Direction.BOTH


#: Entity keys are plain ints.  A node's key is its id; a relationship's key
#: is its id with :data:`REL_TAG` set.  Every hot read-path dict and set — the
#: version-store chain cache, the snapshot payload caches, write sets, lock
#: tables, SSI read sets and commit footprints — is keyed by them, so each
#: probe hashes and compares in C instead of calling back into Python.  Ids
#: of both kinds stay below :data:`MAX_ENTITY_ID` (the id allocators refuse
#: to go further), so the tag bit is never part of an id: a node key and a
#: relationship key never collide, and every node key orders before every
#: relationship key.
EntityKey = int

#: Tag bit marking a relationship key (``kind << 56 | id``).
REL_TAG = 1 << 56

#: Exclusive upper bound for node and relationship ids.
MAX_ENTITY_ID = REL_TAG

_ID_MASK = REL_TAG - 1


def node_key(node_id: int) -> EntityKey:
    """Key for a node id (the id itself)."""
    return node_id


def rel_key(rel_id: int) -> EntityKey:
    """Key for a relationship id."""
    return REL_TAG | rel_id


def is_rel_key(key: EntityKey) -> bool:
    """Whether ``key`` names a relationship."""
    return key >= REL_TAG


def key_id(key: EntityKey) -> int:
    """The node or relationship id inside ``key``."""
    return key & _ID_MASK


def key_kind(key: EntityKey) -> EntityKind:
    """The kind of entity ``key`` names."""
    return EntityKind.RELATIONSHIP if key >= REL_TAG else EntityKind.NODE


def format_key(key: EntityKey) -> str:
    """``"node:5"`` / ``"relationship:3"``: a key as diagnostics print it."""
    return f"{key_kind(key).value}:{key & _ID_MASK}"


def _freeze_properties(properties: Mapping[str, PropertyValue]) -> Dict[str, PropertyValue]:
    """Copy a property map, converting mutable arrays to tuples."""
    frozen: Dict[str, PropertyValue] = {}
    for key, value in properties.items():
        if isinstance(value, list):
            frozen[key] = tuple(value)
        else:
            frozen[key] = value
    return frozen


@dataclass(frozen=True)
class NodeData:
    """Immutable logical state of a node."""

    node_id: int
    labels: FrozenSet[str] = frozenset()
    properties: Mapping[str, PropertyValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", frozenset(self.labels))
        object.__setattr__(self, "properties", _freeze_properties(self.properties))

    @property
    def key(self) -> EntityKey:
        """Entity key of this node."""
        return self.node_id

    def with_property(self, key: str, value: PropertyValue) -> "NodeData":
        """A copy of this node with one property set."""
        props = dict(self.properties)
        props[key] = value
        return replace(self, properties=props)

    def without_property(self, key: str) -> "NodeData":
        """A copy of this node with one property removed (no-op if absent)."""
        props = dict(self.properties)
        props.pop(key, None)
        return replace(self, properties=props)

    def with_label(self, label: str) -> "NodeData":
        """A copy of this node with one label added."""
        return replace(self, labels=self.labels | {label})

    def without_label(self, label: str) -> "NodeData":
        """A copy of this node with one label removed (no-op if absent)."""
        return replace(self, labels=self.labels - {label})

    def with_properties(self, properties: Mapping[str, PropertyValue]) -> "NodeData":
        """A copy of this node with its property map replaced."""
        return replace(self, properties=dict(properties))


@dataclass(frozen=True)
class RelationshipData:
    """Immutable logical state of a relationship (a directed, typed edge)."""

    rel_id: int
    rel_type: str
    start_node: int
    end_node: int
    properties: Mapping[str, PropertyValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "properties", _freeze_properties(self.properties))

    @property
    def key(self) -> EntityKey:
        """Entity key of this relationship."""
        return REL_TAG | self.rel_id

    def other_node(self, node_id: int) -> int:
        """The endpoint that is not ``node_id``.

        For self-loops the node itself is returned.  Raises ``ValueError`` if
        ``node_id`` is not an endpoint at all.
        """
        if node_id == self.start_node:
            return self.end_node
        if node_id == self.end_node:
            return self.start_node
        raise ValueError(
            f"node {node_id} is not an endpoint of relationship {self.rel_id}"
        )

    def touches(self, node_id: int) -> bool:
        """Whether ``node_id`` is one of this relationship's endpoints."""
        return node_id in (self.start_node, self.end_node)

    def endpoints(self) -> Tuple[int, int]:
        """The ``(start_node, end_node)`` pair."""
        return (self.start_node, self.end_node)

    def with_property(self, key: str, value: PropertyValue) -> "RelationshipData":
        """A copy of this relationship with one property set."""
        props = dict(self.properties)
        props[key] = value
        return replace(self, properties=props)

    def without_property(self, key: str) -> "RelationshipData":
        """A copy of this relationship with one property removed."""
        props = dict(self.properties)
        props.pop(key, None)
        return replace(self, properties=props)

    def with_properties(
        self, properties: Mapping[str, PropertyValue]
    ) -> "RelationshipData":
        """A copy of this relationship with its property map replaced."""
        return replace(self, properties=dict(properties))


def entity_key_of(data: object) -> EntityKey:
    """Entity key of a ``NodeData`` or ``RelationshipData`` instance."""
    if isinstance(data, NodeData):
        return data.key
    if isinstance(data, RelationshipData):
        return data.key
    raise TypeError(f"not an entity payload: {type(data).__name__}")
