"""Logical store operations.

The store manager applies changes as small logical operations (write node,
delete node, write relationship, delete relationship).  The same operations
are what the write-ahead log records, so this module also defines their
serialisation to and from plain dictionaries (the WAL stores them as JSON).

Keeping the log at the logical level is the standard "logical redo" approach:
replaying an operation is idempotent, which is all recovery needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.errors import WalError
from repro.graph.entity import EntityKey, EntityKind, NodeData, RelationshipData
from repro.graph.properties import COMMIT_TS_PROPERTY, PropertyValue


def _properties_to_payload(properties: Mapping[str, PropertyValue]) -> Dict[str, Any]:
    """Convert a property map into JSON-serialisable form (tuples become lists)."""
    payload: Dict[str, Any] = {}
    for key, value in properties.items():
        if isinstance(value, tuple):
            payload[key] = list(value)
        else:
            payload[key] = value
    return payload


@dataclass(frozen=True)
class WriteNodeOp:
    """Create or overwrite a node with the given logical state."""

    node: NodeData

    op_name = "write_node"

    def to_payload(self) -> Dict[str, Any]:
        return {
            "op": self.op_name,
            "node_id": self.node.node_id,
            "labels": sorted(self.node.labels),
            "properties": _properties_to_payload(self.node.properties),
        }


@dataclass(frozen=True)
class DeleteNodeOp:
    """Remove a node record (and its label/property chains)."""

    node_id: int

    op_name = "delete_node"

    def to_payload(self) -> Dict[str, Any]:
        return {"op": self.op_name, "node_id": self.node_id}


@dataclass(frozen=True)
class WriteRelationshipOp:
    """Create or overwrite a relationship with the given logical state."""

    relationship: RelationshipData

    op_name = "write_relationship"

    def to_payload(self) -> Dict[str, Any]:
        rel = self.relationship
        return {
            "op": self.op_name,
            "rel_id": rel.rel_id,
            "rel_type": rel.rel_type,
            "start_node": rel.start_node,
            "end_node": rel.end_node,
            "properties": _properties_to_payload(rel.properties),
        }


@dataclass(frozen=True)
class DeleteRelationshipOp:
    """Remove a relationship record (unlinking it from both endpoint chains)."""

    rel_id: int

    op_name = "delete_relationship"

    def to_payload(self) -> Dict[str, Any]:
        return {"op": self.op_name, "rel_id": self.rel_id}


StoreOperation = Union[WriteNodeOp, DeleteNodeOp, WriteRelationshipOp, DeleteRelationshipOp]


def build_store_operations(
    writes: Mapping[EntityKey, Optional[object]], commit_ts: Optional[int] = None
) -> List[StoreOperation]:
    """Translate a committed write set (key -> new state, ``None`` for a
    delete) into ordered store operations.

    Nodes written, then relationships written, then relationships deleted,
    then nodes deleted, so the store's structural constraints hold at every
    point of the apply.  ``commit_ts``, when given, is persisted in each
    written state's reserved commit-timestamp property.
    """
    node_writes: List[StoreOperation] = []
    rel_writes: List[StoreOperation] = []
    rel_deletes: List[StoreOperation] = []
    node_deletes: List[StoreOperation] = []
    for key, payload in writes.items():
        if payload is not None and commit_ts is not None:
            payload = payload.with_property(COMMIT_TS_PROPERTY, commit_ts)
        if key.kind is EntityKind.NODE:
            if payload is None:
                node_deletes.append(DeleteNodeOp(key.entity_id))
            else:
                node_writes.append(WriteNodeOp(payload))
        elif payload is None:
            rel_deletes.append(DeleteRelationshipOp(key.entity_id))
        else:
            rel_writes.append(WriteRelationshipOp(payload))
    return node_writes + rel_writes + rel_deletes + node_deletes


def operation_from_payload(payload: Mapping[str, Any]) -> StoreOperation:
    """Rebuild a :data:`StoreOperation` from its WAL payload."""
    op_name = payload.get("op")
    if op_name == WriteNodeOp.op_name:
        node = NodeData(
            node_id=int(payload["node_id"]),
            labels=frozenset(payload.get("labels", ())),
            properties=dict(payload.get("properties", {})),
        )
        return WriteNodeOp(node)
    if op_name == DeleteNodeOp.op_name:
        return DeleteNodeOp(int(payload["node_id"]))
    if op_name == WriteRelationshipOp.op_name:
        rel = RelationshipData(
            rel_id=int(payload["rel_id"]),
            rel_type=str(payload["rel_type"]),
            start_node=int(payload["start_node"]),
            end_node=int(payload["end_node"]),
            properties=dict(payload.get("properties", {})),
        )
        return WriteRelationshipOp(rel)
    if op_name == DeleteRelationshipOp.op_name:
        return DeleteRelationshipOp(int(payload["rel_id"]))
    raise WalError(f"unknown store operation {op_name!r} in write-ahead log")


def operations_to_payloads(operations: List[StoreOperation]) -> List[Dict[str, Any]]:
    """Serialise a batch of operations for the write-ahead log."""
    return [operation.to_payload() for operation in operations]


def operations_from_payloads(payloads: List[Mapping[str, Any]]) -> List[StoreOperation]:
    """Deserialise a batch of operations read back from the write-ahead log."""
    return [operation_from_payload(payload) for payload in payloads]
