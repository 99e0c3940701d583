"""Logical store operations and their write-ahead-log encoding.

The store manager applies changes as small logical operations (write node,
delete node, write relationship, delete relationship).  The same operations
are what the write-ahead log records: each one encodes itself, once, straight
into the JSON text of its log entry (:meth:`encode`), and replay parses that
text back with :func:`operation_from_payload`.

The encoding is byte-for-byte what ``json.dumps(payload, separators=(",",
":"), sort_keys=True)`` makes of the operation's payload dict — the keys of
each object in sorted order, strings ASCII-escaped — without building the
dict.  A write's commit timestamp travels beside the entity state
(``commit_ts``) instead of in a copy of it: the encoder writes it as the
reserved commit-timestamp property, and the store adds it where it encodes
property keys, so the log and the store files hold what they held when the
timestamp was copied into the state.

Keeping the log at the logical level is the standard "logical redo" approach:
replaying an operation is idempotent, which is all recovery needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string
from typing import AbstractSet, Any, List, Mapping, Optional, Union

from repro.errors import WalError
from repro.graph.entity import REL_TAG, EntityKey, NodeData, RelationshipData, key_id
from repro.graph.properties import COMMIT_TS_PROPERTY, PropertyValue

_INFINITY = float("inf")


def _json_value(value: PropertyValue) -> str:
    """One property value as ``json.dumps`` writes it (arrays as lists)."""
    if isinstance(value, str):
        return _json_string(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    return "[" + ",".join([_json_value(item) for item in value]) + "]"


def _json_properties(
    properties: Mapping[str, PropertyValue], commit_ts: Optional[int]
) -> str:
    """A property map, plus the commit timestamp when given, as a JSON object."""
    if commit_ts is not None:
        properties = {**properties, COMMIT_TS_PROPERTY: commit_ts}
    return "{" + ",".join(
        [_json_string(key) + ":" + _json_value(value) for key, value in sorted(properties.items())]
    ) + "}"


@dataclass(frozen=True)
class WriteNodeOp:
    """Create or overwrite a node with the given logical state.

    ``commit_ts``, when set, is stored as the node's reserved commit-timestamp
    property.  ``created`` is what the committer knows: ``True`` for a
    create, ``False`` for an overwrite of a live node, ``None`` (replay,
    direct writes) when the store must look.  It is not logged.
    """

    node: NodeData
    commit_ts: Optional[int] = None
    created: Optional[bool] = field(default=None, compare=False)

    op_name = "write_node"

    @property
    def key(self) -> EntityKey:
        """The key of the entity the operation writes or deletes."""
        return self.node.node_id

    def encode(self) -> bytes:
        node = self.node
        return (
            '{"labels":[%s],"node_id":%d,"op":"write_node","properties":%s}'
            % (
                ",".join(map(_json_string, sorted(node.labels))),
                node.node_id,
                _json_properties(node.properties, self.commit_ts),
            )
        ).encode("ascii")


@dataclass(frozen=True)
class DeleteNodeOp:
    """Remove a node record (and its label/property chains)."""

    node_id: int

    op_name = "delete_node"

    @property
    def key(self) -> EntityKey:
        """The key of the entity the operation writes or deletes."""
        return self.node_id

    def encode(self) -> bytes:
        return b'{"node_id":%d,"op":"delete_node"}' % self.node_id


@dataclass(frozen=True)
class WriteRelationshipOp:
    """Create or overwrite a relationship with the given logical state.

    ``commit_ts`` and ``created`` as for :class:`WriteNodeOp`.
    """

    relationship: RelationshipData
    commit_ts: Optional[int] = None
    created: Optional[bool] = field(default=None, compare=False)

    op_name = "write_relationship"

    @property
    def key(self) -> EntityKey:
        """The key of the entity the operation writes or deletes."""
        return REL_TAG | self.relationship.rel_id

    def encode(self) -> bytes:
        rel = self.relationship
        return (
            '{"end_node":%d,"op":"write_relationship","properties":%s,'
            '"rel_id":%d,"rel_type":%s,"start_node":%d}'
            % (
                rel.end_node,
                _json_properties(rel.properties, self.commit_ts),
                rel.rel_id,
                _json_string(rel.rel_type),
                rel.start_node,
            )
        ).encode("ascii")


@dataclass(frozen=True)
class DeleteRelationshipOp:
    """Remove a relationship record (and its count on each endpoint)."""

    rel_id: int

    op_name = "delete_relationship"

    @property
    def key(self) -> EntityKey:
        """The key of the entity the operation writes or deletes."""
        return REL_TAG | self.rel_id

    def encode(self) -> bytes:
        return b'{"op":"delete_relationship","rel_id":%d}' % self.rel_id


StoreOperation = Union[WriteNodeOp, DeleteNodeOp, WriteRelationshipOp, DeleteRelationshipOp]


def build_store_operations(
    writes: Mapping[EntityKey, Optional[object]],
    commit_ts: Optional[int] = None,
    created: Optional[AbstractSet[EntityKey]] = None,
) -> List[StoreOperation]:
    """Translate a committed write set (key -> new state, ``None`` for a
    delete) into ordered store operations.

    Nodes written, then relationships written, then relationships deleted,
    then nodes deleted, so the store's structural constraints hold at every
    point of the apply.  ``commit_ts``, when given, rides on each write, to
    be persisted as the written state's reserved commit-timestamp property.
    ``created``, when given, is every written key the batch creates; each
    other write then overwrites a live entity (the ops' ``created`` flag).
    """
    known = created is not None
    node_writes: List[StoreOperation] = []
    rel_writes: List[StoreOperation] = []
    rel_deletes: List[StoreOperation] = []
    node_deletes: List[StoreOperation] = []
    for key, payload in writes.items():
        if key < REL_TAG:
            if payload is None:
                node_deletes.append(DeleteNodeOp(key))
            else:
                node_writes.append(
                    WriteNodeOp(payload, commit_ts, key in created if known else None)
                )
        elif payload is None:
            rel_deletes.append(DeleteRelationshipOp(key_id(key)))
        else:
            rel_writes.append(
                WriteRelationshipOp(payload, commit_ts, key in created if known else None)
            )
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


def operations_from_payloads(payloads: List[Mapping[str, Any]]) -> List[StoreOperation]:
    """Deserialise a batch of operations read back from the write-ahead log."""
    return [operation_from_payload(payload) for payload in payloads]
