"""The wire protocol: length-prefixed JSON frames and the value codec.

Every message — request and response alike — is one *frame*: a 4-byte
big-endian unsigned length followed by that many bytes of UTF-8 JSON.  The
format is deliberately boring: it works from any language with a socket and
a JSON parser, survives partial reads, and caps frame size so a broken (or
hostile) peer cannot make the server buffer unbounded input.

Requests are objects with an ``op`` field (``hello``, ``execute``, ``begin``,
``commit``, ``rollback``, ``ping``, ``stats``, ``goodbye``).  Responses carry
``{"ok": true, ...}`` or ``{"ok": false, "error": {...}}`` where the error
object names the :mod:`repro.errors` class (``code``), the message, and a
``retryable`` flag so clients can drive retry loops without string matching.

Result values cross the wire through :func:`encode_value` /
:func:`decode_value`: JSON scalars pass through; graph entities become
tagged objects (``{"~entity": "node", ...}``) and decode into the
:class:`RemoteNode` / :class:`RemoteRelationship` / :class:`RemotePath`
dataclasses the client library hands back.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ProtocolError, ReproError, TransactionAbortedError, classify_abort

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_PORT",
    "DEFAULT_MAX_FRAME_BYTES",
    "RemoteNode",
    "RemoteRelationship",
    "RemotePath",
    "encode_frame",
    "decode_payload",
    "read_frame",
    "write_frame",
    "encode_value",
    "decode_value",
    "error_payload",
    "error_response",
]

#: Bumped on incompatible wire changes; HELLO carries it both ways.
PROTOCOL_VERSION = 1

#: Registered-ports neighbourhood of the Bolt port, but distinct from it.
DEFAULT_PORT = 7688

#: Upper bound on one frame (16 MiB) — large result sets should paginate
#: with SKIP/LIMIT rather than ship one giant frame.
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct("!I")


# ---------------------------------------------------------------------------
# remote entity handles (what tagged wire values decode into)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RemoteNode:
    """A node as returned over the wire: plain data, no live transaction."""

    id: int
    labels: Tuple[str, ...] = ()
    properties: Dict[str, object] = field(default_factory=dict)

    def __getitem__(self, key: str) -> object:
        return self.properties[key]

    def get(self, key: str, default: object = None) -> object:
        """Property value, or ``default`` if absent."""
        return self.properties.get(key, default)


@dataclass(frozen=True)
class RemoteRelationship:
    """A relationship as returned over the wire."""

    id: int
    type: str
    start_node_id: int
    end_node_id: int
    properties: Dict[str, object] = field(default_factory=dict)

    def __getitem__(self, key: str) -> object:
        return self.properties[key]

    def get(self, key: str, default: object = None) -> object:
        """Property value, or ``default`` if absent."""
        return self.properties.get(key, default)


@dataclass(frozen=True)
class RemotePath:
    """A path as returned over the wire."""

    nodes: Tuple[RemoteNode, ...]
    relationships: Tuple[RemoteRelationship, ...]

    @property
    def length(self) -> int:
        """Number of relationships in the path."""
        return len(self.relationships)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def encode_frame(payload: dict) -> bytes:
    """Serialise one message to its on-wire bytes (length prefix + JSON)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return _LENGTH.pack(len(body)) + body


def decode_payload(body: bytes) -> dict:
    """Parse a frame body; raises :class:`ProtocolError` on garbage."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must decode to an object, got {type(payload).__name__}"
        )
    return payload


def write_frame(sock: socket.socket, payload: dict) -> None:
    """Send one message over a blocking socket."""
    sock.sendall(encode_frame(payload))


def read_frame(
    sock: socket.socket, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Optional[dict]:
    """Read one message from a blocking socket; ``None`` on clean EOF.

    EOF in the middle of a frame is a :class:`ProtocolError` — the peer
    died mid-message.
    """
    header = _recv_exactly(sock, _LENGTH.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > max_frame_bytes:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame_bytes}-byte limit"
        )
    body = _recv_exactly(sock, length, eof_ok=False)
    return decode_payload(body)


def _recv_exactly(
    sock: socket.socket, count: int, *, eof_ok: bool
) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# value codec
# ---------------------------------------------------------------------------

_ENTITY_KEY = "~entity"


def encode_value(value: object) -> object:
    """Map one result value onto JSON-able wire form.

    Scalars pass through; graph entity handles (live server-side ones and
    the remote dataclasses alike) become tagged objects; containers encode
    recursively.  Maps with a literal ``~entity`` key are rejected rather
    than silently corrupted.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(encode_value(item) for item in value)
    if isinstance(value, dict):
        if _ENTITY_KEY in value:
            raise ProtocolError(f"maps may not carry the reserved key {_ENTITY_KEY!r}")
        return {str(key): encode_value(item) for key, item in value.items()}
    # Live API handles and remote dataclasses share attribute shapes, so one
    # duck-typed branch covers both directions of the codec.
    node = _encode_node(value)
    if node is not None:
        return node
    relationship = _encode_relationship(value)
    if relationship is not None:
        return relationship
    nodes = getattr(value, "nodes", None)
    relationships = getattr(value, "relationships", None)
    if nodes is not None and relationships is not None and not callable(relationships):
        return {
            _ENTITY_KEY: "path",
            "nodes": [encode_value(item) for item in nodes],
            "relationships": [encode_value(item) for item in relationships],
        }
    raise ProtocolError(
        f"value of type {type(value).__name__} cannot cross the wire"
    )


def _encode_node(value: object) -> Optional[dict]:
    labels = getattr(value, "labels", None)
    if labels is None or not hasattr(value, "properties") or hasattr(value, "type"):
        return None
    return {
        _ENTITY_KEY: "node",
        "id": value.id,
        "labels": sorted(labels),
        "properties": {
            key: encode_value(item) for key, item in value.properties.items()
        },
    }


def _encode_relationship(value: object) -> Optional[dict]:
    rel_type = getattr(value, "type", None)
    if rel_type is None or not hasattr(value, "start_node_id"):
        return None
    return {
        _ENTITY_KEY: "relationship",
        "id": value.id,
        "type": rel_type,
        "start": value.start_node_id,
        "end": value.end_node_id,
        "properties": {
            key: encode_value(item) for key, item in value.properties.items()
        },
    }


def decode_value(value: object) -> object:
    """Inverse of :func:`encode_value` (entities become remote dataclasses)."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        kind = value.get(_ENTITY_KEY)
        if kind is None:
            return {key: decode_value(item) for key, item in value.items()}
        if kind == "node":
            return RemoteNode(
                id=value["id"],
                labels=tuple(value.get("labels", ())),
                properties={
                    key: decode_value(item)
                    for key, item in value.get("properties", {}).items()
                },
            )
        if kind == "relationship":
            return RemoteRelationship(
                id=value["id"],
                type=value["type"],
                start_node_id=value["start"],
                end_node_id=value["end"],
                properties={
                    key: decode_value(item)
                    for key, item in value.get("properties", {}).items()
                },
            )
        if kind == "path":
            return RemotePath(
                nodes=tuple(decode_value(item) for item in value.get("nodes", ())),
                relationships=tuple(
                    decode_value(item) for item in value.get("relationships", ())
                ),
            )
        raise ProtocolError(f"unknown entity tag {kind!r}")
    return value


# ---------------------------------------------------------------------------
# error mapping
# ---------------------------------------------------------------------------


def error_payload(exc: BaseException) -> dict:
    """The wire form of an exception (the response's ``error`` object)."""
    payload: Dict[str, object] = {
        "code": type(exc).__name__,
        "message": str(exc) or type(exc).__name__,
        "retryable": bool(getattr(exc, "retryable", False)),
    }
    if isinstance(exc, TransactionAbortedError):
        payload["reason"] = classify_abort(exc)
    if not isinstance(exc, ReproError):
        # Unexpected server-side failure: clients map unknown codes onto
        # ServerError, so keep the real class name for the log line only.
        payload["code"] = "ServerError"
        payload["message"] = f"{type(exc).__name__}: {exc}"
    return payload


def error_response(exc: BaseException) -> dict:
    """A full ``{"ok": false}`` response for ``exc``."""
    return {"ok": False, "error": error_payload(exc)}
