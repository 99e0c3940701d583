"""Fixed-size record formats and the generic record store.

Section 2 of the paper describes Neo4j's storage layout: "Nodes are kept in a
file whose position is determined by the node identifier", relationships live
in a second file and properties in a third.  This module defines the binary
record formats for those files and a generic :class:`RecordStore` that reads
and writes one record type through a :class:`~repro.graph.paging.PagedFile`.

Record layouts (little-endian):

``NodeRecord`` (32 bytes)
    ``in_use``, ``rel_count`` (in-use relationships that name the node, a
    self-loop once), ``first_prop`` (head of the property chain),
    ``label_ref`` (dynamic-store chain holding the node's label token ids).

``RelationshipRecord`` (32 bytes)
    ``in_use``, ``start_node``, ``end_node``, ``type_id`` and ``first_prop``.
    Neo4j also threads each relationship into per-node chains; here every
    adjacency read is answered by the in-memory adjacency index, so the
    record keeps only what the relationship is.

``PropertyRecord`` (32 bytes)
    ``in_use``, ``key_id``, ``value_type``, an 8-byte inline value slot (or a
    pointer into a dynamic store for long strings and arrays) and ``prev`` /
    ``next`` chain pointers.

``DynamicRecord`` (64 bytes)
    chained variable-length blocks used for long strings, arrays and label
    lists.

``TokenRecord`` (16 bytes)
    one interned token name, stored as a pointer into a dynamic store.

Each record class carries a precompiled ``struct.Struct`` (``CODEC``) that
spans the whole slot, zero padding included, plus ``fields()`` /
``from_fields()`` to go between a record and the codec's tuple.
:class:`RecordStore` unpacks a record straight from the cached page and packs
it straight into it, under the page cache's one lock; only a record that
straddles a page boundary goes through a byte copy.  The 16-byte store header
makes that one slot per page for the 32- and 64-byte records (32-byte id 127,
64-byte id 63, and every 128th or 64th id after them); 16-byte token records
never straddle.  ``pack()`` / ``unpack()`` give the same bytes for tests and
tools.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Generic, Iterator, List, Optional, Type, TypeVar

from repro.errors import RecordNotInUseError, StoreCorruptionError
from repro.graph.paging import PagedFile

#: Null reference used by every chain pointer field.
NULL_REF = -1

#: What following a stored reference raises when the state behind it cannot be
#: read back: a record or block that is not in use, a chain that loops, bytes
#: that do not decode.  WAL replay meets all of them in a page image a crash
#: tore, and treats them as "nothing usable stored here".
UNREADABLE = (StoreCorruptionError, RecordNotInUseError)

#: Size in bytes of the per-store header written at offset zero.
STORE_HEADER_SIZE = 16

#: Magic number identifying a repro record store file.
STORE_MAGIC = b"RPRO"

#: On-disk format version, bumped when any record layout changes; a store
#: file of another version is refused on open.
STORE_FORMAT_VERSION = 2


class _Record:
    """``pack()`` / ``unpack()`` for a record class with ``CODEC``,
    ``fields()`` and ``from_fields()``."""

    __slots__ = ()

    def pack(self) -> bytes:
        return self.CODEC.pack(*self.fields())

    @classmethod
    def unpack(cls, data: bytes):
        """Decode one record; a short buffer is a corrupt store."""
        try:
            fields = cls.CODEC.unpack_from(data)
        except struct.error as exc:
            raise StoreCorruptionError(f"cannot decode {cls.__name__}: {exc}") from exc
        return cls.from_fields(fields)


@dataclass(slots=True)
class NodeRecord(_Record):
    """One slot in the node store."""

    in_use: bool = False
    rel_count: int = 0
    first_prop: int = NULL_REF
    label_ref: int = NULL_REF

    CODEC = struct.Struct("<Bqqq7x")
    RECORD_SIZE = CODEC.size

    def fields(self) -> tuple:
        return (1 if self.in_use else 0, self.rel_count, self.first_prop, self.label_ref)

    @classmethod
    def from_fields(cls, fields: tuple) -> "NodeRecord":
        in_use, rel_count, first_prop, label_ref = fields
        return cls(bool(in_use), rel_count, first_prop, label_ref)


@dataclass(slots=True)
class RelationshipRecord(_Record):
    """One slot in the relationship store."""

    in_use: bool = False
    start_node: int = NULL_REF
    end_node: int = NULL_REF
    type_id: int = NULL_REF
    first_prop: int = NULL_REF

    CODEC = struct.Struct("<Bqqiq3x")
    RECORD_SIZE = CODEC.size

    def fields(self) -> tuple:
        return (
            1 if self.in_use else 0,
            self.start_node,
            self.end_node,
            self.type_id,
            self.first_prop,
        )

    @classmethod
    def from_fields(cls, fields: tuple) -> "RelationshipRecord":
        in_use, start_node, end_node, type_id, first_prop = fields
        return cls(bool(in_use), start_node, end_node, type_id, first_prop)


@dataclass(slots=True)
class PropertyRecord(_Record):
    """One slot in the property store (a link in an entity's property chain)."""

    in_use: bool = False
    key_id: int = NULL_REF
    value_type: int = 0
    inline_value: bytes = b"\x00" * 8
    prev_prop: int = NULL_REF
    next_prop: int = NULL_REF

    # ``8s`` pads a short inline value with zero bytes and truncates a long one.
    CODEC = struct.Struct("<BiB8sqq2x")
    RECORD_SIZE = CODEC.size

    def fields(self) -> tuple:
        return (
            1 if self.in_use else 0,
            self.key_id,
            self.value_type,
            self.inline_value,
            self.prev_prop,
            self.next_prop,
        )

    @classmethod
    def from_fields(cls, fields: tuple) -> "PropertyRecord":
        in_use, key_id, value_type, inline, prev_prop, next_prop = fields
        return cls(bool(in_use), key_id, value_type, inline, prev_prop, next_prop)


@dataclass(slots=True)
class DynamicRecord(_Record):
    """One block of a chained variable-length value."""

    in_use: bool = False
    length: int = 0
    next_block: int = NULL_REF
    payload: bytes = b""

    HEADER_FORMAT = "<BIq"
    RECORD_SIZE = 64
    PAYLOAD_SIZE = RECORD_SIZE - struct.calcsize(HEADER_FORMAT)
    CODEC = struct.Struct(f"{HEADER_FORMAT}{PAYLOAD_SIZE}s")

    def fields(self) -> tuple:
        return (1 if self.in_use else 0, self.length, self.next_block, self.payload)

    @classmethod
    def from_fields(cls, fields: tuple) -> "DynamicRecord":
        in_use, length, next_block, payload = fields
        if length > cls.PAYLOAD_SIZE:
            raise StoreCorruptionError(
                f"dynamic record claims {length} payload bytes, "
                f"maximum is {cls.PAYLOAD_SIZE}"
            )
        return cls(bool(in_use), length, next_block, payload[:length])


@dataclass(slots=True)
class TokenRecord(_Record):
    """One interned token (label, relationship type or property key) name."""

    in_use: bool = False
    name_ref: int = NULL_REF

    CODEC = struct.Struct("<Bq7x")
    RECORD_SIZE = CODEC.size

    def fields(self) -> tuple:
        return (1 if self.in_use else 0, self.name_ref)

    @classmethod
    def from_fields(cls, fields: tuple) -> "TokenRecord":
        in_use, name_ref = fields
        return cls(bool(in_use), name_ref)


RecordT = TypeVar(
    "RecordT", NodeRecord, RelationshipRecord, PropertyRecord, DynamicRecord, TokenRecord
)


class RecordStore(Generic[RecordT]):
    """A file of fixed-size records addressed by record id.

    The record id determines the byte offset directly — exactly the property
    of Neo4j's store files that Section 2 of the paper points out ("whose
    position is determined by the node identifier").

    Unlocked: a record read or write is atomic under the page cache's lock,
    and the store manager's latch serialises the writers, which also keeps
    the high-water mark exact.
    """

    def __init__(
        self, paged_file: PagedFile, record_class: Type[RecordT], store_name: str
    ) -> None:
        self._file = paged_file
        self._record_class = record_class
        self._codec: struct.Struct = record_class.CODEC
        self._from_fields = record_class.from_fields
        self._record_size: int = record_class.RECORD_SIZE
        self._name = store_name
        self._high_water = self._infer_high_water()
        self._ensure_header()

    @property
    def name(self) -> str:
        """Store name used in write-ahead log entries and error messages."""
        return self._name

    @property
    def record_size(self) -> int:
        """Size in bytes of one record slot."""
        return self._record_size

    def high_water_mark(self) -> int:
        """One past the highest record id ever written."""
        return self._high_water

    def read(self, record_id: int) -> RecordT:
        """Read the record at ``record_id`` (never-written slots read as not in use)."""
        if record_id < 0:
            raise ValueError(f"record id must be non-negative, got {record_id}")
        return self._from_fields(
            self._file.unpack(STORE_HEADER_SIZE + record_id * self._record_size, self._codec)
        )

    def write(self, record_id: int, record: RecordT) -> None:
        """Write ``record`` into slot ``record_id``."""
        if record_id < 0:
            raise ValueError(f"record id must be non-negative, got {record_id}")
        self._file.pack(
            STORE_HEADER_SIZE + record_id * self._record_size, self._codec, record.fields()
        )
        if record_id >= self._high_water:
            self._high_water = record_id + 1

    def mark_not_in_use(self, record_id: int) -> None:
        """Clear the in-use flag of a slot (the rest of the bytes are kept).

        Every record layout leads with its in-use byte, so this is a
        one-byte write — no read, unpack and re-pack of the record.
        """
        if record_id < 0:
            raise ValueError(f"record id must be non-negative, got {record_id}")
        self._file.write(self._offset(record_id), b"\x00")

    def iter_used_ids(self) -> Iterator[int]:
        """Yield every record id whose slot is marked in use."""
        for record_id in range(self.high_water_mark()):
            if self.read(record_id).in_use:
                yield record_id

    def iter_used_records(self) -> Iterator[tuple]:
        """Yield ``(record_id, record)`` for every in-use slot."""
        for record_id in range(self.high_water_mark()):
            record = self.read(record_id)
            if record.in_use:
                yield record_id, record

    def used_ids(self) -> List[int]:
        """All in-use record ids as a list (used to rebuild id allocators)."""
        return list(self.iter_used_ids())

    def count_in_use(self) -> int:
        """Number of in-use records (linear scan)."""
        return sum(1 for _ in self.iter_used_ids())

    def flush(self) -> None:
        """Flush the underlying paged file."""
        self._file.flush()

    def close(self) -> None:
        """Flush and close the underlying paged file."""
        self._file.close()

    # -- internal ----------------------------------------------------------

    def _offset(self, record_id: int) -> int:
        return STORE_HEADER_SIZE + record_id * self._record_size

    def _infer_high_water(self) -> int:
        size = self._file.size()
        if size <= STORE_HEADER_SIZE:
            return 0
        return (size - STORE_HEADER_SIZE + self._record_size - 1) // self._record_size

    def _ensure_header(self) -> None:
        header = self._file.read(0, STORE_HEADER_SIZE)
        if header[:4] == b"\x00\x00\x00\x00":
            fresh = struct.pack(
                "<4sII", STORE_MAGIC, STORE_FORMAT_VERSION, self._record_size
            ).ljust(STORE_HEADER_SIZE, b"\x00")
            self._file.write(0, fresh)
            return
        magic, version, record_size = struct.unpack_from("<4sII", header)
        if magic != STORE_MAGIC:
            raise StoreCorruptionError(
                f"store {self._name}: bad magic {magic!r}, expected {STORE_MAGIC!r}"
            )
        if version != STORE_FORMAT_VERSION:
            raise StoreCorruptionError(
                f"store {self._name}: format version {version} is not supported"
            )
        if record_size != self._record_size:
            raise StoreCorruptionError(
                f"store {self._name}: record size {record_size} on disk, "
                f"expected {self._record_size}"
            )
