"""Property store: encoding property values into chained fixed-size records.

Each node or relationship record points at the head of a property chain.  A
chain link (:class:`~repro.graph.records.PropertyRecord`) stores the property
key token id, a type tag and either an inline 8-byte value (booleans,
integers, floats, short strings) or a reference into a dynamic store (long
strings and arrays), mirroring Neo4j's short-string optimisation.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Tuple

from repro.errors import InvalidPropertyValueError, StoreCorruptionError
from repro.graph.dynamic_store import DynamicStore
from repro.graph.id_allocator import IdAllocator
from repro.graph.paging import PagedFile
from repro.graph.properties import PropertyValue
from repro.graph.records import NULL_REF, UNREADABLE, PropertyRecord, RecordStore


class PropertyType:
    """Type tags stored in the ``value_type`` field of a property record."""

    BOOL = 1
    INT = 2
    FLOAT = 3
    SHORT_STRING = 4
    LONG_STRING = 5
    ARRAY = 6


_ARRAY_ELEMENT_BOOL = 1
_ARRAY_ELEMENT_INT = 2
_ARRAY_ELEMENT_FLOAT = 3
_ARRAY_ELEMENT_STRING = 4

#: Longest UTF-8 string (in bytes) that fits inline in a property record.
SHORT_STRING_LIMIT = 7

#: Types whose value lives in the dynamic store; the record's inline bytes
#: hold the first block's id.
_DYNAMIC_TYPES = (PropertyType.LONG_STRING, PropertyType.ARRAY)


def _block_ref(inline: bytes) -> int:
    return struct.unpack_from("<q", inline)[0]


def encode_array(values: List[PropertyValue]) -> bytes:
    """Serialise a homogeneous array property into bytes for the dynamic store."""
    items = list(values)
    if not items:
        return struct.pack("<BI", 0, 0)
    first = items[0]
    if isinstance(first, bool):
        body = struct.pack(f"<{len(items)}B", *(1 if item else 0 for item in items))
        tag = _ARRAY_ELEMENT_BOOL
    elif isinstance(first, int):
        body = struct.pack(f"<{len(items)}q", *items)
        tag = _ARRAY_ELEMENT_INT
    elif isinstance(first, float):
        body = struct.pack(f"<{len(items)}d", *items)
        tag = _ARRAY_ELEMENT_FLOAT
    elif isinstance(first, str):
        encoded = [item.encode("utf-8") for item in items]
        body = b"".join(struct.pack("<I", len(raw)) + raw for raw in encoded)
        tag = _ARRAY_ELEMENT_STRING
    else:  # pragma: no cover - validate_properties rejects this earlier
        raise InvalidPropertyValueError(
            f"cannot encode array of {type(first).__name__}"
        )
    return struct.pack("<BI", tag, len(items)) + body


def decode_array(data: bytes) -> List[PropertyValue]:
    """Inverse of :func:`encode_array`."""
    if len(data) < 5:
        raise StoreCorruptionError("array payload shorter than its header")
    tag, count = struct.unpack_from("<BI", data)
    body = data[5:]
    if count == 0:
        return []
    if tag == _ARRAY_ELEMENT_BOOL:
        return [bool(value) for value in struct.unpack_from(f"<{count}B", body)]
    if tag == _ARRAY_ELEMENT_INT:
        return list(struct.unpack_from(f"<{count}q", body))
    if tag == _ARRAY_ELEMENT_FLOAT:
        return list(struct.unpack_from(f"<{count}d", body))
    if tag == _ARRAY_ELEMENT_STRING:
        values: List[PropertyValue] = []
        offset = 0
        for _ in range(count):
            (length,) = struct.unpack_from("<I", body, offset)
            offset += 4
            values.append(body[offset:offset + length].decode("utf-8"))
            offset += length
        return values
    raise StoreCorruptionError(f"unknown array element tag {tag}")


class PropertyStore:
    """File of property records plus the dynamic store for oversized values."""

    def __init__(
        self,
        paged_file: PagedFile,
        value_store: DynamicStore,
        store_name: str = "property",
    ) -> None:
        self._records: RecordStore[PropertyRecord] = RecordStore(
            paged_file, PropertyRecord, store_name
        )
        self._values = value_store
        self._allocator = IdAllocator()
        self._allocator.rebuild(self._records.used_ids())

    @property
    def name(self) -> str:
        """Store name used in diagnostics."""
        return self._records.name

    # -- value encoding ----------------------------------------------------

    @staticmethod
    def _encode_value(value: PropertyValue) -> Tuple[int, bytes]:
        """Encode a value into ``(type_tag, data)`` without touching a store.

        ``data`` is the record's 8 inline bytes, or — for the types in
        ``_DYNAMIC_TYPES`` — the payload bound for the dynamic store.
        """
        if isinstance(value, bool):
            return PropertyType.BOOL, struct.pack("<q", 1 if value else 0)
        if isinstance(value, int):
            return PropertyType.INT, struct.pack("<q", value)
        if isinstance(value, float):
            return PropertyType.FLOAT, struct.pack("<d", value)
        if isinstance(value, str):
            raw = value.encode("utf-8")
            if len(raw) <= SHORT_STRING_LIMIT:
                inline = bytes([len(raw)]) + raw
                return PropertyType.SHORT_STRING, inline.ljust(8, b"\x00")
            return PropertyType.LONG_STRING, raw
        if isinstance(value, (list, tuple)):
            return PropertyType.ARRAY, encode_array(list(value))
        raise InvalidPropertyValueError(
            f"cannot encode property value of type {type(value).__name__}"
        )

    def _store_value(self, value_type: int, data: bytes) -> bytes:
        """The inline bytes for an encoded value, writing dynamic payloads out."""
        if value_type in _DYNAMIC_TYPES:
            return struct.pack("<q", self._values.write_bytes(data))
        return data

    def _holds_value(self, record: PropertyRecord, value_type: int, data: bytes) -> bool:
        """Whether ``record`` already stores exactly this encoded value.

        A dynamic value that cannot be read back counts as different.
        """
        if record.value_type != value_type:
            return False
        if value_type not in _DYNAMIC_TYPES:
            return record.inline_value == data
        try:
            return self._values.read_bytes(_block_ref(record.inline_value)) == data
        except UNREADABLE:
            return False

    def _decode_value(self, value_type: int, inline: bytes) -> PropertyValue:
        if value_type == PropertyType.BOOL:
            return bool(struct.unpack_from("<q", inline)[0])
        if value_type == PropertyType.INT:
            return struct.unpack_from("<q", inline)[0]
        if value_type == PropertyType.FLOAT:
            return struct.unpack_from("<d", inline)[0]
        if value_type == PropertyType.SHORT_STRING:
            length = inline[0]
            return inline[1:1 + length].decode("utf-8")
        if value_type == PropertyType.LONG_STRING:
            return self._values.read_bytes(_block_ref(inline)).decode("utf-8")
        if value_type == PropertyType.ARRAY:
            return decode_array(self._values.read_bytes(_block_ref(inline)))
        raise StoreCorruptionError(f"unknown property type tag {value_type}")

    def _free_value(self, value_type: int, inline: bytes) -> None:
        if value_type in _DYNAMIC_TYPES:
            self._values.free_chain(_block_ref(inline))

    # -- chain management ---------------------------------------------------

    def write_chain(self, properties: Dict[int, PropertyValue]) -> int:
        """Write a property map (keyed by key token id) as a fresh chain.

        Returns the record id of the chain head, or ``NULL_REF`` for an empty
        map.
        """
        if not properties:
            return NULL_REF
        items = sorted(properties.items())
        record_ids = [self._allocator.allocate() for _ in items]
        for index, (key_id, value) in enumerate(items):
            value_type, data = self._encode_value(value)
            record = PropertyRecord(
                in_use=True,
                key_id=key_id,
                value_type=value_type,
                inline_value=self._store_value(value_type, data),
                prev_prop=record_ids[index - 1] if index > 0 else NULL_REF,
                next_prop=(
                    record_ids[index + 1] if index + 1 < len(record_ids) else NULL_REF
                ),
            )
            self._records.write(record_ids[index], record)
        return record_ids[0]

    def _iter_chain(self, first_prop: int) -> Iterator[Tuple[int, PropertyRecord]]:
        """Yield ``(record_id, record)`` along a chain.

        Raises :class:`StoreCorruptionError` at a record that is not in use or
        that closes a cycle; everything yielded before that is sound.
        """
        record_id = first_prop
        seen = set()
        while record_id != NULL_REF:
            if record_id in seen:
                raise StoreCorruptionError(
                    f"{self.name}: property chain cycle at record {record_id}"
                )
            seen.add(record_id)
            record = self._records.read(record_id)
            if not record.in_use:
                raise StoreCorruptionError(
                    f"{self.name}: property record {record_id} is not in use"
                )
            yield record_id, record
            record_id = record.next_prop

    def read_chain(self, first_prop: int) -> Dict[int, PropertyValue]:
        """Read a property chain back into a ``{key_id: value}`` map."""
        return {
            record.key_id: self._decode_value(record.value_type, record.inline_value)
            for _, record in self._iter_chain(first_prop)
        }

    def free_chain(self, first_prop: int) -> int:
        """Free a property chain (and any dynamic values it references)."""
        freed = 0
        record_id = first_prop
        while record_id != NULL_REF:
            record = self._records.read(record_id)
            if not record.in_use:
                break
            self._free_value(record.value_type, record.inline_value)
            next_prop = record.next_prop
            self._records.mark_not_in_use(record_id)
            self._allocator.free(record_id)
            freed += 1
            record_id = next_prop
        return freed

    def replace_chain(self, first_prop: int, properties: Dict[int, PropertyValue]) -> int:
        """Make the chain at ``first_prop`` hold ``properties``; returns its head.

        The one overwrite routine of the store (commit apply, direct writes
        and WAL replay alike).  When the stored chain reads back and holds
        exactly the keys of ``properties``, only the records whose encoded
        value differs are rewritten, in place, and a long string's or array's
        dynamic blocks are replaced only if that value changed; the head is
        returned unchanged.  Any structural difference — a key added or
        removed, or stored state that cannot be read back (replay runs over
        whatever page image a crash left) — frees what the old head still
        reaches and writes a fresh chain.
        """
        if first_prop == NULL_REF:
            return self.write_chain(properties)
        try:
            stored = list(self._iter_chain(first_prop))
        except UNREADABLE:
            stored = None
        if (
            stored is None
            or len(stored) != len(properties)
            or {record.key_id for _, record in stored} != properties.keys()
        ):
            self.free_chain(first_prop)
            return self.write_chain(properties)
        for record_id, record in stored:
            value_type, data = self._encode_value(properties[record.key_id])
            if self._holds_value(record, value_type, data):
                continue
            self._free_value(record.value_type, record.inline_value)
            record.value_type = value_type
            record.inline_value = self._store_value(value_type, data)
            self._records.write(record_id, record)
        return first_prop

    def chain_footprint(self, first_prop: int) -> Tuple[List[int], List[int]]:
        """In-use ``(record ids, dynamic block ids)`` reachable from a chain head.

        For the consistency checker's leak count; stops quietly where
        :meth:`read_chain` would raise.
        """
        record_ids: List[int] = []
        block_ids: List[int] = []
        try:
            for record_id, record in self._iter_chain(first_prop):
                record_ids.append(record_id)
                if record.value_type in _DYNAMIC_TYPES:
                    block_ids.extend(
                        self._values.chain_block_ids(_block_ref(record.inline_value))
                    )
        except UNREADABLE:
            pass
        return record_ids, block_ids

    def records_in_use(self) -> int:
        """Number of live property records (linear scan)."""
        return self._records.count_in_use()

    def value_blocks_in_use(self) -> int:
        """Number of live dynamic value blocks (linear scan)."""
        return self._values.blocks_in_use()

    def flush(self) -> None:
        """Flush property records and the dynamic value store."""
        self._records.flush()
        self._values.flush()

    def close(self) -> None:
        """Close property records (the dynamic store is owned by the manager)."""
        self._records.close()
