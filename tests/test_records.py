"""Unit tests for record formats and the generic record store."""

import pytest

from repro.errors import StoreCorruptionError
from repro.graph.paging import InMemoryBackend, PageCache, PagedFile
from repro.graph.records import (
    NULL_REF,
    DynamicRecord,
    NodeRecord,
    PropertyRecord,
    RecordStore,
    RelationshipRecord,
    TokenRecord,
)


def make_store(record_class, name="test"):
    cache = PageCache(capacity_pages=64, page_size=256)
    return RecordStore(PagedFile(InMemoryBackend(), cache), record_class, name)


class TestRecordRoundTrips:
    def test_node_record(self):
        record = NodeRecord(in_use=True, rel_count=12, first_prop=34, label_ref=56)
        packed = record.pack()
        assert len(packed) == NodeRecord.RECORD_SIZE
        assert NodeRecord.unpack(packed) == record

    def test_node_record_defaults(self):
        packed = NodeRecord().pack()
        restored = NodeRecord.unpack(packed)
        assert not restored.in_use
        assert restored.rel_count == 0
        assert restored.first_prop == NULL_REF

    def test_relationship_record(self):
        record = RelationshipRecord(
            in_use=True,
            start_node=1,
            end_node=2,
            type_id=3,
            first_prop=8,
        )
        assert len(record.pack()) == RelationshipRecord.RECORD_SIZE == 32
        assert RelationshipRecord.unpack(record.pack()) == record

    def test_property_record(self):
        record = PropertyRecord(
            in_use=True,
            key_id=9,
            value_type=2,
            inline_value=b"\x01\x02",
            prev_prop=NULL_REF,
            next_prop=77,
        )
        restored = PropertyRecord.unpack(record.pack())
        assert restored.key_id == 9
        assert restored.inline_value[:2] == b"\x01\x02"
        assert restored.next_prop == 77

    def test_dynamic_record(self):
        record = DynamicRecord(in_use=True, length=5, next_block=3, payload=b"hello")
        restored = DynamicRecord.unpack(record.pack())
        assert restored.payload == b"hello"
        assert restored.next_block == 3

    def test_dynamic_record_rejects_oversized_length(self):
        corrupted = DynamicRecord(in_use=True, length=5, payload=b"hello").pack()
        # Overwrite the length field with something larger than the payload area.
        bad = bytearray(corrupted)
        bad[1:5] = (10_000).to_bytes(4, "little")
        with pytest.raises(StoreCorruptionError):
            DynamicRecord.unpack(bytes(bad))

    def test_token_record(self):
        record = TokenRecord(in_use=True, name_ref=42)
        assert TokenRecord.unpack(record.pack()) == record


class TestRecordStore:
    def test_unwritten_slot_reads_as_not_in_use(self):
        store = make_store(NodeRecord)
        assert not store.read(17).in_use

    def test_write_read_roundtrip(self):
        store = make_store(NodeRecord)
        store.write(3, NodeRecord(in_use=True, rel_count=9))
        assert store.read(3).rel_count == 9
        assert store.high_water_mark() == 4

    def test_negative_id_rejected(self):
        store = make_store(NodeRecord)
        with pytest.raises(ValueError):
            store.read(-1)
        with pytest.raises(ValueError):
            store.write(-1, NodeRecord())

    def test_mark_not_in_use(self):
        store = make_store(NodeRecord)
        store.write(0, NodeRecord(in_use=True))
        store.mark_not_in_use(0)
        assert not store.read(0).in_use

    def test_iter_used_ids(self):
        store = make_store(NodeRecord)
        for record_id in (0, 2, 5):
            store.write(record_id, NodeRecord(in_use=True))
        assert list(store.iter_used_ids()) == [0, 2, 5]
        assert store.count_in_use() == 3
        assert store.used_ids() == [0, 2, 5]

    def test_records_straddle_page_boundaries(self):
        # Page size 256, 32-byte relationship records and the 16-byte
        # header: id 7 straddles the first page boundary.
        store = make_store(RelationshipRecord)
        for record_id in range(10):
            store.write(
                record_id,
                RelationshipRecord(in_use=True, start_node=record_id, end_node=record_id + 1),
            )
        for record_id in range(10):
            assert store.read(record_id).start_node == record_id

    def test_header_detects_wrong_record_size(self):
        cache = PageCache(capacity_pages=64, page_size=256)
        paged = PagedFile(InMemoryBackend(), cache)
        RecordStore(paged, NodeRecord, "first")
        with pytest.raises(StoreCorruptionError):
            RecordStore(paged, DynamicRecord, "second")
