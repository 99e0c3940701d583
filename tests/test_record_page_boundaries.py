"""Records at page boundaries: the in-place path and the straddling path agree.

A record inside one page is unpacked from and packed into the cached page in
place; the 16-byte store header makes one slot per page straddle a boundary
(32-byte id 127, 64-byte id 63, ...), and that slot goes through a byte copy
split across two pages.  Both must round-trip, survive eviction and
write-back through a one-page cache, and leave exactly ``pack()``'s bytes in
the backend.
"""

import pytest

from repro.graph.paging import FileBackend, InMemoryBackend, PageCache, PagedFile
from repro.graph.records import (
    STORE_HEADER_SIZE,
    DynamicRecord,
    NodeRecord,
    PropertyRecord,
    RecordStore,
    RelationshipRecord,
    TokenRecord,
)

PAGE_SIZE = 4096
BOUNDARIES = (PAGE_SIZE, 2 * PAGE_SIZE)


def _record(record_class, record_id):
    """A record whose every field depends on ``record_id``."""
    n = record_id
    if record_class is NodeRecord:
        return NodeRecord(True, n + 1, n + 2, n + 3)
    if record_class is RelationshipRecord:
        return RelationshipRecord(True, n, n + 1, n % 7, n + 5)
    if record_class is PropertyRecord:
        return PropertyRecord(True, n % 50, 2, n.to_bytes(8, "little"), n - 1, n + 1)
    if record_class is DynamicRecord:
        payload = bytes((n + i) % 256 for i in range(DynamicRecord.PAYLOAD_SIZE))
        return DynamicRecord(True, len(payload), n + 9, payload)
    return TokenRecord(True, n + 4)


def _ids_around_boundaries(record_class):
    """The slot containing each boundary's last byte, and its neighbours."""
    size = record_class.RECORD_SIZE
    ids = set()
    for boundary in BOUNDARIES:
        last_before = (boundary - STORE_HEADER_SIZE - 1) // size
        ids.update((last_before - 1, last_before, last_before + 1))
    return sorted(ids)


def _straddles(record_class, record_id):
    offset = STORE_HEADER_SIZE + record_id * record_class.RECORD_SIZE
    return offset // PAGE_SIZE != (offset + record_class.RECORD_SIZE - 1) // PAGE_SIZE


@pytest.fixture(params=["memory", "file"])
def backend(request, tmp_path):
    if request.param == "memory":
        backend = InMemoryBackend()
    else:
        backend = FileBackend(str(tmp_path / "records.store"))
    yield backend
    backend.close()


RECORD_CLASSES = [NodeRecord, RelationshipRecord, PropertyRecord, DynamicRecord, TokenRecord]


def test_straddling_slots_are_where_the_header_puts_them():
    assert _straddles(NodeRecord, 127) and not _straddles(NodeRecord, 126)
    assert _straddles(RelationshipRecord, 127) and not _straddles(RelationshipRecord, 128)
    assert _straddles(PropertyRecord, 255) and _straddles(DynamicRecord, 127)
    assert not any(_straddles(TokenRecord, i) for i in _ids_around_boundaries(TokenRecord))


@pytest.mark.parametrize("record_class", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_records_round_trip_across_page_boundaries(record_class, backend):
    cache = PageCache(capacity_pages=1, page_size=PAGE_SIZE)
    paged = PagedFile(backend, cache)
    store = RecordStore(paged, record_class, "boundary")
    ids = _ids_around_boundaries(record_class)
    for record_id in ids:
        store.write(record_id, _record(record_class, record_id))
    # One resident page: the writes above already evicted dirty pages.
    assert cache.stats.evictions > 0
    for record_id in reversed(ids):
        assert store.read(record_id) == _record(record_class, record_id)
    paged.flush()
    for record_id in ids:
        offset = STORE_HEADER_SIZE + record_id * record_class.RECORD_SIZE
        stored = backend.read(offset, record_class.RECORD_SIZE)
        assert stored == _record(record_class, record_id).pack()
    reopened = RecordStore(PagedFile(backend, PageCache(1, PAGE_SIZE)), record_class, "boundary")
    for record_id in ids:
        assert reopened.read(record_id) == _record(record_class, record_id)


@pytest.mark.parametrize("record_class", [NodeRecord, RelationshipRecord], ids=lambda c: c.__name__)
def test_a_write_counts_one_page_write_per_page_it_touches(record_class):
    cache = PageCache(capacity_pages=8, page_size=PAGE_SIZE)
    store = RecordStore(PagedFile(InMemoryBackend(), cache), record_class, "count")
    for record_id in _ids_around_boundaries(record_class):
        before = cache.stats.page_writes
        store.write(record_id, _record(record_class, record_id))
        expected = 2 if _straddles(record_class, record_id) else 1
        assert cache.stats.page_writes - before == expected
