"""Unit tests for property value encoding and property chains."""

import pytest

from repro.errors import InvalidPropertyValueError
from repro.graph.dynamic_store import DynamicStore
from repro.graph.paging import InMemoryBackend, PageCache, PagedFile
from repro.graph.property_store import PropertyStore, decode_array, encode_array
from repro.graph.records import NULL_REF


def make_property_store(cache=None):
    cache = cache or PageCache(capacity_pages=256, page_size=256)
    values = DynamicStore(PagedFile(InMemoryBackend(), cache), "values")
    return PropertyStore(PagedFile(InMemoryBackend(), cache), values)


class TestArrayCodec:
    @pytest.mark.parametrize(
        "values",
        [
            [1, 2, 3],
            [True, False, True],
            [1.5, -2.25],
            ["alpha", "beta", ""],
            [],
        ],
    )
    def test_roundtrip(self, values):
        assert decode_array(encode_array(values)) == values

    def test_large_int_array(self):
        values = list(range(-500, 500))
        assert decode_array(encode_array(values)) == values

    def test_unicode_strings(self):
        values = ["müller", "日本語", "ñandú"]
        assert decode_array(encode_array(values)) == values


class TestPropertyStore:
    def test_empty_chain_is_null(self):
        store = make_property_store()
        assert store.write_chain({}) == NULL_REF
        assert store.read_chain(NULL_REF) == {}

    @pytest.mark.parametrize(
        "value",
        [True, False, 0, -17, 2 ** 40, 3.14159, "short", "a longer string value " * 5,
         [1, 2, 3], ["x", "y"], [2.5, 3.5]],
    )
    def test_single_value_roundtrip(self, value):
        store = make_property_store()
        ref = store.write_chain({0: value})
        restored = store.read_chain(ref)
        assert restored == {0: value}

    def test_multi_key_chain(self):
        store = make_property_store()
        properties = {0: "alice", 1: 30, 2: True, 3: [1, 2], 4: 1.75}
        ref = store.write_chain(properties)
        assert store.read_chain(ref) == properties

    def test_short_string_boundary(self):
        store = make_property_store()
        seven_bytes = "abcdefg"
        eight_bytes = "abcdefgh"
        ref = store.write_chain({0: seven_bytes, 1: eight_bytes})
        restored = store.read_chain(ref)
        assert restored[0] == seven_bytes
        assert restored[1] == eight_bytes

    def test_free_chain_releases_records_and_values(self):
        store = make_property_store()
        ref = store.write_chain({0: "x" * 100, 1: list(range(50))})
        assert store.records_in_use() == 2
        freed = store.free_chain(ref)
        assert freed == 2
        assert store.records_in_use() == 0

    def test_replace_chain(self):
        cache = PageCache(capacity_pages=256, page_size=256)
        store = make_property_store(cache)
        long_value = "x" * 100
        ref = store.write_chain({0: 1, 1: long_value, 2: [1, 2]})
        writes = cache.stats
        # Same keys: the head stays, only the changed record is written.
        before = writes.page_writes
        assert store.replace_chain(ref, {0: 5, 1: long_value, 2: [1, 2]}) == ref
        assert writes.page_writes - before == 1
        assert store.read_chain(ref) == {0: 5, 1: long_value, 2: [1, 2]}
        # A changed dynamic value swaps its blocks under the same record.
        assert store.replace_chain(ref, {0: 5, 1: "short", 2: [1, 2, 3]}) == ref
        assert store.read_chain(ref) == {0: 5, 1: "short", 2: [1, 2, 3]}
        assert store.value_blocks_in_use() == 1
        # A different key set frees the chain and writes a fresh one.
        new_ref = store.replace_chain(ref, {2: "three"})
        assert store.read_chain(new_ref) == {2: "three"}
        assert store.records_in_use() == 1
        assert store.value_blocks_in_use() == 0

    def test_replace_chain_over_unreadable_state_writes_fresh(self):
        # What WAL replay can find in a torn page image: a chain broken
        # mid-way, a record whose dynamic value is gone.  Never an error.
        store = make_property_store()
        ref = store.write_chain({0: 1, 1: 2, 2: 3})
        second = store._records.read(ref).next_prop
        store._records.mark_not_in_use(second)
        new_ref = store.replace_chain(ref, {0: 1, 1: 2, 2: 4})
        assert store.read_chain(new_ref) == {0: 1, 1: 2, 2: 4}

        ref = store.write_chain({0: "y" * 100})
        store._values.free_chain(0)
        assert store.replace_chain(ref, {0: "y" * 100}) == ref
        assert store.read_chain(ref) == {0: "y" * 100}

    def test_unencodable_value_rejected(self):
        store = make_property_store()
        with pytest.raises(InvalidPropertyValueError):
            store.write_chain({0: {"nested": "dict"}})
