"""Unit tests for the object cache."""

import pytest

from repro.graph.entity import node_key
from repro.graph.object_cache import ObjectCache


class TestObjectCache:
    def test_put_get(self):
        cache = ObjectCache(capacity=4)
        key = node_key(1)
        cache.put(key, "value")
        assert cache.get(key) == "value"
        assert key in cache
        assert len(cache) == 1

    def test_miss_returns_none_and_counts(self):
        cache = ObjectCache(capacity=4)
        assert cache.get(node_key(9)) is None
        assert cache.stats.misses == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ObjectCache(capacity=0)

    def test_lru_eviction(self):
        cache = ObjectCache(capacity=2)
        keys = [node_key(index) for index in range(3)]
        cache.put(keys[0], "a")
        cache.put(keys[1], "b")
        cache.get(keys[0])  # make key0 most recently used
        cache.put(keys[2], "c")
        assert keys[1] not in cache
        assert keys[0] in cache
        assert cache.stats.evictions == 1

    def test_pinned_entries_survive_eviction(self):
        cache = ObjectCache(capacity=2)
        pinned = node_key(0)
        cache.put(pinned, "keep me")
        cache.pin(pinned)
        for index in range(1, 5):
            cache.put(node_key(index), index)
        assert pinned in cache
        assert cache.pinned_count() == 1
        cache.unpin(pinned)
        assert cache.pinned_count() == 0

    def test_evictable_predicate_respected(self):
        cache = ObjectCache(capacity=2, evictable=lambda key, value: value != "sticky")
        cache.put(node_key(0), "sticky")
        for index in range(1, 5):
            cache.put(node_key(index), "normal")
        assert cache.get(node_key(0)) == "sticky"

    def test_pinned_and_sticky_lru_heads_are_skipped_in_lru_order(self):
        cache = ObjectCache(capacity=2, evictable=lambda key, value: value != "sticky")
        keys = [node_key(index) for index in range(6)]
        cache.put(keys[0], "pinned")
        cache.pin(keys[0])
        cache.put(keys[1], "sticky")
        cache.put(keys[2], "a")
        # Over capacity: the two LRU heads are skipped, the third goes.
        assert keys[2] not in cache and cache.stats.evictions == 1
        cache.pin(keys[3])
        cache.put(keys[3], "also pinned")  # nothing evictable: stays over
        assert list(cache.keys()) == [keys[0], keys[1], keys[3]]
        assert cache.stats.evictions == 1
        # Once the protected entries are ordinary again, one insert evicts
        # everything beyond capacity, oldest first.
        cache.unpin(keys[0])
        cache.unpin(keys[3])
        cache._evictable = None
        cache.put(keys[4], "b")
        assert list(cache.keys()) == [keys[3], keys[4]]
        assert cache.stats.evictions == 3

    def test_get_or_create(self):
        cache = ObjectCache(capacity=4)
        key = node_key(1)
        created = cache.get_or_create(key, lambda: ["fresh"])
        again = cache.get_or_create(key, lambda: ["other"])
        assert created is again

    def test_invalidate(self):
        cache = ObjectCache(capacity=4)
        key = node_key(1)
        cache.put(key, 1)
        cache.invalidate(key)
        assert key not in cache

    def test_clear(self):
        cache = ObjectCache(capacity=4)
        cache.put(node_key(1), 1)
        cache.pin(node_key(1))
        cache.clear()
        assert len(cache) == 0
        assert cache.pinned_count() == 0

    def test_items_and_keys_are_snapshots(self):
        cache = ObjectCache(capacity=4)
        cache.put(node_key(1), "a")
        items = list(cache.items())
        keys = list(cache.keys())
        assert items == [(node_key(1), "a")]
        assert keys == [node_key(1)]

    def test_hit_ratio(self):
        cache = ObjectCache(capacity=4)
        key = node_key(1)
        cache.put(key, 1)
        cache.get(key)
        cache.get(node_key(2))
        assert 0.0 < cache.stats.hit_ratio() < 1.0
        assert "hit_ratio" in cache.stats.as_dict()
