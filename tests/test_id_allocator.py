"""Unit tests for the id allocator."""

import pytest

from repro.errors import IdSpaceExhaustedError
from repro.graph.entity import MAX_ENTITY_ID, key_kind, node_key, rel_key
from repro.graph.id_allocator import IdAllocator
from repro.graph.store_manager import StoreManager


class TestIdAllocator:
    def test_allocates_densely_from_zero(self):
        allocator = IdAllocator()
        assert [allocator.allocate() for _ in range(3)] == [0, 1, 2]
        assert allocator.high_water_mark == 3

    def test_custom_first_id(self):
        allocator = IdAllocator(first_id=10)
        assert allocator.allocate() == 10

    def test_negative_first_id_rejected(self):
        with pytest.raises(ValueError):
            IdAllocator(first_id=-1)

    def test_freed_ids_are_reused(self):
        allocator = IdAllocator()
        ids = [allocator.allocate() for _ in range(3)]
        allocator.free(ids[1])
        assert allocator.allocate() == ids[1]

    def test_double_free_ignored(self):
        allocator = IdAllocator()
        allocator.allocate()
        allocator.free(0)
        allocator.free(0)
        assert allocator.allocate() == 0
        assert allocator.allocate() == 1

    def test_free_of_unallocated_id_ignored(self):
        allocator = IdAllocator()
        allocator.free(99)
        assert allocator.allocate() == 0

    def test_reuse_disabled(self):
        allocator = IdAllocator(reuse=False)
        first = allocator.allocate()
        allocator.free(first)
        assert allocator.allocate() == first + 1
        assert allocator.free_count == 0

    def test_mark_used_advances_high_water(self):
        allocator = IdAllocator()
        allocator.mark_used(5)
        assert allocator.high_water_mark == 6
        assert allocator.allocate() == 6

    def test_mark_used_removes_from_free_list(self):
        allocator = IdAllocator()
        for _ in range(3):
            allocator.allocate()
        allocator.free(1)
        allocator.mark_used(1)
        assert allocator.allocate() == 3

    def test_rebuild_creates_free_list_from_gaps(self):
        allocator = IdAllocator()
        allocator.rebuild([0, 2, 5])
        assert allocator.high_water_mark == 6
        reused = {allocator.allocate() for _ in range(3)}
        assert reused == {1, 3, 4}
        assert allocator.allocate() == 6

    def test_rebuild_empty(self):
        allocator = IdAllocator()
        allocator.rebuild([])
        assert allocator.allocate() == 0

    def test_rebuild_without_reuse_ignores_gaps(self):
        allocator = IdAllocator(reuse=False)
        allocator.rebuild([0, 5])
        assert allocator.allocate() == 6

    def test_allocate_many(self):
        allocator = IdAllocator()
        assert allocator.allocate_many(4) == [0, 1, 2, 3]

    def test_in_use_estimate(self):
        allocator = IdAllocator()
        for _ in range(5):
            allocator.allocate()
        allocator.free(0)
        allocator.free(1)
        assert allocator.in_use_estimate() == 3

    def test_refuses_ids_at_the_entity_key_tag_bit(self):
        allocator = IdAllocator()
        allocator.mark_used(MAX_ENTITY_ID - 3)
        assert allocator.allocate_many(2) == [MAX_ENTITY_ID - 2, MAX_ENTITY_ID - 1]
        with pytest.raises(IdSpaceExhaustedError):
            allocator.allocate()
        assert allocator.high_water_mark == MAX_ENTITY_ID


class TestEntityIdBound:
    """Node and relationship ids stay below the entity-key tag bit, so a
    node key can never equal a relationship key."""

    @pytest.mark.parametrize("kind", ["node", "relationship"])
    def test_allocation_stops_below_the_tag_bit(self, kind):
        store = StoreManager(None)
        try:
            if kind == "node":
                store.nodes.mark_id_used(MAX_ENTITY_ID - 2)
                allocate, make_key = store.allocate_node_id, node_key
            else:
                store.relationships.mark_id_used(MAX_ENTITY_ID - 2)
                allocate, make_key = store.allocate_relationship_id, rel_key
            last = allocate()
            assert last == MAX_ENTITY_ID - 1
            assert key_kind(make_key(last)).value == kind
            with pytest.raises(IdSpaceExhaustedError):
                allocate()
        finally:
            store.close()
