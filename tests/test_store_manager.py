"""Unit and integration tests for the store manager (persistence layer)."""

import pytest

from repro.errors import ConstraintViolationError, NodeNotFoundError, RelationshipNotFoundError
from repro.graph.entity import Direction, NodeData, RelationshipData
from repro.graph.operations import (
    DeleteNodeOp,
    DeleteRelationshipOp,
    WriteNodeOp,
    WriteRelationshipOp,
)
from repro.graph.records import NULL_REF
from repro.graph.recovery import check_store
from repro.graph.store_manager import StoreManager


def node(node_id, labels=(), **props):
    return NodeData(node_id, frozenset(labels), props)


def rel(rel_id, rel_type, start, end, **props):
    return RelationshipData(rel_id, rel_type, start, end, props)


class TestNodes:
    def test_write_and_read_back(self, store):
        store.write_node(node(0, ["Person"], name="Alice", age=30))
        loaded = store.read_node(0)
        assert loaded.labels == {"Person"}
        assert loaded.properties["name"] == "Alice"
        assert loaded.properties["age"] == 30

    def test_missing_node_reads_none(self, store):
        assert store.read_node(42) is None
        assert not store.node_exists(42)

    def test_overwrite_replaces_labels_and_properties(self, store):
        store.write_node(node(0, ["Person"], name="Alice"))
        store.write_node(node(0, ["Admin"], level=3))
        loaded = store.read_node(0)
        assert loaded.labels == {"Admin"}
        assert "name" not in loaded.properties
        assert loaded.properties["level"] == 3

    def test_delete_node(self, store):
        store.write_node(node(0))
        store.delete_node(0)
        assert store.read_node(0) is None
        assert store.node_count() == 0

    def test_delete_missing_node_raises(self, store):
        with pytest.raises(NodeNotFoundError):
            store.delete_node(13)
        store.delete_node(13, missing_ok=True)

    def test_delete_node_with_relationships_rejected(self, store):
        store.write_node(node(0))
        store.write_node(node(1))
        store.write_relationship(rel(0, "KNOWS", 0, 1))
        with pytest.raises(ConstraintViolationError):
            store.delete_node(0)

    def test_iteration_and_count(self, store):
        for index in range(5):
            store.write_node(node(index, ["Person"], position=index))
        assert list(store.iter_node_ids()) == list(range(5))
        assert store.node_count() == 5
        assert [n.properties["position"] for n in store.iter_nodes()] == list(range(5))

    def test_id_allocation(self, store):
        first = store.allocate_node_id()
        second = store.allocate_node_id()
        assert second == first + 1


class TestRelationships:
    def setup_nodes(self, store, count=4):
        for index in range(count):
            store.write_node(node(index, ["N"]))

    def test_create_and_read(self, store):
        self.setup_nodes(store)
        store.write_relationship(rel(0, "KNOWS", 0, 1, since=2016))
        loaded = store.read_relationship(0)
        assert loaded.rel_type == "KNOWS"
        assert loaded.start_node == 0 and loaded.end_node == 1
        assert loaded.properties["since"] == 2016

    def test_create_requires_existing_endpoints(self, store):
        store.write_node(node(0))
        with pytest.raises(NodeNotFoundError):
            store.write_relationship(rel(0, "KNOWS", 0, 99))

    def test_update_replaces_properties_only(self, store):
        self.setup_nodes(store)
        store.write_relationship(rel(0, "KNOWS", 0, 1, since=2016))
        store.write_relationship(rel(0, "KNOWS", 0, 1, weight=0.5))
        loaded = store.read_relationship(0)
        assert loaded.properties == {"weight": 0.5}
        assert store.node_degree(0) == 1

    def test_chains_collect_all_relationships(self, store):
        self.setup_nodes(store)
        store.write_relationship(rel(0, "KNOWS", 0, 1))
        store.write_relationship(rel(1, "KNOWS", 0, 2))
        store.write_relationship(rel(2, "KNOWS", 3, 0))
        assert sorted(store.node_relationship_ids(0)) == [0, 1, 2]
        assert store.node_degree(0, Direction.OUTGOING) == 2
        assert store.node_degree(0, Direction.INCOMING) == 1

    def test_self_loop(self, store):
        self.setup_nodes(store)
        store.write_relationship(rel(0, "SELF", 2, 2))
        assert store.node_relationship_ids(2) == [0]
        assert store.node_degree(2, Direction.OUTGOING) == 1
        store.delete_relationship(0)
        assert store.node_relationship_ids(2) == []

    def test_delete_unlinks_from_both_chains(self, store):
        self.setup_nodes(store)
        for rel_id, (a, b) in enumerate([(0, 1), (0, 2), (1, 2)]):
            store.write_relationship(rel(rel_id, "KNOWS", a, b))
        store.delete_relationship(1)
        assert sorted(store.node_relationship_ids(0)) == [0]
        assert sorted(store.node_relationship_ids(2)) == [2]
        assert store.read_relationship(1) is None
        report = check_store(store)
        assert report.consistent, report.errors

    def test_delete_missing_relationship(self, store):
        with pytest.raises(RelationshipNotFoundError):
            store.delete_relationship(5)
        store.delete_relationship(5, missing_ok=True)

    def test_many_relationships_consistency(self, store):
        self.setup_nodes(store, count=10)
        rel_id = 0
        for left in range(10):
            for right in range(left + 1, 10, 2):
                store.write_relationship(rel(rel_id, "LINK", left, right))
                rel_id += 1
        # Delete every third relationship and verify chain integrity.
        for victim in range(0, rel_id, 3):
            store.delete_relationship(victim)
        report = check_store(store)
        assert report.consistent, report.errors


    def test_consistency_report_counts_leaks(self, store):
        store.write_node(node(0, ["Person"], name="a name too long to inline", tags=[1, 2]))
        store.write_node(node(1, ["Person"]))
        store.write_relationship(rel(0, "KNOWS", 0, 1, since=2016))
        report = check_store(store)
        assert (report.leaked_property_records, report.leaked_dynamic_blocks) == (0, 0)
        # Strand node 0's label block and two-record property chain (with its
        # two value blocks), the way replay over a torn image can: still in
        # use, reachable from nothing.  Leaks are counts, not errors.
        record = store.nodes.read(0)
        record.label_ref = record.first_prop = NULL_REF
        store.nodes.write(0, record)
        report = check_store(store)
        assert report.consistent, report.errors
        assert (report.leaked_property_records, report.leaked_dynamic_blocks) == (2, 3)


class TestBatchesAndStats:
    def test_apply_batch_orders_operations(self, store):
        store.apply_batch(
            1,
            [
                WriteNodeOp(node(0, ["Person"])),
                WriteNodeOp(node(1, ["Person"])),
                WriteRelationshipOp(rel(0, "KNOWS", 0, 1)),
            ],
        )
        assert store.node_count() == 2
        assert store.relationship_count() == 1
        store.apply_batch(
            2,
            [DeleteRelationshipOp(0), DeleteNodeOp(1)],
        )
        assert store.relationship_count() == 0
        assert store.node_count() == 1

    def test_stats_count_writes(self, store):
        store.write_node(node(0))
        store.write_node(node(1))
        store.write_relationship(rel(0, "KNOWS", 0, 1))
        stats = store.stats.as_dict()
        assert stats["node_writes"] == 2
        assert stats["relationship_writes"] == 1
        assert stats["entity_writes"] == 3


class TestPersistenceAndRecovery:
    def test_reopen_from_disk(self, disk_db_path):
        store = StoreManager(disk_db_path)
        store.write_node(node(0, ["Person"], name="Alice", tags=["a", "b"]))
        store.write_node(node(1, ["Person"], name="Bob"))
        store.write_relationship(rel(0, "KNOWS", 0, 1, since=2016))
        store.close()

        reopened = StoreManager(disk_db_path)
        loaded = reopened.read_node(0)
        assert loaded.properties["name"] == "Alice"
        assert tuple(loaded.properties["tags"]) == ("a", "b")
        assert reopened.read_relationship(0).properties["since"] == 2016
        assert reopened.tokens.labels.maybe_id("Person") is not None
        reopened.close()

    def test_wal_replay_after_crash(self, disk_db_path):
        store = StoreManager(disk_db_path)
        store.write_node(node(0, ["Person"], name="Alice"))
        store.checkpoint()
        # Writes after the checkpoint are only in the WAL + page cache; simulate
        # a crash by *not* closing (no flush) and reopening a second manager.
        store.write_node(node(1, ["Person"], name="Bob"))
        store.write_relationship(rel(0, "KNOWS", 0, 1))
        store.wal.close()

        recovered = StoreManager(disk_db_path)
        assert recovered.stats.batches_replayed >= 1
        assert recovered.read_node(1) is not None
        assert recovered.read_relationship(0) is not None
        report = check_store(recovered)
        assert report.consistent, report.errors
        recovered.close()

    def test_new_ids_after_reopen_do_not_collide(self, disk_db_path):
        store = StoreManager(disk_db_path)
        for index in range(3):
            store.write_node(node(index))
        store.close()
        reopened = StoreManager(disk_db_path)
        fresh = reopened.allocate_node_id()
        assert fresh >= 3
        reopened.close()
