"""Unit and integration tests for the store manager (persistence layer)."""

import os
import shutil
import struct

import pytest

from repro.errors import (
    ConstraintViolationError,
    NodeNotFoundError,
    RelationshipNotFoundError,
    StoreCorruptionError,
)
from repro.graph.entity import NodeData, RelationshipData
from repro.graph.operations import (
    DeleteNodeOp,
    DeleteRelationshipOp,
    WriteNodeOp,
    WriteRelationshipOp,
)
from repro.graph.records import NULL_REF, STORE_MAGIC
from repro.graph.recovery import check_store
from repro.graph.store_manager import StoreManager


def node(node_id, labels=(), **props):
    return NodeData(node_id, frozenset(labels), props)


def rel(rel_id, rel_type, start, end, **props):
    return RelationshipData(rel_id, rel_type, start, end, props)


def rel_counts(store, node_count):
    """Stored relationship count of nodes ``0 .. node_count - 1``."""
    return [store.nodes.read(node_id).rel_count for node_id in range(node_count)]


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
            store.write_relationship(rel(0, "KNOWS", 0, 99, since=2016))
        # Refused before anything was written: no token, property or count.
        assert store.tokens.relationship_types.maybe_id("KNOWS") is None
        assert store.tokens.property_keys.maybe_id("since") is None
        assert store.properties.records_in_use() == 0
        assert store.nodes.read(0).rel_count == 0

    def test_update_replaces_properties_only(self, store):
        self.setup_nodes(store)
        store.write_relationship(rel(0, "KNOWS", 0, 1, since=2016))
        store.write_relationship(rel(0, "KNOWS", 0, 1, weight=0.5))
        loaded = store.read_relationship(0)
        assert loaded.properties == {"weight": 0.5}
        assert rel_counts(store, 4) == [1, 1, 0, 0]

    def test_counts_tally_every_relationship(self, store):
        self.setup_nodes(store)
        store.write_relationship(rel(0, "KNOWS", 0, 1))
        store.write_relationship(rel(1, "KNOWS", 0, 2))
        store.write_relationship(rel(2, "KNOWS", 3, 0))
        assert rel_counts(store, 4) == [3, 1, 1, 1]
        assert check_store(store).consistent

    def test_self_loop(self, store):
        self.setup_nodes(store)
        store.write_relationship(rel(0, "SELF", 2, 2))
        assert rel_counts(store, 4) == [0, 0, 1, 0]
        assert check_store(store).consistent
        store.delete_relationship(0)
        assert rel_counts(store, 4) == [0, 0, 0, 0]
        store.delete_node(2)

    def test_delete_decrements_both_endpoints(self, store):
        self.setup_nodes(store)
        for rel_id, (a, b) in enumerate([(0, 1), (0, 2), (1, 2)]):
            store.write_relationship(rel(rel_id, "KNOWS", a, b))
        assert rel_counts(store, 4) == [2, 2, 2, 0]
        store.delete_relationship(1)
        assert rel_counts(store, 4) == [1, 2, 1, 0]
        assert store.read_relationship(1) is None
        report = check_store(store)
        assert report.consistent, report.errors

    def test_apply_writes_no_other_relationship(self, store, monkeypatch):
        self.setup_nodes(store, count=2)
        store.write_relationship(rel(0, "KNOWS", 0, 1))
        written = []
        for name in ("write", "create"):
            original = getattr(store.relationships, name)
            monkeypatch.setattr(
                store.relationships, name,
                lambda rel_id, record, _original=original: (
                    written.append(rel_id), _original(rel_id, record)
                ),
            )
        store.write_relationship(rel(1, "KNOWS", 1, 0))
        store.write_relationship(rel(1, "KNOWS", 1, 0, since=2016))
        store.delete_relationship(1)
        assert set(written) == {1}
        assert rel_counts(store, 2) == [1, 1]

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
        # Delete every third relationship and verify the endpoint counts.
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

    def test_checker_reports_a_count_that_disagrees_with_the_census(self, store):
        self.setup_nodes(store, count=2)
        store.write_relationship(rel(0, "KNOWS", 0, 1))
        record = store.nodes.read(0)
        record.rel_count = 5
        store.nodes.write(0, record)
        assert check_store(store).errors == ["node 0 counts 5 relationships, 1 name it"]

    def test_checker_reports_a_relationship_naming_a_missing_node(self, store):
        self.setup_nodes(store, count=2)
        store.write_relationship(rel(0, "KNOWS", 0, 1))
        store.nodes.delete(1)  # the record file alone, past the manager's guard
        assert check_store(store).errors == ["relationship 0 references missing node 1"]


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

    def test_replay_over_a_stale_node_page_keeps_counts_whole(self, disk_db_path, tmp_path):
        store = StoreManager(disk_db_path)
        store.apply_batch(1, [WriteNodeOp(node(0)), WriteNodeOp(node(1))])
        store.checkpoint()
        store.apply_batch(2, [WriteRelationshipOp(rel(0, "KNOWS", 0, 1))])
        # The relationship page reaches the file, the node page (counts 1)
        # does not: replay's create finds the relationship in use and leaves
        # the counts at 0, so its delete must not take them below 0.
        store.relationships.flush()
        store.apply_batch(3, [DeleteRelationshipOp(0), DeleteNodeOp(0)])
        crash = str(tmp_path / "crash")
        shutil.copytree(disk_db_path, crash)
        store.close()

        recovered = StoreManager(crash)
        try:
            assert recovered.stats.batches_replayed == 2
            assert list(recovered.iter_node_ids()) == [1]
            assert recovered.nodes.read(1).rel_count == 0
            assert check_store(recovered).consistent
        finally:
            recovered.close()

    def test_format_1_store_is_refused(self, disk_db_path):
        store = StoreManager(disk_db_path)
        store.write_node(node(0))
        store.write_node(node(1))
        store.write_relationship(rel(0, "KNOWS", 0, 1))
        store.close()
        # A format-1 relationship file: 64-byte records with chain pointers,
        # which must never be read as 32-byte ones.
        with open(os.path.join(disk_db_path, "relationship.store"), "r+b") as handle:
            handle.write(struct.pack("<4sII", STORE_MAGIC, 1, 64))
        with pytest.raises(StoreCorruptionError, match="format version 1"):
            StoreManager(disk_db_path)

    def test_new_ids_after_reopen_do_not_collide(self, disk_db_path):
        store = StoreManager(disk_db_path)
        for index in range(3):
            store.write_node(node(index))
        store.close()
        reopened = StoreManager(disk_db_path)
        fresh = reopened.allocate_node_id()
        assert fresh >= 3
        reopened.close()
