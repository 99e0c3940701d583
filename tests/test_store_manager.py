"""Unit and integration tests for the store manager (persistence layer)."""

import os
import shutil
import struct

import pytest

from harness.store import apply

from repro.errors import (
    ConstraintViolationError,
    DatabaseReadOnlyError,
    NodeNotFoundError,
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
from repro.graph import store_manager
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
        apply(store, WriteNodeOp(node(0, ["Person"], name="Alice", age=30)))
        loaded = store.read_node(0)
        assert loaded.labels == {"Person"}
        assert loaded.properties["name"] == "Alice"
        assert loaded.properties["age"] == 30

    def test_missing_node_reads_none(self, store):
        assert store.read_node(42) is None
        assert not store.node_exists(42)

    def test_overwrite_replaces_labels_and_properties(self, store):
        apply(store, WriteNodeOp(node(0, ["Person"], name="Alice")))
        apply(store, WriteNodeOp(node(0, ["Admin"], level=3)))
        loaded = store.read_node(0)
        assert loaded.labels == {"Admin"}
        assert "name" not in loaded.properties
        assert loaded.properties["level"] == 3

    def test_delete_node(self, store):
        apply(store, WriteNodeOp(node(0)))
        apply(store, DeleteNodeOp(0))
        assert store.read_node(0) is None
        assert store.node_count() == 0

    def test_delete_of_a_missing_node_is_a_no_op(self, store):
        # Replay depends on it: a delete may meet a node that is already gone.
        apply(store, DeleteNodeOp(13))
        assert store.read_node(13) is None
        assert store.stats.node_deletes == 0

    def test_delete_node_with_relationships_rejected(self, store):
        apply(store, WriteNodeOp(node(0)))
        apply(store, WriteNodeOp(node(1)))
        apply(store, WriteRelationshipOp(rel(0, "KNOWS", 0, 1)))
        logged = store.wal.appended_batches
        with pytest.raises(ConstraintViolationError):
            apply(store, DeleteNodeOp(0))
        # Refused before the log: nothing to replay, nothing queued.
        assert store.wal.appended_batches == logged
        assert store.backlog_size == 0
        assert store.read_node(0) is not None

    def test_delete_guard_counts_queued_relationships(self, store):
        apply(store, WriteNodeOp(node(0)), WriteNodeOp(node(1)))
        apply(store, WriteRelationshipOp(rel(0, "KNOWS", 0, 1)), catch_up=False)
        with pytest.raises(ConstraintViolationError):
            store.apply_batch(1, [DeleteNodeOp(1)])
        # A queued delete of the relationship frees the node again, and a
        # delete in the same batch does too.
        store.apply_batch(2, [DeleteRelationshipOp(0), DeleteNodeOp(1)])
        assert store.backlog_size == 2
        assert list(store.iter_node_ids()) == [0]
        assert rel_counts(store, 1) == [0]

    def test_iteration_and_count(self, store):
        for index in range(5):
            apply(store, WriteNodeOp(node(index, ["Person"], position=index)))
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
            apply(store, WriteNodeOp(node(index, ["N"])))

    def test_create_and_read(self, store):
        self.setup_nodes(store)
        apply(store, WriteRelationshipOp(rel(0, "KNOWS", 0, 1, since=2016)))
        loaded = store.read_relationship(0)
        assert loaded.rel_type == "KNOWS"
        assert loaded.start_node == 0 and loaded.end_node == 1
        assert loaded.properties["since"] == 2016

    def test_create_requires_existing_endpoints(self, store):
        apply(store, WriteNodeOp(node(0)))
        logged = store.wal.appended_batches
        with pytest.raises(NodeNotFoundError):
            apply(store, WriteRelationshipOp(rel(0, "KNOWS", 0, 99, since=2016)))
        # Refused before anything was logged or written: no token, property
        # or count.
        assert store.wal.appended_batches == logged
        assert store.tokens.relationship_types.maybe_id("KNOWS") is None
        assert store.tokens.property_keys.maybe_id("since") is None
        assert store.properties.records_in_use() == 0
        assert store.nodes.read(0).rel_count == 0

    def test_update_replaces_properties_only(self, store):
        self.setup_nodes(store)
        apply(store, WriteRelationshipOp(rel(0, "KNOWS", 0, 1, since=2016)))
        apply(store, WriteRelationshipOp(rel(0, "KNOWS", 0, 1, weight=0.5)))
        loaded = store.read_relationship(0)
        assert loaded.properties == {"weight": 0.5}
        assert rel_counts(store, 4) == [1, 1, 0, 0]

    def test_counts_tally_every_relationship(self, store):
        self.setup_nodes(store)
        apply(store, WriteRelationshipOp(rel(0, "KNOWS", 0, 1)))
        apply(store, WriteRelationshipOp(rel(1, "KNOWS", 0, 2)))
        apply(store, WriteRelationshipOp(rel(2, "KNOWS", 3, 0)))
        assert rel_counts(store, 4) == [3, 1, 1, 1]
        assert check_store(store).consistent

    def test_self_loop(self, store):
        self.setup_nodes(store)
        apply(store, WriteRelationshipOp(rel(0, "SELF", 2, 2)))
        assert rel_counts(store, 4) == [0, 0, 1, 0]
        assert check_store(store).consistent
        apply(store, DeleteRelationshipOp(0))
        assert rel_counts(store, 4) == [0, 0, 0, 0]
        apply(store, DeleteNodeOp(2))

    def test_delete_decrements_both_endpoints(self, store):
        self.setup_nodes(store)
        for rel_id, (a, b) in enumerate([(0, 1), (0, 2), (1, 2)]):
            apply(store, WriteRelationshipOp(rel(rel_id, "KNOWS", a, b)))
        assert rel_counts(store, 4) == [2, 2, 2, 0]
        apply(store, DeleteRelationshipOp(1))
        assert rel_counts(store, 4) == [1, 2, 1, 0]
        assert store.read_relationship(1) is None
        report = check_store(store)
        assert report.consistent, report.errors

    def test_apply_writes_no_other_relationship(self, store, monkeypatch):
        self.setup_nodes(store, count=2)
        apply(store, WriteRelationshipOp(rel(0, "KNOWS", 0, 1)))
        written = []
        for name in ("write", "create"):
            original = getattr(store.relationships, name)
            monkeypatch.setattr(
                store.relationships, name,
                lambda rel_id, record, _original=original: (
                    written.append(rel_id), _original(rel_id, record)
                ),
            )
        apply(store, WriteRelationshipOp(rel(1, "KNOWS", 1, 0)))
        apply(store, WriteRelationshipOp(rel(1, "KNOWS", 1, 0, since=2016)))
        apply(store, DeleteRelationshipOp(1))
        assert set(written) == {1}
        assert rel_counts(store, 2) == [1, 1]

    def test_delete_of_a_missing_relationship_is_a_no_op(self, store):
        apply(store, DeleteRelationshipOp(5))
        assert store.read_relationship(5) is None
        assert store.stats.relationship_deletes == 0

    def test_create_may_name_endpoints_queued_or_in_its_own_batch(self, store):
        apply(store, WriteNodeOp(node(0)), WriteNodeOp(node(2)), catch_up=False)
        store.apply_batch(1, [WriteNodeOp(node(1)), WriteRelationshipOp(rel(0, "KNOWS", 0, 1))])
        with pytest.raises(NodeNotFoundError):
            # Node 2 is deleted earlier in the same batch.
            store.apply_batch(2, [DeleteNodeOp(2), WriteRelationshipOp(rel(1, "KNOWS", 0, 2))])
        store.catch_up()
        assert rel_counts(store, 3) == [1, 1, 0]
        assert check_store(store).consistent

    def test_many_relationships_consistency(self, store):
        self.setup_nodes(store, count=10)
        rel_id = 0
        for left in range(10):
            for right in range(left + 1, 10, 2):
                apply(store, WriteRelationshipOp(rel(rel_id, "LINK", left, right)))
                rel_id += 1
        # Delete every third relationship and verify the endpoint counts.
        for victim in range(0, rel_id, 3):
            apply(store, DeleteRelationshipOp(victim))
        report = check_store(store)
        assert report.consistent, report.errors


    def test_consistency_report_counts_leaks(self, store):
        apply(store, WriteNodeOp(node(0, ["Person"], name="a name too long to inline", tags=[1, 2])))
        apply(store, WriteNodeOp(node(1, ["Person"])))
        apply(store, WriteRelationshipOp(rel(0, "KNOWS", 0, 1, since=2016)))
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
        apply(store, WriteRelationshipOp(rel(0, "KNOWS", 0, 1)))
        record = store.nodes.read(0)
        record.rel_count = 5
        store.nodes.write(0, record)
        assert check_store(store).errors == ["node 0 counts 5 relationships, 1 name it"]

    def test_checker_reports_a_relationship_naming_a_missing_node(self, store):
        self.setup_nodes(store, count=2)
        apply(store, WriteRelationshipOp(rel(0, "KNOWS", 0, 1)))
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
        apply(store, WriteNodeOp(node(0)))
        apply(store, WriteNodeOp(node(1)))
        apply(store, WriteRelationshipOp(rel(0, "KNOWS", 0, 1)))
        stats = store.stats.as_dict()
        assert stats["node_writes"] == 2
        assert stats["relationship_writes"] == 1
        assert stats["entity_writes"] == 3


class TestPersistenceAndRecovery:
    def test_reopen_from_disk(self, disk_db_path):
        store = StoreManager(disk_db_path)
        apply(store, WriteNodeOp(node(0, ["Person"], name="Alice", tags=["a", "b"])))
        apply(store, WriteNodeOp(node(1, ["Person"], name="Bob")))
        apply(store, WriteRelationshipOp(rel(0, "KNOWS", 0, 1, since=2016)))
        store.close()

        reopened = StoreManager(disk_db_path)
        loaded = reopened.read_node(0)
        assert loaded.properties["name"] == "Alice"
        assert tuple(loaded.properties["tags"]) == ("a", "b")
        assert reopened.read_relationship(0).properties["since"] == 2016
        assert reopened.tokens.labels.maybe_id("Person") is not None
        reopened.close()

    def test_a_refused_create_leaves_the_store_openable(self, disk_db_path):
        store = StoreManager(disk_db_path)
        apply(store, WriteNodeOp(node(0)))
        with pytest.raises(NodeNotFoundError):
            apply(store, WriteRelationshipOp(rel(0, "KNOWS", 0, 99)))
        store.wal.close()  # a crash: no checkpoint, the log as it stands

        recovered = StoreManager(disk_db_path)
        try:
            assert list(recovered.iter_node_ids()) == [0]
            assert recovered.read_relationship(0) is None
            assert check_store(recovered).consistent
        finally:
            recovered.close()

    def test_wal_replay_after_crash(self, disk_db_path):
        store = StoreManager(disk_db_path)
        apply(store, WriteNodeOp(node(0, ["Person"], name="Alice")))
        store.checkpoint()
        # Writes after the checkpoint are only in the WAL + page cache; simulate
        # a crash by *not* closing (no flush) and reopening a second manager.
        apply(store, WriteNodeOp(node(1, ["Person"], name="Bob")))
        apply(store, WriteRelationshipOp(rel(0, "KNOWS", 0, 1)))
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
        apply(store, WriteNodeOp(node(0)))
        apply(store, WriteNodeOp(node(1)))
        apply(store, WriteRelationshipOp(rel(0, "KNOWS", 0, 1)))
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
            apply(store, WriteNodeOp(node(index)))
        store.close()
        reopened = StoreManager(disk_db_path)
        fresh = reopened.allocate_node_id()
        assert fresh >= 3
        reopened.close()


class TestBacklog:
    """A batch is logged at once and reaches the records at a catch-up."""

    def test_a_superseded_write_is_skipped_once_its_key_is_in_use(self, store):
        for score in range(3):
            apply(store, WriteNodeOp(node(0, score=score)), catch_up=False)
        apply(store, WriteNodeOp(node(1)), catch_up=False)
        assert store.backlog_size == 4
        assert store.nodes.read(0).in_use is False  # nothing applied yet
        assert store.catch_up() == 4
        # The create applies (it is not in use yet); score=1 is superseded.
        assert (store.stats.node_writes, store.stats.writes_skipped) == (3, 1)
        assert store.read_node(0).properties == {"score": 2}
        assert store.backlog_size == 0

    def test_a_create_between_two_writes_finds_its_endpoint(self, store):
        apply(store, WriteNodeOp(node(0)))
        apply(store, WriteNodeOp(node(1, name="a")), catch_up=False)
        apply(store, WriteRelationshipOp(rel(0, "KNOWS", 0, 1)), catch_up=False)
        apply(store, WriteNodeOp(node(1, name="b")), catch_up=False)
        store.catch_up()
        # Node 1's first write was its create: it applied, and the
        # relationship counted itself on an in-use node.
        assert store.stats.writes_skipped == 0
        assert rel_counts(store, 2) == [1, 1]
        assert store.read_node(1).properties == {"name": "b"}
        assert check_store(store).consistent

    def test_no_write_is_skipped_across_a_delete_of_its_key(self, store):
        apply(store, WriteNodeOp(node(0, v=1)))
        store.apply_batch(1, [WriteNodeOp(node(0, v=2))])
        store.apply_batch(2, [DeleteNodeOp(0), WriteNodeOp(node(0, v=3))])
        store.catch_up()
        assert store.stats.writes_skipped == 0
        assert store.stats.node_deletes == 1
        assert store.read_node(0).properties == {"v": 3}

    def test_reads_catch_up_only_for_a_queued_key(self, store):
        apply(store, WriteNodeOp(node(0)), WriteNodeOp(node(1)))
        store.apply_batch(1, [WriteNodeOp(node(1, name="b"))])
        assert store.read_node(0) is not None
        assert store.backlog_size == 1
        assert store.read_node(1).properties == {"name": "b"}
        assert store.backlog_size == 0

    @pytest.mark.parametrize(
        "read",
        [
            lambda store: list(store.iter_node_ids()),
            lambda store: list(store.iter_relationship_ids()),
            lambda store: store.read_persisted(0),
            check_store,
        ],
        ids=["node_ids", "relationship_ids", "read_persisted", "checker"],
    )
    def test_scans_and_the_checker_catch_up(self, store, read):
        apply(store, WriteNodeOp(node(0)), catch_up=False)
        read(store)
        assert store.backlog_size == 0
        assert store.nodes.read(0).in_use

    def test_counts_read_the_backlog_without_catching_up(self, store):
        """The planner's totals: the records' counts plus the backlog's
        queued creates minus its deletes, whether the committer said which
        writes create (``created``) or the store had to look."""
        apply(
            store,
            WriteNodeOp(node(0)), WriteNodeOp(node(1)), WriteNodeOp(node(2)),
            WriteRelationshipOp(RelationshipData(0, "KNOWS", 0, 1)),
        )
        apply(
            store,
            WriteNodeOp(node(3), created=True),
            WriteNodeOp(node(0, name="a"), created=False),
            WriteNodeOp(node(1, name="b")),
            WriteRelationshipOp(RelationshipData(1, "KNOWS", 3, 3), created=True),
            WriteRelationshipOp(RelationshipData(2, "KNOWS", 1, 2)),
            WriteRelationshipOp(RelationshipData(0, "KNOWS", 0, 1, {"w": 1})),
            catch_up=False,
        )
        apply(
            store,
            DeleteRelationshipOp(0),
            DeleteRelationshipOp(2),
            DeleteNodeOp(2),
            DeleteNodeOp(9),  # never written: not counted
            catch_up=False,
        )
        assert store.backlog_size == 2
        assert (store.node_count(), store.relationship_count()) == (3, 1)
        assert store.backlog_size == 2
        store.catch_up()
        assert (store.nodes.count(), store.relationships.count()) == (3, 1)
        assert (store.node_count(), store.relationship_count()) == (3, 1)

    def test_the_committer_reaching_the_bound_is_told(self, store, monkeypatch):
        monkeypatch.setattr(store_manager, "CATCH_UP_BATCHES", 3)
        due = [store.apply_batch(txn, [WriteNodeOp(node(txn))]) for txn in range(4)]
        assert due == [False, False, True, True]
        assert store.backlog_size == 4

    def test_checkpoint_catches_up_first(self, disk_db_path):
        store = StoreManager(disk_db_path)
        try:
            apply(store, WriteNodeOp(node(0, name="a")), catch_up=False)
            store.checkpoint()
            assert store.backlog_size == 0
            assert store.wal.entry_count() == 0
        finally:
            store.close()
        reopened = StoreManager(disk_db_path)
        try:
            assert reopened.stats.batches_replayed == 0
            assert reopened.read_node(0).properties == {"name": "a"}
        finally:
            reopened.close()

    def test_replay_goes_through_the_backlog(self, disk_db_path):
        store = StoreManager(disk_db_path)
        for score in range(3):
            apply(store, WriteNodeOp(node(0, score=score)), catch_up=False)
        store.wal.close()  # a crash with three queued batches

        recovered = StoreManager(disk_db_path)
        try:
            assert recovered.stats.batches_replayed == 3
            assert recovered.stats.writes_skipped == 1
            assert recovered.read_node(0).properties == {"score": 2}
        finally:
            recovered.close()

    def test_a_failed_catch_up_degrades_and_refuses_queued_reads(self, store, monkeypatch):
        apply(store, WriteNodeOp(node(0, name="a")))
        apply(store, WriteNodeOp(node(1)), catch_up=False)

        def fail(_node, _commit_ts):
            raise OSError("disk gone")

        monkeypatch.setattr(store, "_write_node", fail)
        with pytest.raises(OSError):
            store.catch_up()
        assert store.health.as_dict()["reason"] == "store-apply-failed"
        # Never a state from before the catch-up: the queued key is refused,
        # every other key still reads.
        with pytest.raises(DatabaseReadOnlyError):
            store.read_node(1)
        with pytest.raises(DatabaseReadOnlyError):
            list(store.iter_node_ids())
        assert store.read_node(0).properties == {"name": "a"}
