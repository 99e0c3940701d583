"""Integration tests for the snapshot-isolation engine (the paper's mechanisms)."""

import pytest

from repro.core.conflict import ConflictPolicy
from repro.core.si_manager import SnapshotIsolationEngine
from repro.errors import WriteWriteConflictError
from repro.graph.entity import NodeData, RelationshipData, node_key
from repro.graph.properties import COMMIT_TS_PROPERTY
from repro.graph.store_manager import StoreManager


@pytest.fixture
def engine():
    store = StoreManager(None, reuse_entity_ids=False)
    si = SnapshotIsolationEngine(store)
    yield si
    store.close()


def create_node(engine, labels=("Person",), **props):
    txn = engine.begin()
    node_id = engine.allocate_node_id()
    txn.put_node(NodeData(node_id, frozenset(labels), props), create=True)
    txn.commit()
    return node_id


def create_relationship(engine, start, end, rel_type="KNOWS", **props):
    txn = engine.begin()
    rel_id = engine.allocate_relationship_id()
    txn.put_relationship(RelationshipData(rel_id, rel_type, start, end, props), create=True)
    txn.commit()
    return rel_id


class TestSnapshotReads:
    def test_reader_keeps_its_snapshot(self, engine):
        node_id = create_node(engine, balance=100)
        reader = engine.begin(read_only=True)
        assert reader.read_node(node_id).properties["balance"] == 100

        writer = engine.begin()
        writer.put_node(writer.read_node(node_id).with_property("balance", 7))
        writer.commit()

        # The paper's read rule: still the value as of the reader's start.
        assert reader.read_node(node_id).properties["balance"] == 100
        fresh = engine.begin(read_only=True)
        assert fresh.read_node(node_id).properties["balance"] == 7

    def test_entity_created_after_snapshot_is_invisible(self, engine):
        reader = engine.begin(read_only=True)
        node_id = create_node(engine, name="late")
        assert reader.read_node(node_id) is None
        assert node_id not in reader.find_nodes_by_label("Person")

    def test_delete_invisible_to_older_snapshot(self, engine):
        node_id = create_node(engine)
        reader = engine.begin(read_only=True)
        deleter = engine.begin()
        deleter.delete_node(node_id)
        deleter.commit()
        assert reader.read_node(node_id) is not None
        assert engine.begin(read_only=True).read_node(node_id) is None

    def test_read_your_own_writes(self, engine):
        node_id = create_node(engine, balance=1)
        txn = engine.begin()
        txn.put_node(txn.read_node(node_id).with_property("balance", 2))
        assert txn.read_node(node_id).properties["balance"] == 2
        created = engine.allocate_node_id()
        txn.put_node(NodeData(created, {"Person"}), create=True)
        assert txn.read_node(created) is not None
        assert created in txn.find_nodes_by_label("Person")
        assert created in {node.node_id for node in txn.iter_nodes()}
        txn.rollback()
        assert engine.begin().read_node(created) is None

    def test_uncommitted_writes_invisible_to_others(self, engine):
        node_id = create_node(engine, balance=1)
        writer = engine.begin()
        writer.put_node(writer.read_node(node_id).with_property("balance", 99))
        other = engine.begin(read_only=True)
        assert other.read_node(node_id).properties["balance"] == 1
        writer.rollback()


class TestWriteRule:
    def test_first_updater_wins_active_conflict(self, engine):
        node_id = create_node(engine, counter=0)
        first = engine.begin()
        second = engine.begin()
        first.put_node(first.read_node(node_id).with_property("counter", 1))
        with pytest.raises(WriteWriteConflictError):
            second.put_node(second.read_node(node_id).with_property("counter", 2))
        second.rollback()
        first.commit()
        assert engine.begin().read_node(node_id).properties["counter"] == 1

    def test_conflict_with_already_committed_concurrent_update(self, engine):
        node_id = create_node(engine, counter=0)
        stale = engine.begin()
        stale.read_node(node_id)
        winner = engine.begin()
        winner.put_node(winner.read_node(node_id).with_property("counter", 1))
        winner.commit()
        with pytest.raises(WriteWriteConflictError):
            stale.put_node(NodeData(node_id, {"Person"}, {"counter": 99}))
        stale.rollback()

    def test_lost_update_prevented(self, engine):
        node_id = create_node(engine, counter=0)
        t1 = engine.begin()
        t2 = engine.begin()
        value1 = t1.read_node(node_id).properties["counter"]
        _value2 = t2.read_node(node_id).properties["counter"]
        t1.put_node(t1.read_node(node_id).with_property("counter", value1 + 1))
        t1.commit()
        with pytest.raises(WriteWriteConflictError):
            t2.put_node(t2.read_node(node_id).with_property("counter", 99))
        t2.rollback()
        assert engine.begin().read_node(node_id).properties["counter"] == 1

    def test_disjoint_writes_both_commit(self, engine):
        node_a = create_node(engine, value=0)
        node_b = create_node(engine, value=0)
        t1 = engine.begin()
        t2 = engine.begin()
        t1.put_node(t1.read_node(node_a).with_property("value", 1))
        t2.put_node(t2.read_node(node_b).with_property("value", 2))
        t1.commit()
        t2.commit()
        check = engine.begin()
        assert check.read_node(node_a).properties["value"] == 1
        assert check.read_node(node_b).properties["value"] == 2

    def test_first_committer_wins_policy(self):
        store = StoreManager(None, reuse_entity_ids=False)
        engine = SnapshotIsolationEngine(
            store, conflict_policy=ConflictPolicy.FIRST_COMMITTER_WINS
        )
        node_id = create_node(engine, counter=0)
        t1 = engine.begin()
        t2 = engine.begin()
        # Under first-committer-wins both writes are accepted at write time...
        t1.put_node(t1.read_node(node_id).with_property("counter", 1))
        t2.put_node(t2.read_node(node_id).with_property("counter", 2))
        t1.commit()
        # ...and the loser is the one that commits second.
        with pytest.raises(WriteWriteConflictError):
            t2.commit()
        assert engine.begin().read_node(node_id).properties["counter"] == 1
        store.close()

    def test_structural_conflict_relationship_to_deleted_node(self, engine):
        node_a = create_node(engine)
        node_b = create_node(engine)
        deleter = engine.begin()
        linker = engine.begin()
        deleter.delete_node(node_b)
        deleter.commit()
        rel_id = engine.allocate_relationship_id()
        linker.put_relationship(
            RelationshipData(rel_id, "KNOWS", node_a, node_b), create=True
        )
        with pytest.raises(WriteWriteConflictError):
            linker.commit()

    def test_structural_conflict_delete_node_with_new_relationship(self, engine):
        node_a = create_node(engine)
        node_b = create_node(engine)
        deleter = engine.begin()
        deleter.read_node(node_b)
        linker = engine.begin()
        rel_id = engine.allocate_relationship_id()
        linker.put_relationship(
            RelationshipData(rel_id, "KNOWS", node_a, node_b), create=True
        )
        linker.commit()
        deleter.delete_node(node_b)
        with pytest.raises(WriteWriteConflictError):
            deleter.commit()


class TestIndexesAndIterators:
    def test_label_scan_is_snapshot_consistent(self, engine):
        ids = [create_node(engine, labels=("Person",)) for _ in range(3)]
        reader = engine.begin(read_only=True)
        create_node(engine, labels=("Person",))
        assert reader.find_nodes_by_label("Person") == set(ids)
        assert engine.begin().find_nodes_by_label("Person") == set(ids) | {max(ids) + 1}

    def test_property_scan_reflects_updates_per_snapshot(self, engine):
        node_id = create_node(engine, city="madrid")
        reader = engine.begin(read_only=True)
        writer = engine.begin()
        writer.put_node(writer.read_node(node_id).with_property("city", "lisbon"))
        writer.commit()
        assert node_id in reader.find_nodes_by_property("city", "madrid")
        fresh = engine.begin(read_only=True)
        assert node_id not in fresh.find_nodes_by_property("city", "madrid")
        assert node_id in fresh.find_nodes_by_property("city", "lisbon")

    def test_relationship_type_and_property_lookup(self, engine):
        node_a = create_node(engine)
        node_b = create_node(engine)
        rel_id = create_relationship(engine, node_a, node_b, "KNOWS", since=2016)
        txn = engine.begin()
        assert rel_id in txn.find_relationships_by_type("KNOWS")
        assert rel_id in txn.find_relationships_by_property("since", 2016)

    def test_relationships_of_respects_snapshots(self, engine):
        node_a = create_node(engine)
        node_b = create_node(engine)
        rel_id = create_relationship(engine, node_a, node_b)
        reader = engine.begin(read_only=True)
        deleter = engine.begin()
        deleter.delete_relationship(rel_id)
        deleter.commit()
        assert [rel.rel_id for rel in reader.relationships_of(node_a)] == [rel_id]
        assert engine.begin().relationships_of(node_a) == []

    def test_iterator_merges_store_cache_and_own_writes(self, engine):
        persisted = create_node(engine, origin="store")
        txn = engine.begin()
        own = engine.allocate_node_id()
        txn.put_node(NodeData(own, {"Person"}, {"origin": "own"}), create=True)
        visible_ids = {node.node_id for node in txn.iter_nodes()}
        assert visible_ids == {persisted, own}
        txn.rollback()


class TestPersistence:
    def test_only_newest_committed_version_is_persisted(self, engine):
        node_id = create_node(engine, value=0)
        pinner = engine.begin(read_only=True)  # keeps old versions alive in cache
        for value in range(1, 4):
            writer = engine.begin()
            writer.put_node(writer.read_node(node_id).with_property("value", value))
            writer.commit()
        stored = engine.store.read_node(node_id)
        assert stored.properties["value"] == 3
        assert stored.properties[COMMIT_TS_PROPERTY] == engine.oracle.latest_commit_ts
        # History lives only in the version chain, never in the store.
        chain = engine.versions.get_chain(node_key(node_id))
        assert chain.version_count() == 4
        pinner.rollback()

    def test_committed_delete_removes_persistent_record(self, engine):
        node_id = create_node(engine)
        deleter = engine.begin()
        deleter.delete_node(node_id)
        deleter.commit()
        assert engine.store.read_node(node_id) is None

    def test_reserved_property_stripped_from_reads(self, engine):
        node_id = create_node(engine, name="x")
        txn = engine.begin()
        assert COMMIT_TS_PROPERTY not in txn.read_node(node_id).properties

    def test_engine_reopen_preserves_snapshot_timestamps(self, disk_db_path):
        store = StoreManager(disk_db_path, reuse_entity_ids=False)
        engine = SnapshotIsolationEngine(store)
        node_id = create_node(engine, name="persisted")
        store.close()

        store2 = StoreManager(disk_db_path, reuse_entity_ids=False)
        engine2 = SnapshotIsolationEngine(store2)
        txn = engine2.begin()
        assert txn.read_node(node_id).properties["name"] == "persisted"
        assert node_id in txn.find_nodes_by_label("Person")
        store2.close()


class TestEngineBookkeeping:
    def test_statistics_shape(self, engine):
        create_node(engine)
        stats = engine.statistics()
        assert stats["transactions"]["committed"] == 1
        assert "versions" in stats and "gc" in stats and "oracle" in stats

    def test_empty_transaction_commit_is_cheap(self, engine):
        txn = engine.begin()
        txn.commit()
        assert engine.stats.committed == 1
        assert engine.store.stats.batches_applied == 0

    def test_read_only_transaction_rejects_writes(self, engine):
        node_id = create_node(engine)
        reader = engine.begin(read_only=True)
        from repro.errors import ReadOnlyTransactionError

        with pytest.raises(ReadOnlyTransactionError):
            reader.put_node(NodeData(node_id, {"Person"}))

    def test_create_and_delete_in_same_transaction_leaves_no_trace(self, engine):
        txn = engine.begin()
        node_id = engine.allocate_node_id()
        txn.put_node(NodeData(node_id, {"Temp"}), create=True)
        txn.delete_node(node_id)
        txn.commit()
        assert engine.begin().read_node(node_id) is None
        assert engine.store.read_node(node_id) is None
