"""Integration tests for the read-committed baseline engine."""

import threading

import pytest

from repro.engine import TransactionState
from repro.errors import ReadOnlyTransactionError
from repro.graph.entity import Direction, NodeData, RelationshipData
from repro.graph.store_manager import StoreManager
from repro.locking.lock_manager import LockManager
from repro.locking.rc_manager import ReadCommittedEngine


@pytest.fixture
def engine():
    store = StoreManager(None)
    rc = ReadCommittedEngine(store, lock_manager=LockManager(default_timeout=0.3))
    yield rc
    store.close()


def create_node(engine, labels=("Person",), **props):
    txn = engine.begin()
    node_id = engine.allocate_node_id()
    txn.put_node(NodeData(node_id, frozenset(labels), props), create=True)
    txn.commit()
    return node_id


class TestBasicLifecycle:
    def test_commit_persists_and_updates_indexes(self, engine):
        node_id = create_node(engine, name="alice")
        txn = engine.begin()
        assert txn.read_node(node_id).properties["name"] == "alice"
        assert node_id in txn.find_nodes_by_label("Person")
        assert node_id in txn.find_nodes_by_property("name", "alice")
        txn.rollback()

    def test_rollback_discards_writes_and_releases_locks(self, engine):
        node_id = create_node(engine, value=1)
        txn = engine.begin()
        txn.put_node(txn.read_node(node_id).with_property("value", 2))
        txn.rollback()
        assert engine.begin().read_node(node_id).properties["value"] == 1
        assert engine.locks.locks_held_by(txn.txn_id) == []

    def test_read_own_writes(self, engine):
        txn = engine.begin()
        node_id = engine.allocate_node_id()
        txn.put_node(NodeData(node_id, {"Person"}, {"name": "new"}), create=True)
        assert txn.read_node(node_id).properties["name"] == "new"
        assert node_id in txn.find_nodes_by_label("Person")
        assert node_id in {node.node_id for node in txn.iter_nodes()}
        txn.commit()

    def test_closed_transaction_rejects_use(self, engine):
        txn = engine.begin()
        txn.commit()
        from repro.errors import TransactionClosedError

        with pytest.raises(TransactionClosedError):
            txn.read_node(0)
        assert txn.state is TransactionState.COMMITTED

    def test_read_only_rejects_writes(self, engine):
        reader = engine.begin(read_only=True)
        with pytest.raises(ReadOnlyTransactionError):
            reader.put_node(NodeData(1, {"X"}), create=True)

    def test_delete_node_and_relationship(self, engine):
        node_a = create_node(engine)
        node_b = create_node(engine)
        txn = engine.begin()
        rel_id = engine.allocate_relationship_id()
        txn.put_relationship(RelationshipData(rel_id, "KNOWS", node_a, node_b), create=True)
        txn.commit()

        txn = engine.begin()
        txn.delete_relationship(rel_id)
        txn.delete_node(node_b)
        txn.commit()
        check = engine.begin()
        assert check.read_relationship(rel_id) is None
        assert check.read_node(node_b) is None
        assert check.relationships_of(node_a) == []


class TestReadCommittedSemantics:
    def test_reads_see_latest_committed_value(self, engine):
        """The defining behaviour: a second read observes a concurrent commit."""
        node_id = create_node(engine, balance=100)
        reader = engine.begin(read_only=True)
        assert reader.read_node(node_id).properties["balance"] == 100

        writer = engine.begin()
        writer.put_node(writer.read_node(node_id).with_property("balance", 5))
        writer.commit()

        # Unrepeatable read: same transaction, different value.
        assert reader.read_node(node_id).properties["balance"] == 5

    def test_predicate_scan_sees_phantoms(self, engine):
        create_node(engine, labels=("Person",))
        reader = engine.begin(read_only=True)
        first_scan = reader.find_nodes_by_label("Person")

        create_node(engine, labels=("Person",))
        second_scan = reader.find_nodes_by_label("Person")
        assert len(second_scan) == len(first_scan) + 1

    def test_readers_block_behind_writers_long_exclusive_lock(self, engine):
        """Under the locking baseline a reader's short shared lock queues behind
        a writer's long exclusive lock — the read-lock cost the paper removes.
        """
        from repro.errors import LockTimeoutError

        node_id = create_node(engine, balance=100)
        writer = engine.begin()
        writer.put_node(writer.read_node(node_id).with_property("balance", -1))
        reader = engine.begin(read_only=True)
        with pytest.raises(LockTimeoutError):
            reader.read_node(node_id)
        reader.rollback()
        writer.rollback()
        # Once the writer is gone the same read succeeds (and no dirty value
        # was ever exposed).
        fresh = engine.begin(read_only=True)
        assert fresh.read_node(node_id).properties["balance"] == 100

    def test_scan_and_seek_both_wait_for_an_uncommitted_writer(self, rc_db):
        """Every RC read takes the short shared lock, whichever API call made
        it: a whole-store scan queues behind a writer's exclusive lock exactly
        as a label seek does, and both then read the committed value."""
        with rc_db.transaction() as tx:
            node_id = tx.create_node(["A"], {"v": 0}).id
        writer = rc_db.transaction()
        writer.set_node_property(node_id, "v", 1)

        results = {}

        def read(name, reader):
            with rc_db.transaction(read_only=True) as tx:
                results[name] = [node["v"] for node in reader(tx)]

        readers = [
            threading.Thread(target=read, args=("scan", lambda tx: list(tx.nodes()))),
            threading.Thread(target=read, args=("seek", lambda tx: tx.find_nodes("A"))),
        ]
        for thread in readers:
            thread.start()
        try:
            for thread in readers:
                thread.join(0.3)
            blocked = [thread.is_alive() for thread in readers]
            read_before_commit = dict(results)
        finally:
            writer.commit()
            for thread in readers:
                thread.join(5)
        assert blocked == [True, True]
        assert read_before_commit == {}
        assert results == {"scan": [1], "seek": [1]}

    def test_relationships_of_merges_own_writes(self, engine):
        node_a = create_node(engine)
        node_b = create_node(engine)
        txn = engine.begin()
        rel_id = engine.allocate_relationship_id()
        txn.put_relationship(RelationshipData(rel_id, "KNOWS", node_a, node_b), create=True)
        rels = txn.relationships_of(node_a, Direction.OUTGOING)
        assert [rel.rel_id for rel in rels] == [rel_id]
        txn.rollback()

    def test_lost_update_is_possible(self, engine):
        """Read committed does not detect write-write conflicts on read-modify-write."""
        node_id = create_node(engine, counter=0)
        t1 = engine.begin()
        t2 = engine.begin()
        value_seen_by_t1 = t1.read_node(node_id).properties["counter"]
        value_seen_by_t2 = t2.read_node(node_id).properties["counter"]
        t1.put_node(NodeData(node_id, {"Person"}, {"counter": value_seen_by_t1 + 1}))
        t1.commit()
        t2.put_node(NodeData(node_id, {"Person"}, {"counter": value_seen_by_t2 + 1}))
        t2.commit()
        # Both incremented from 0, so one update was lost (final value 1, not 2).
        assert engine.begin().read_node(node_id).properties["counter"] == 1

    def test_engine_stats(self, engine):
        create_node(engine)
        txn = engine.begin()
        txn.rollback()
        stats = engine.stats.as_dict()
        assert stats["committed"] == 1
        assert stats["aborted"] == 1
        assert stats["begun"] == 2
