"""Reads through both engines while the record store lags its log.

A commit logs its batch and publishes; the record files catch up later.  Any
store read that depends on a queued batch catches up first, and these tests
go through the reads that reach the store: every read-committed read, a
snapshot read whose chain was evicted or purged, and a scan.  Each one would
see a state from before a commit without that rule.
"""

import random
import shutil
import sys
import threading

import pytest

from repro import GraphDatabase, IsolationLevel
from repro.core.si_manager import SnapshotIsolationEngine
from repro.errors import TransactionAbortedError
from repro.graph import store_manager
from repro.graph.entity import EntityKind, NodeData, RelationshipData, rel_key
from repro.graph.properties import COMMIT_TS_PROPERTY
from repro.graph.recovery import check_store
from repro.graph.store_manager import StoreManager


def _create(db, **properties):
    with db.transaction() as tx:
        return tx.create_node(["Person"], properties).id


def _set(db, node_id, **properties):
    with db.transaction() as tx:
        for key, value in properties.items():
            tx.set_node_property(node_id, key, value)


def _read(db, node_id):
    with db.transaction(read_only=True) as tx:
        node = tx.try_get_node(node_id)
        return None if node is None else dict(node.properties)


def test_read_committed_reads_a_queued_commit():
    db = GraphDatabase.in_memory(isolation=IsolationLevel.READ_COMMITTED)
    try:
        node_id = _create(db, name="a")
        db.store.catch_up()
        _set(db, node_id, name="b")
        assert db.store.backlog_size == 1
        assert _read(db, node_id) == {"name": "b"}
        assert db.store.backlog_size == 0
    finally:
        db.close()


def test_snapshot_read_of_an_evicted_chain_with_a_queued_commit():
    db = GraphDatabase.in_memory(
        isolation=IsolationLevel.SNAPSHOT, version_cache_capacity=2
    )
    try:
        node_id = _create(db, name="a")
        for index in range(8):  # push node_id's one-version chain out
            _create(db, name=f"filler-{index}")
        assert db.engine.versions.get_chain(node_id) is None
        assert db.store.backlog_size == 9
        assert _read(db, node_id) == {"name": "a"}
    finally:
        db.close()


def test_a_deleted_node_stays_deleted_after_gc_purges_its_chain():
    db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
    try:
        node_id = _create(db, name="a")
        db.store.catch_up()  # the store holds the node
        with db.transaction() as tx:
            tx.delete_node(node_id)
        db.run_gc()
        assert db.engine.versions.get_chain(node_id) is None
        assert db.store.backlog_size == 1  # the delete is still queued
        assert _read(db, node_id) is None
    finally:
        db.close()


def test_a_scan_sees_a_queued_create():
    db = GraphDatabase.in_memory(
        isolation=IsolationLevel.SNAPSHOT, version_cache_capacity=1
    )
    try:
        created = [_create(db, n=index) for index in range(6)]
        assert db.store.backlog_size == 6
        with db.transaction(read_only=True) as tx:
            assert sorted(node.id for node in tx.find_nodes()) == created
    finally:
        db.close()


def test_a_crash_image_with_a_backlog_reopens_with_every_commit(tmp_path):
    live = str(tmp_path / "live")
    db = GraphDatabase.open(
        live, isolation=IsolationLevel.SNAPSHOT, version_cache_capacity=2
    )
    node_id = _create(db, score=0)
    db.checkpoint()
    for score in range(1, 6):
        _set(db, node_id, score=score)
    other = _create(db, score=-1)
    assert db.store.backlog_size == 6
    crash = str(tmp_path / "crash")
    shutil.copytree(live, crash)  # no close(): the records are behind
    # The live database answers the same from evicted chains.
    db.run_gc()
    for index in range(3):
        _create(db, name=f"filler-{index}")
    assert db.engine.versions.get_chain(node_id) is None
    assert [_read(db, node_id), _read(db, other)] == [{"score": 5}, {"score": -1}]
    db.close()

    recovered = GraphDatabase.open(crash, isolation=IsolationLevel.SNAPSHOT)
    try:
        assert recovered.store.stats.batches_replayed == 6
        assert _read(recovered, node_id) == {"score": 5}
        assert _read(recovered, other) == {"score": -1}
    finally:
        recovered.close()


@pytest.mark.parametrize(
    "isolation",
    [IsolationLevel.SNAPSHOT, IsolationLevel.SERIALIZABLE, IsolationLevel.READ_COMMITTED],
)
def test_counts_include_the_backlog_without_catching_up(isolation):
    """The planner's totals count the backlog's queued creates and deletes;
    reading them applies nothing."""
    db = GraphDatabase.in_memory(isolation=isolation)
    try:
        with db.transaction() as tx:
            a, b, c = (tx.create_node(["Person"], {"n": index}) for index in range(3))
            ab = tx.create_relationship(a, b, "KNOWS")
            tx.create_relationship(b, c, "KNOWS")
        db.store.catch_up()
        with db.transaction() as tx:
            d = tx.create_node(["Person"], {"n": 3})
            tx.create_relationship(a, d, "KNOWS")
            tx.create_relationship(d, d, "SELF")
        with db.transaction() as tx:
            tx.delete_relationship(ab)
            tx.set_node_property(b, "n", 10)
        with db.transaction() as tx:
            tx.delete_node(c, detach=True)
        with db.transaction() as tx:
            tx.create_node(["Temp"])
        with db.transaction() as tx:  # created and deleted in one backlog
            gone = tx.create_node(["Temp"])
        with db.transaction() as tx:
            tx.delete_node(gone)
        # Read-committed reads catch the store up: its backlog is the last
        # commit's alone.
        backlog = db.store.backlog_size
        assert backlog == (1 if isolation is IsolationLevel.READ_COMMITTED else 6)
        engine = db.engine
        counts = (engine.committed_count(EntityKind.NODE),
                  engine.committed_count(EntityKind.RELATIONSHIP))
        assert counts == (4, 2)  # a, b, d and one Temp node; a-d and the self-loop
        assert db.store.backlog_size == backlog
        db.store.catch_up()
        assert (db.store.nodes.count(), db.store.relationships.count()) == counts
        assert (db.store.node_count(), db.store.relationship_count()) == counts
    finally:
        db.close()


@pytest.mark.parametrize("collect_first", [True, False], ids=["chain-purged", "chain-held"])
def test_a_create_on_a_reused_id_reads_nothing_stale(collect_first):
    """With id reuse on, a catch-up that applies a delete frees the id and
    the next create gets it.  That create installs without reading the
    store: the store holds nothing for the id and the backlog no operation
    on it — whether GC has purged the deleted relationship's chain or a
    reader still holds it."""
    store = StoreManager(None, reuse_entity_ids=True)
    engine = SnapshotIsolationEngine(store)
    try:
        tx = engine.begin()
        a, b, c = (engine.allocate_node_id() for _ in range(3))
        for node_id in (a, b, c):
            tx.put_node(NodeData(node_id, {"P"}), create=True)
        old = RelationshipData(engine.allocate_relationship_id(), "KNOWS", a, b, {"w": 1})
        tx.put_relationship(old, create=True)
        tx.commit()
        pinned = None if collect_first else engine.begin(read_only=True)
        deleter = engine.begin()
        deleter.delete_relationship(old.rel_id)
        deleter.commit()
        reads = []  # engine loads and the commit check's store lookups
        read_persisted, logged_state = store.read_persisted, store._logged_state
        store.read_persisted = lambda key: reads.append(key) or read_persisted(key)
        store._logged_state = lambda key: reads.append(key) or logged_state(key)
        store.catch_up()  # applies the delete: the id is free again
        engine.run_gc()
        key = rel_key(old.rel_id)
        assert (engine.versions.get_chain(key) is None) == collect_first
        rel_id = engine.allocate_relationship_id()
        assert rel_id == old.rel_id
        new = RelationshipData(rel_id, "LIKES", a, c, {"w": 2})
        creator = engine.begin()
        creator.put_relationship(new, create=True)
        creator.commit()
        assert key not in reads
        chain = engine.versions.get_chain(key)
        assert chain.newest().payload == new
        if collect_first:
            assert len(chain) == 1
        else:
            # A reader begun before the delete still reads the old state.
            assert len(chain) == 3
            assert pinned.read_relationship(rel_id) == old
            assert pinned.relationships_of(a) == [old]
            pinned.rollback()
            engine.run_gc()
            assert len(engine.versions.get_chain(key)) == 1
        reader = engine.begin(read_only=True)
        assert reader.read_relationship(rel_id) == new
        assert reader.relationships_of(a) == [new]
        assert reader.relationships_of(b) == []
        reader.rollback()
        store.catch_up()
        assert store.read_relationship(rel_id) == RelationshipData(
            rel_id, "LIKES", a, c, {"w": 2, COMMIT_TS_PROPERTY: creator.commit_ts}
        )
        assert [store.nodes.read(node_id).rel_count for node_id in (a, b, c)] == [1, 0, 1]
    finally:
        store.close()


def test_the_bound_catches_up_after_the_commit(monkeypatch):
    monkeypatch.setattr(store_manager, "CATCH_UP_BATCHES", 4)
    db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
    try:
        node_id = _create(db, score=0)
        for score in range(1, 3):
            _set(db, node_id, score=score)
        assert db.store.backlog_size == 3
        _set(db, node_id, score=3)  # the fourth batch: caught up at commit
        assert db.store.backlog_size == 0
        assert db.store.stats.writes_skipped == 2
        skipped = db.metrics_snapshot()["instruments"]["repro_store_apply_skipped_total"]
        assert skipped["samples"][0]["value"] == 2
        assert db.store.read_node(node_id).properties["score"] == 3
    finally:
        db.close()


@pytest.mark.parametrize("group_commit", [False, True], ids=["single", "group"])
@pytest.mark.parametrize(
    "isolation", [IsolationLevel.SNAPSHOT, IsolationLevel.READ_COMMITTED]
)
def test_transfers_keep_their_total_through_concurrent_catch_ups(
    monkeypatch, isolation, group_commit
):
    """Writers log transfers and catch up every few batches while readers
    reach the store (evicted chains, read-committed reads); no snapshot sees
    a torn total, and the caught-up records hold the committed balances."""
    monkeypatch.setattr(store_manager, "CATCH_UP_BATCHES", 5)
    db = GraphDatabase.in_memory(
        isolation=isolation, version_cache_capacity=2, group_commit=group_commit
    )
    accounts = [_create(db, balance=100) for _ in range(6)]
    total = 100 * len(accounts)
    stop = threading.Event()
    torn, errors, transfers = [], [], []

    def writer(seed):
        rng = random.Random(seed)
        done = 0
        while done < 60:
            source, target = rng.sample(accounts, 2)
            try:
                with db.transaction() as tx:
                    tx.set_node_property(
                        source, "balance", tx.get_node(source).get("balance") - 1
                    )
                    tx.set_node_property(
                        target, "balance", tx.get_node(target).get("balance") + 1
                    )
            except TransactionAbortedError:
                continue
            done += 1
        transfers.append(done)

    def reader():
        while not stop.is_set():
            try:
                with db.transaction(read_only=True) as tx:
                    seen = sum(tx.get_node(a).get("balance") for a in accounts)
            except TransactionAbortedError:
                continue
            if isolation is IsolationLevel.SNAPSHOT and seen != total:
                torn.append(seen)

    def guarded(target, *args):
        try:
            target(*args)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writers = [threading.Thread(target=guarded, args=(writer, seed)) for seed in range(3)]
        readers = [threading.Thread(target=guarded, args=(reader,)) for _ in range(2)]
        for thread in writers + readers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not any(thread.is_alive() for thread in writers + readers)
        assert errors == []
        assert torn == []
        assert transfers == [60, 60, 60]
        db.store.catch_up()
        stored = [db.store.read_node(a).properties["balance"] for a in accounts]
        assert stored == [_read(db, a)["balance"] for a in accounts]
        if isolation is IsolationLevel.SNAPSHOT:  # read committed loses updates
            assert sum(stored) == total
        assert check_store(db.store).consistent
    finally:
        db.close()
