"""Tests for the sharded commit pipeline.

Covers the properties the refactor must preserve and the new ones it adds:

* multi-threaded bank transfers keep every snapshot's total constant, whether
  the committers' write sets land on disjoint or overlapping stripes,
* a committer stalled mid-install pins the snapshot watermark — later commits
  stay invisible to new snapshots until the gap closes (no torn snapshots),
* ``commit_stripes=1`` degenerates to the seed's fully-serialised behaviour,
* the vacuum baseline (``harness.vacuum``) still stops the world: it holds
  every commit stripe for its whole pass, and
* group commit coalesces concurrent committers into fewer WAL flushes without
  losing any batch.
"""

from __future__ import annotations

import threading

import pytest

from repro import GraphDatabase, IsolationLevel, WriteWriteConflictError
from repro.core.si_manager import SnapshotIsolationEngine
from repro.graph.entity import NodeData
from repro.graph.store_manager import StoreManager

from harness.vacuum import VacuumCollector

ACCOUNTS = 16
INITIAL_BALANCE = 100
TOTAL = ACCOUNTS * INITIAL_BALANCE


def _open_bank(**options) -> tuple:
    db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT, **options)
    with db.transaction() as tx:
        account_ids = [
            tx.create_node(labels=["Account"], properties={"balance": INITIAL_BALANCE}).id
            for _ in range(ACCOUNTS)
        ]
    return db, account_ids


def _transfer(db, source: int, target: int, amount: int) -> bool:
    """Move ``amount`` between two accounts; False when the commit conflicts."""
    try:
        with db.transaction() as tx:
            tx.set_node_property(source, "balance", tx.get_node(source)["balance"] - amount)
            tx.set_node_property(target, "balance", tx.get_node(target)["balance"] + amount)
        return True
    except WriteWriteConflictError:
        return False


def _snapshot_total(db, account_ids) -> int:
    with db.transaction(read_only=True) as tx:
        return sum(tx.get_node(account_id)["balance"] for account_id in account_ids)


def _run_bank_workload(db, account_ids, *, pairs, transfers_per_thread=40):
    """Concurrent transfer threads plus a reader asserting the invariant."""
    stop = threading.Event()
    totals_seen = []
    reader_error = []

    def reader():
        while not stop.is_set():
            total = _snapshot_total(db, account_ids)
            totals_seen.append(total)
            if total != TOTAL:
                reader_error.append(total)
                return

    def writer(source, target):
        for iteration in range(transfers_per_thread):
            _transfer(db, source, target, amount=1 + iteration % 5)
            _transfer(db, target, source, amount=1 + iteration % 5)

    reader_thread = threading.Thread(target=reader, daemon=True)
    writer_threads = [
        threading.Thread(target=writer, args=pair, daemon=True) for pair in pairs
    ]
    reader_thread.start()
    for thread in writer_threads:
        thread.start()
    for thread in writer_threads:
        thread.join()
    stop.set()
    reader_thread.join()
    assert not reader_error, f"snapshot saw torn total {reader_error[0]} != {TOTAL}"
    assert totals_seen, "the reader never captured a snapshot"
    assert _snapshot_total(db, account_ids) == TOTAL


class TestBankTransferInvariant:
    @pytest.mark.parametrize("stripes", [1, 4, 16])
    def test_disjoint_stripe_transfers_keep_total_constant(self, stripes):
        db, accounts = _open_bank(commit_stripes=stripes)
        # Pair accounts so every thread owns a disjoint account pair.
        pairs = [(accounts[i], accounts[i + 1]) for i in range(0, 8, 2)]
        _run_bank_workload(db, accounts, pairs=pairs)
        db.close()

    def test_overlapping_stripe_transfers_keep_total_constant(self):
        db, accounts = _open_bank(commit_stripes=8, group_commit=True)
        # Every thread shares the first account: all pairs overlap.
        pairs = [(accounts[0], accounts[i]) for i in range(1, 5)]
        _run_bank_workload(db, accounts, pairs=pairs)
        db.close()


class _StallingStore(StoreManager):
    """Store manager that blocks one chosen transaction inside apply_batch."""

    def __init__(self) -> None:
        super().__init__(None)
        self.stall_txn_id = None
        self.stalled = threading.Event()
        self.release = threading.Event()

    def apply_batch(self, txn_id, operations):
        if txn_id == self.stall_txn_id:
            self.stalled.set()
            assert self.release.wait(timeout=10.0), "stalled committer never released"
        return super().apply_batch(txn_id, operations)


class TestWatermarkPublication:
    def test_stalled_committer_pins_the_snapshot_watermark(self):
        store = _StallingStore()
        engine = SnapshotIsolationEngine(store, commit_stripes=16)
        setup = engine.begin()
        node_a = engine.allocate_node_id()
        node_b = engine.allocate_node_id()
        setup.put_node(NodeData(node_a, {"A"}, {"value": 0}), create=True)
        setup.put_node(NodeData(node_b, {"B"}, {"value": 0}), create=True)
        setup.commit()

        slow = engine.begin()
        slow.put_node(NodeData(node_a, {"A"}, {"value": 1}))
        store.stall_txn_id = slow.txn_id
        slow_thread = threading.Thread(target=slow.commit, daemon=True)
        slow_thread.start()
        assert store.stalled.wait(timeout=10.0)
        store.stall_txn_id = None

        # A fast committer on a disjoint stripe finishes entirely...
        fast = engine.begin()
        fast.put_node(NodeData(node_b, {"B"}, {"value": 2}))
        fast.commit()
        assert engine.oracle.pending_commit_count() >= 1

        # ...but a fresh snapshot must not cover it: the stalled commit holds
        # an older timestamp, so exposing the fast commit would tear the
        # snapshot ordering.
        reader = engine.begin(read_only=True)
        assert reader.read_node(node_a).properties["value"] == 0
        assert reader.read_node(node_b).properties["value"] == 0
        reader.commit()

        store.release.set()
        slow_thread.join(timeout=10.0)
        assert not slow_thread.is_alive()
        assert engine.oracle.pending_commit_count() == 0

        reader = engine.begin(read_only=True)
        assert reader.read_node(node_a).properties["value"] == 1
        assert reader.read_node(node_b).properties["value"] == 2
        reader.commit()
        store.close()

    def test_single_stripe_serialises_disjoint_commits(self):
        """The escape hatch: with one stripe a stalled committer blocks all."""
        store = _StallingStore()
        engine = SnapshotIsolationEngine(store, commit_stripes=1)
        assert engine.commit_stripe_count == 1
        setup = engine.begin()
        node_a = engine.allocate_node_id()
        node_b = engine.allocate_node_id()
        setup.put_node(NodeData(node_a, {"A"}), create=True)
        setup.put_node(NodeData(node_b, {"B"}), create=True)
        setup.commit()

        slow = engine.begin()
        slow.put_node(NodeData(node_a, {"A"}, {"value": 1}))
        store.stall_txn_id = slow.txn_id
        slow_thread = threading.Thread(target=slow.commit, daemon=True)
        slow_thread.start()
        assert store.stalled.wait(timeout=10.0)
        store.stall_txn_id = None

        fast = engine.begin()
        fast.put_node(NodeData(node_b, {"B"}, {"value": 2}))
        fast_done = threading.Event()

        def fast_commit():
            fast.commit()
            fast_done.set()

        fast_thread = threading.Thread(target=fast_commit, daemon=True)
        fast_thread.start()
        # Disjoint write sets, but one stripe: the fast commit must queue.
        assert not fast_done.wait(timeout=0.3)
        store.release.set()
        assert fast_done.wait(timeout=10.0)
        slow_thread.join(timeout=10.0)
        store.close()


class TestVacuumStopsTheWorld:
    @pytest.mark.parametrize("stripes", [1, 16])
    def test_commit_started_during_a_pass_waits_for_it(self, stripes):
        si_db = GraphDatabase.in_memory(
            isolation=IsolationLevel.SNAPSHOT, commit_stripes=stripes
        )
        with si_db.transaction() as tx:
            node_id = tx.create_node(labels=["Hot"], properties={"n": 0}).id
        for value in range(3):
            with si_db.transaction() as tx:
                tx.set_node_property(node_id, "n", value)
        vacuum = VacuumCollector(si_db.engine)
        committed = threading.Event()
        committed_during_pass = []

        def commit():
            with si_db.transaction() as tx:
                tx.set_node_property(node_id, "n", 99)
            committed.set()

        scan_store = vacuum._scan_store

        def scan_store_beside_a_committer(stats):
            # Still inside the pass, with every stripe held.
            thread = threading.Thread(target=commit, daemon=True)
            thread.start()
            committed_during_pass.append(committed.wait(timeout=0.3))
            scan_store(stats)
            committed_during_pass.append(committed.is_set())

        vacuum._scan_store = scan_store_beside_a_committer
        stats = vacuum.collect()
        assert committed_during_pass == [False, False]
        assert stats.versions_collected == 3
        assert committed.wait(timeout=10.0)
        with si_db.transaction() as tx:
            assert tx.get_node(node_id).get("n") == 99
        si_db.close()

    def test_pass_waits_for_a_commit_mid_install(self):
        store = _StallingStore()
        engine = SnapshotIsolationEngine(store, commit_stripes=16)
        setup = engine.begin()
        node_id = engine.allocate_node_id()
        setup.put_node(NodeData(node_id, {"A"}, {"value": 0}), create=True)
        setup.commit()

        slow = engine.begin()
        slow.put_node(NodeData(node_id, {"A"}, {"value": 1}))
        store.stall_txn_id = slow.txn_id
        slow_thread = threading.Thread(target=slow.commit, daemon=True)
        slow_thread.start()
        assert store.stalled.wait(timeout=10.0)

        vacuum = VacuumCollector(engine)
        passes = []
        vacuum_thread = threading.Thread(
            target=lambda: passes.append(vacuum.collect()), daemon=True
        )
        vacuum_thread.start()
        # The installing commit holds its stripe: the pass cannot start.
        vacuum_thread.join(timeout=0.3)
        assert vacuum_thread.is_alive() and passes == []
        store.release.set()
        slow_thread.join(timeout=10.0)
        vacuum_thread.join(timeout=10.0)
        assert len(passes) == 1 and passes[0].chains_scanned >= 1
        store.close()


class TestGroupCommit:
    def test_concurrent_batches_coalesce_without_loss(self):
        db, accounts = _open_bank(commit_stripes=16, group_commit=True)
        pairs = [(accounts[i], accounts[i + 1]) for i in range(0, 12, 2)]
        _run_bank_workload(db, accounts, pairs=pairs, transfers_per_thread=25)
        stats = db.store.stats
        assert stats.group_batches == stats.batches_applied
        assert stats.group_flushes >= 1
        assert stats.group_flushes <= stats.group_batches
        db.close()

    def test_group_commit_preserves_wal_replay(self, tmp_path):
        path = str(tmp_path / "grouped")
        db = GraphDatabase.open(
            path, isolation=IsolationLevel.SNAPSHOT, group_commit=True
        )
        with db.transaction() as tx:
            node_id = tx.create_node(labels=["Durable"], properties={"v": 1}).id
        # Simulate a crash: skip checkpoint/close and replay the WAL fresh.
        db.store.wal.close()
        recovered = StoreManager(path)
        assert recovered.stats.batches_replayed >= 1
        node = recovered.read_node(node_id)
        assert node is not None and node.properties["v"] == 1
        recovered.close()

    def test_statistics_report_pipeline_counters(self):
        db, accounts = _open_bank(commit_stripes=4, group_commit=True)
        _transfer(db, accounts[0], accounts[1], 5)
        stats = db.statistics()
        pipeline = stats["engine"]["commit_pipeline"]
        assert pipeline["stripes"] == 4
        assert pipeline["stripe_acquisitions"] >= 1
        assert stats["engine"]["oracle"]["pending_commits"] == 0
        assert "group_flushes" in stats["store"]
        db.close()
