"""Concurrent stress tests: end-to-end invariants under real thread interleavings.

These complement the deterministic interleavings in ``test_isolation_anomalies``:
they run genuinely concurrent workloads and assert global invariants that must
hold regardless of scheduling — money conservation under snapshot isolation,
store consistency after mixed structural churn, and snapshot stability for a
reader that stays open for the whole run.
"""

import random
import threading

import pytest

from repro import GraphDatabase, IsolationLevel, WriteWriteConflictError
from repro.errors import (
    ConstraintViolationError,
    EntityNotFoundError,
    TransactionAbortedError,
)
from repro.graph.recovery import check_store

from harness.graphs import build_account_graph, build_social_graph

WORKERS = 4
OPS = 30


def run_threads(worker, count=WORKERS):
    """Run workers to completion, re-raising any worker exception.

    Swallowed worker crashes would let the post-run assertions pass against
    a workload that never actually completed.
    """
    errors = []

    def guarded(worker_id):
        try:
            worker(worker_id)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,), daemon=True) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


class TestMoneyConservation:
    def test_snapshot_isolation_with_retries_conserves_total(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
        graph = build_account_graph(db, accounts=10, initial_balance=1_000, seed=1)
        accounts = graph.group("accounts")

        def worker(worker_id):
            rng = random.Random(worker_id)
            for _ in range(OPS):
                for _attempt in range(20):
                    source, target = rng.sample(accounts, 2)
                    amount = rng.randint(1, 25)
                    try:
                        with db.transaction() as tx:
                            src = tx.get_node(source)
                            dst = tx.get_node(target)
                            tx.set_node_property(source, "balance", int(src["balance"]) - amount)
                            tx.set_node_property(target, "balance", int(dst["balance"]) + amount)
                        break
                    except (WriteWriteConflictError, TransactionAbortedError):
                        continue

        run_threads(worker)
        with db.transaction(read_only=True) as tx:
            total = sum(int(tx.get_node(account)["balance"]) for account in accounts)
        assert total == 10 * 1_000
        db.close()

    def test_serializable_holds_cross_account_floor(self):
        """A constraint spanning two entities survives concurrent withdrawals.

        Every transaction reads *both* balances and withdraws from one only
        if the combined balance stays non-negative — the write-skew shape
        snapshot isolation cannot protect.  Under SERIALIZABLE with
        ``run_transaction`` retries the invariant must hold at every point,
        so the final combined balance is non-negative by serializability.
        """
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        with db.transaction() as tx:
            a = tx.create_node(labels=["Account"], properties={"balance": 300})
            b = tx.create_node(labels=["Account"], properties={"balance": 300})
        ids = (a.id, b.id)

        def worker(worker_id):
            rng = random.Random(worker_id + 500)

            def body(tx):
                balance_a = int(tx.get_node(ids[0])["balance"])
                balance_b = int(tx.get_node(ids[1])["balance"])
                amount = rng.randint(1, 40)
                if balance_a + balance_b >= amount:
                    target, balance = rng.choice(
                        [(ids[0], balance_a), (ids[1], balance_b)]
                    )
                    tx.set_node_property(target, "balance", balance - amount)

            for _ in range(OPS):
                try:
                    db.run_transaction(body, retries=30, rng=rng)
                except TransactionAbortedError:
                    continue

        run_threads(worker)
        with db.transaction(read_only=True) as tx:
            combined = sum(int(tx.get_node(i)["balance"]) for i in ids)
        assert combined >= 0
        reasons = db.statistics()["engine"]["transactions"]["abort_reasons"]
        assert set(reasons) == {
            "ww-conflict",
            "rw-antidependency",
            "safe-snapshot",
            "deadlock",
            "io-error",
            "degraded-mode",
        }
        # Every abort the engine counted must be attributed to some cause
        # (the breakdown is not allowed to silently under-report).
        engine_stats = db.statistics()["engine"]["transactions"]
        assert sum(reasons.values()) >= engine_stats["aborted"]
        db.run_gc()
        assert db.statistics()["engine"]["concurrency_control"]["siread_entries"] == 0
        db.close()


class TestStructuralChurn:
    @pytest.mark.parametrize("isolation",
                             [IsolationLevel.SNAPSHOT, IsolationLevel.READ_COMMITTED,
                              IsolationLevel.SERIALIZABLE],
                             ids=["snapshot", "read_committed", "serializable"])
    def test_store_stays_consistent_under_concurrent_churn(self, isolation):
        db = GraphDatabase.in_memory(isolation=isolation)
        graph = build_social_graph(db, people=60, avg_friends=3, seed=2)
        people = graph.group("people")

        def worker(worker_id):
            rng = random.Random(worker_id + 100)
            for _ in range(OPS):
                try:
                    action = rng.random()
                    with db.transaction() as tx:
                        if action < 0.4:
                            left, right = rng.sample(people, 2)
                            if tx.try_get_node(left) and tx.try_get_node(right):
                                tx.create_relationship(left, right, "KNOWS")
                        elif action < 0.7:
                            victim = rng.choice(people)
                            if tx.try_get_node(victim) is not None:
                                tx.delete_node(victim, detach=True)
                        else:
                            node = tx.create_node(["Person"], {"name": f"new-{worker_id}"})
                            anchor = rng.choice(people)
                            if tx.try_get_node(anchor) is not None:
                                tx.create_relationship(node, anchor, "KNOWS")
                except (WriteWriteConflictError, TransactionAbortedError):
                    continue
                except (ConstraintViolationError, EntityNotFoundError):
                    # Read committed permits these races by design: a commit
                    # can apply a relationship create whose endpoint a
                    # concurrent delete removed between the existence check
                    # and apply (NodeNotFoundError), or a node delete whose
                    # victim a concurrent commit re-attached relationships to
                    # (ConstraintViolationError).  The MVCC engines turn the
                    # same interleavings into write-write conflicts at
                    # validation instead.
                    continue

        run_threads(worker)
        # Whatever interleaving happened, the persistent store must be
        # structurally sound and the two entity counts must agree with a scan.
        if db.is_snapshot_isolation:
            db.run_gc()
        report = check_store(db.store)
        assert report.consistent, report.errors
        with db.transaction(read_only=True) as tx:
            assert tx.node_count() == db.store.node_count()
        db.close()


class TestSnapshotStabilityUnderLoad:
    def test_long_reader_sees_a_frozen_world(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
        graph = build_social_graph(db, people=40, avg_friends=2, seed=3)
        people = graph.group("people")

        reader = db.begin(read_only=True)
        initial_people = {node.id for node in reader.find_nodes(label="Person")}
        initial_scores = {node_id: reader.get_node(node_id).get("score", 0) for node_id in people[:10]}

        def worker(worker_id):
            rng = random.Random(worker_id + 7)
            for _ in range(OPS):
                try:
                    with db.transaction() as tx:
                        if rng.random() < 0.5:
                            tx.create_node(["Person"], {"name": "noise"})
                        else:
                            victim = rng.choice(people)
                            if tx.try_get_node(victim) is not None:
                                tx.set_node_property(victim, "score", rng.randint(1, 10_000))
                except (WriteWriteConflictError, TransactionAbortedError):
                    continue

        run_threads(worker)

        # The reader's view is byte-for-byte what it was at its start timestamp.
        assert {node.id for node in reader.find_nodes(label="Person")} == initial_people
        for node_id, score in initial_scores.items():
            assert reader.get_node(node_id).get("score", 0) == score
        reader.rollback()

        # A fresh reader sees the churned world.
        with db.transaction(read_only=True) as tx:
            assert {node.id for node in tx.find_nodes(label="Person")} != initial_people
        db.close()
