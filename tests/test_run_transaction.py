"""Tests for the retrying transaction helper and its backoff."""

import random
import threading

import pytest

from repro import (
    GraphDatabase,
    IsolationLevel,
    SerializationError,
    TransactionAbortedError,
    WriteWriteConflictError,
)
from repro.retry import jittered_backoff

from harness.anomaly import WriteSkewProbe


@pytest.fixture()
def db():
    database = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
    yield database
    database.close()


def _make_counter(db):
    with db.transaction() as tx:
        node = tx.create_node(labels=["Counter"], properties={"value": 0})
    return node.id


class TestRunTransaction:
    def test_commits_and_returns_value(self, db):
        node_id = _make_counter(db)

        def bump(tx):
            value = tx.get_node(node_id).get("value") + 1
            tx.set_node_property(node_id, "value", value)
            return value

        assert db.run_transaction(bump) == 1
        with db.transaction(read_only=True) as tx:
            assert tx.get_node(node_id).get("value") == 1

    def test_retries_write_conflict_then_succeeds(self, db):
        node_id = _make_counter(db)
        attempts = []

        def conflicted_once(tx):
            attempts.append(tx.id)
            current = tx.get_node(node_id).get("value")
            if len(attempts) == 1:
                # A concurrent transaction wins the update race on the first
                # attempt; our own write must then abort (first-updater-wins
                # sees the newer committed version).
                with db.transaction() as other:
                    other.set_node_property(node_id, "value", 100)
            tx.set_node_property(node_id, "value", current + 1)
            return tx.get_node(node_id).get("value")

        retried = []
        result = db.run_transaction(
            conflicted_once,
            retries=3,
            rng=random.Random(7),
            on_retry=lambda attempt, exc: retried.append(type(exc)),
        )
        assert result == 101  # second attempt saw the interfering write
        assert len(attempts) == 2
        assert retried and issubclass(retried[0], WriteWriteConflictError)

    def test_exhausted_retries_reraise(self, db):
        node_id = _make_counter(db)

        def always_conflicts(tx):
            tx.get_node(node_id)
            with db.transaction() as other:
                value = other.get_node(node_id).get("value")
                other.set_node_property(node_id, "value", value + 1)
            tx.set_node_property(node_id, "value", -1)

        with pytest.raises(TransactionAbortedError):
            db.run_transaction(always_conflicts, retries=2, rng=random.Random(7))

    def test_non_abort_errors_propagate_without_retry(self, db):
        attempts = []

        def broken(tx):
            attempts.append(1)
            raise RuntimeError("application bug")

        with pytest.raises(RuntimeError):
            db.run_transaction(broken, retries=5)
        assert len(attempts) == 1

    def test_function_may_close_transaction_itself(self, db):
        node_id = _make_counter(db)

        def reads_and_rolls_back(tx):
            value = tx.get_node(node_id).get("value")
            tx.rollback()
            return value

        assert db.run_transaction(reads_and_rolls_back) == 0

    def test_negative_retries_rejected(self, db):
        with pytest.raises(ValueError):
            db.run_transaction(lambda tx: None, retries=-1)

    def test_retries_serialization_abort_under_ssi(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        with db.transaction() as tx:
            a = tx.create_node(properties={"balance": 100})
            b = tx.create_node(properties={"balance": 100})
        probe = WriteSkewProbe(a.id, b.id, withdraw_amount=150)
        outer = db.begin()
        probe.withdraw(outer, a.id)
        retried = []

        def withdraw_b(tx):
            did = probe.withdraw(tx, b.id)
            if not retried:
                # First attempt overlaps ``outer``; committing after it forms
                # the dangerous structure and must be retried.
                outer.commit()
            return did

        assert db.run_transaction(
            withdraw_b,
            retries=3,
            rng=random.Random(7),
            on_retry=lambda attempt, exc: retried.append(type(exc)),
        ) is False  # the retry re-read and refused the second withdrawal
        assert retried and issubclass(retried[0], SerializationError)
        with db.transaction(read_only=True) as tx:
            assert not probe.constraint_violated(tx)
        db.close()


class TestJitteredBackoff:
    def test_backoff_grows_and_caps(self):
        rng = random.Random(1)
        delays = [
            jittered_backoff(attempt, base_seconds=0.01, max_seconds=0.05, rng=rng)
            for attempt in range(8)
        ]
        assert all(0 < delay <= 0.05 for delay in delays)
        # The cap binds from attempt 3 on (0.01 * 2**3 = 0.08 > 0.05).
        assert max(delays) <= 0.05

    def test_jitter_varies(self):
        rng = random.Random(2)
        draws = {jittered_backoff(0, rng=rng) for _ in range(16)}
        assert len(draws) > 1


class TestContendedRetries:
    """Four threads increment one counter: no committed increment is lost."""

    @pytest.mark.parametrize(
        "isolation", [IsolationLevel.SNAPSHOT, IsolationLevel.SERIALIZABLE],
        ids=["snapshot", "serializable"],
    )
    def test_contended_increments_all_commit(self, isolation):
        db = GraphDatabase.in_memory(isolation=isolation)
        node_id = _make_counter(db)
        commits = []
        errors = []

        def increment(tx):
            value = tx.get_node(node_id).get("value")
            tx.set_node_property(node_id, "value", value + 1)

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(25):
                    db.run_transaction(increment, retries=30, rng=rng)
                    commits.append(1)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        assert len(commits) == 100
        with db.transaction(read_only=True) as tx:
            assert tx.get_node(node_id).get("value") == 100
        db.close()

    @pytest.mark.parametrize(
        "isolation", [IsolationLevel.SNAPSHOT, IsolationLevel.SERIALIZABLE],
        ids=["snapshot", "serializable"],
    )
    def test_unretried_increments_abort_instead_of_losing_updates(self, isolation):
        db = GraphDatabase.in_memory(isolation=isolation)
        node_id = _make_counter(db)
        outcomes = []
        errors = []
        start = threading.Barrier(4)

        def worker():
            try:
                start.wait()
                for _ in range(10):
                    try:
                        with db.transaction() as tx:
                            value = tx.get_node(node_id).get("value")
                            tx.set_node_property(node_id, "value", value + 1)
                    except TransactionAbortedError:
                        outcomes.append("aborted")
                    else:
                        outcomes.append("committed")
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        committed = outcomes.count("committed")
        assert len(outcomes) == 40
        assert committed >= 1
        with db.transaction(read_only=True) as tx:
            assert tx.get_node(node_id).get("value") == committed
        db.close()
