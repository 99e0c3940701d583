"""Unit tests for the lock manager and deadlock detection."""

import threading
import time

import pytest

from repro.errors import DeadlockError, LockTimeoutError
from repro.graph.entity import node_key, rel_key
from repro.locking.deadlock import WaitForGraph
from repro.locking.lock_manager import LockManager, LockMode


NODE_A = node_key(1)
NODE_B = node_key(2)


class TestLockModes:
    def test_shared_compatible_with_shared(self):
        assert LockMode.SHARED.compatible_with(LockMode.SHARED)

    def test_exclusive_conflicts_with_everything(self):
        assert not LockMode.EXCLUSIVE.compatible_with(LockMode.SHARED)
        assert not LockMode.SHARED.compatible_with(LockMode.EXCLUSIVE)
        assert not LockMode.EXCLUSIVE.compatible_with(LockMode.EXCLUSIVE)


class TestWaitForGraph:
    def test_cycle_detection(self):
        graph = WaitForGraph()
        graph.add_waits(1, [2])
        graph.add_waits(2, [3])
        assert graph.creates_cycle(3, [1])
        assert not graph.creates_cycle(3, [4])

    def test_self_edges_ignored(self):
        graph = WaitForGraph()
        graph.add_waits(1, [1])
        assert graph.edge_count() == 0
        assert not graph.creates_cycle(1, [1])

    def test_remove_transaction_clears_both_sides(self):
        graph = WaitForGraph()
        graph.add_waits(1, [2])
        graph.add_waits(3, [1])
        graph.remove_transaction(1)
        assert graph.edge_count() == 0

    def test_waiting_transactions(self):
        graph = WaitForGraph()
        graph.add_waits(1, [2])
        assert graph.waiting_transactions() == {1}
        graph.remove_waiter(1)
        assert graph.waiting_transactions() == set()


class TestLockManager:
    def test_shared_locks_coexist(self):
        locks = LockManager()
        locks.acquire(1, NODE_A, LockMode.SHARED)
        locks.acquire(2, NODE_A, LockMode.SHARED)
        assert set(locks.holders_of(NODE_A)) == {1, 2}

    def test_exclusive_blocks_shared(self):
        locks = LockManager(default_timeout=0.05)
        locks.acquire(1, NODE_A, LockMode.EXCLUSIVE)
        with pytest.raises(LockTimeoutError):
            locks.acquire(2, NODE_A, LockMode.SHARED, timeout=0.05)

    def test_conflict_messages_name_the_entity(self):
        locks = LockManager(default_timeout=0.05)
        locks.acquire(1, rel_key(3), LockMode.EXCLUSIVE)
        with pytest.raises(LockTimeoutError, match="waiting for relationship:3$"):
            locks.acquire(2, rel_key(3), LockMode.SHARED, timeout=0.05)
        with pytest.raises(LockTimeoutError, match="waiting for relationship:3$"):
            with locks.shared_guard(2, rel_key(3), timeout=0.05):
                pass

    def test_same_transaction_reentrant(self):
        locks = LockManager()
        locks.acquire(1, NODE_A, LockMode.SHARED)
        locks.acquire(1, NODE_A, LockMode.EXCLUSIVE)
        assert locks.holders_of(NODE_A)[1] is LockMode.EXCLUSIVE

    def test_try_acquire(self):
        locks = LockManager()
        assert locks.try_acquire(1, NODE_A, LockMode.EXCLUSIVE)
        assert not locks.try_acquire(2, NODE_A, LockMode.EXCLUSIVE)
        assert locks.stats.try_failures == 1
        locks.release_all(1)
        assert locks.try_acquire(2, NODE_A, LockMode.EXCLUSIVE)

    def test_release_wakes_waiter(self):
        locks = LockManager()
        locks.acquire(1, NODE_A, LockMode.EXCLUSIVE)
        acquired = threading.Event()

        def waiter():
            locks.acquire(2, NODE_A, LockMode.EXCLUSIVE, timeout=5.0)
            acquired.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not acquired.is_set()
        locks.release_all(1)
        assert acquired.wait(timeout=2.0)
        thread.join(timeout=2.0)

    def test_release_all(self):
        locks = LockManager()
        locks.acquire(1, NODE_A, LockMode.EXCLUSIVE)
        locks.acquire(1, NODE_B, LockMode.SHARED)
        assert len(locks.locks_held_by(1)) == 2
        locks.release_all(1)
        assert locks.locks_held_by(1) == []
        assert not locks.is_locked(NODE_A)
        assert locks.active_lock_count() == 0

    def test_release_unheld_lock_is_noop(self):
        locks = LockManager()
        locks.acquire(1, NODE_A, LockMode.SHARED)
        locks.release_all(99)
        assert locks.holders_of(NODE_A) == {1: LockMode.SHARED}

    def test_deadlock_detected(self):
        locks = LockManager(default_timeout=5.0)
        locks.acquire(1, NODE_A, LockMode.EXCLUSIVE)
        locks.acquire(2, NODE_B, LockMode.EXCLUSIVE)
        errors = []

        def t1_waits_for_b():
            try:
                locks.acquire(1, NODE_B, LockMode.EXCLUSIVE, timeout=5.0)
            except DeadlockError as exc:
                errors.append(exc)
            except LockTimeoutError as exc:  # pragma: no cover - defensive
                errors.append(exc)

        thread = threading.Thread(target=t1_waits_for_b, daemon=True)
        thread.start()
        time.sleep(0.1)
        # Transaction 2 now requests A, closing the cycle: it must be refused.
        with pytest.raises((DeadlockError, LockTimeoutError)):
            locks.acquire(2, NODE_A, LockMode.EXCLUSIVE, timeout=5.0)
        locks.release_all(2)
        thread.join(timeout=5.0)
        locks.release_all(1)
        assert locks.stats.deadlocks >= 1

    def test_stats_dictionary(self):
        locks = LockManager()
        locks.acquire(1, NODE_A, LockMode.SHARED)
        stats = locks.stats.as_dict()
        assert stats["acquisitions"] == 1
        assert stats["immediate_grants"] == 1
