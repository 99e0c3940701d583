"""Unit tests for the write rule (both conflict-detection strategies)."""

import pytest

from repro.core.cc_policy import SnapshotWriteRulePolicy
from repro.core.conflict import ConflictPolicy
from repro.errors import WriteWriteConflictError
from repro.graph.entity import EntityKey, NodeData
from repro.locking.lock_manager import LockManager

KEY = EntityKey.node(1)


def check_write(policy, txn_id, newest_committed_ts):
    policy.check_write(txn_id, 5, KEY, None, lambda: newest_committed_ts)


def validate(policy, newest_committed_ts):
    policy.validate_commit(
        1, 5, None, {KEY: NodeData(1)}, set(), lambda key: newest_committed_ts
    )


class TestFirstUpdaterWins:
    def make(self):
        return SnapshotWriteRulePolicy(LockManager(), ConflictPolicy.FIRST_UPDATER_WINS)

    def test_first_updater_gets_the_lock(self):
        policy = self.make()
        check_write(policy, 1, 3)
        # Same transaction writing again is fine.
        check_write(policy, 1, 3)

    def test_second_updater_aborts_immediately(self):
        policy = self.make()
        check_write(policy, 1, 3)
        with pytest.raises(WriteWriteConflictError):
            check_write(policy, 2, 3)
        assert policy.ww_conflict_stats()["write_time"] == 1

    def test_concurrent_committed_update_detected(self):
        policy = self.make()
        # Newest committed version is newer than this transaction's snapshot.
        with pytest.raises(WriteWriteConflictError):
            check_write(policy, 1, 8)

    def test_lock_released_after_abort_allows_new_updater(self):
        policy = self.make()
        check_write(policy, 1, None)
        policy.release_locks(1)
        check_write(policy, 2, None)

    def test_commit_validation_is_noop(self):
        policy = self.make()
        validate(policy, 50)
        assert policy.ww_conflict_stats()["commit_time"] == 0


class TestFirstCommitterWins:
    def make(self):
        return SnapshotWriteRulePolicy(LockManager(), ConflictPolicy.FIRST_COMMITTER_WINS)

    def test_write_time_never_conflicts(self):
        policy = self.make()
        check_write(policy, 1, 50)
        check_write(policy, 2, 50)
        assert policy.ww_conflict_stats()["write_time"] == 0

    def test_commit_validation_detects_concurrent_commit(self):
        policy = self.make()
        with pytest.raises(WriteWriteConflictError):
            validate(policy, 8)
        assert policy.ww_conflict_stats()["commit_time"] == 1

    def test_commit_validation_passes_for_older_versions(self):
        policy = self.make()
        validate(policy, 5)
        validate(policy, None)
        assert policy.ww_conflict_stats() == {"write_time": 0, "commit_time": 0}

    def test_created_keys_are_not_validated(self):
        policy = self.make()
        policy.validate_commit(1, 5, None, {KEY: NodeData(1)}, {KEY}, lambda key: 8)
        assert policy.ww_conflict_stats()["commit_time"] == 0
