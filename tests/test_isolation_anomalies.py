"""Deterministic isolation-anomaly scenarios (the heart of the paper's claims).

Each scenario interleaves two or three transactions explicitly (no threads, no
timing) so the outcome is exact: read committed exhibits the anomaly, snapshot
isolation does not — except write skew, which SI is expected to permit.
"""

import pytest

from repro import WriteWriteConflictError

from harness.anomaly import (
    LostUpdateProbe,
    WriteSkewProbe,
    check_phantom_read,
    check_traversal_consistency,
    check_unrepeatable_read,
)


def seed_person(db, **props):
    with db.transaction() as tx:
        return tx.create_node(["Person"], props).id


class TestUnrepeatableReads:
    def test_read_committed_exhibits_unrepeatable_read(self, rc_db):
        node_id = seed_person(rc_db, score=1)
        reader = rc_db.begin(read_only=True)

        def concurrent_update():
            with rc_db.transaction() as tx:
                tx.set_node_property(node_id, "score", 2)

        observed = check_unrepeatable_read(
            reader, node_id, "score", pause=concurrent_update
        )
        reader.rollback()
        assert observed

    def test_snapshot_isolation_prevents_unrepeatable_read(self, si_db):
        node_id = seed_person(si_db, score=1)
        reader = si_db.begin(read_only=True)

        def concurrent_update():
            with si_db.transaction() as tx:
                tx.set_node_property(node_id, "score", 2)

        observed = check_unrepeatable_read(
            reader, node_id, "score", pause=concurrent_update
        )
        reader.rollback()
        assert not observed


class TestPhantomReads:
    def test_read_committed_exhibits_phantoms_on_label_scan(self, rc_db):
        seed_person(rc_db)
        reader = rc_db.begin(read_only=True)

        def concurrent_insert():
            with rc_db.transaction() as tx:
                tx.create_node(["Person"], {"name": "phantom"})

        observed = check_phantom_read(reader, label="Person", pause=concurrent_insert)
        reader.rollback()
        assert observed

    def test_snapshot_isolation_prevents_phantoms_on_label_scan(self, si_db):
        seed_person(si_db)
        reader = si_db.begin(read_only=True)

        def concurrent_insert():
            with si_db.transaction() as tx:
                tx.create_node(["Person"], {"name": "phantom"})

        observed = check_phantom_read(reader, label="Person", pause=concurrent_insert)
        reader.rollback()
        assert not observed

    def test_snapshot_isolation_prevents_phantoms_on_property_scan(self, si_db):
        seed_person(si_db, city="madrid")
        reader = si_db.begin(read_only=True)

        def concurrent_change():
            with si_db.transaction() as tx:
                tx.create_node(["Person"], {"city": "madrid"})

        observed = check_phantom_read(
            reader, key="city", value="madrid", pause=concurrent_change
        )
        reader.rollback()
        assert not observed

    def test_snapshot_scan_also_ignores_concurrent_deletes(self, si_db):
        victim = seed_person(si_db)
        reader = si_db.begin(read_only=True)

        def concurrent_delete():
            with si_db.transaction() as tx:
                tx.delete_node(victim, detach=True)

        observed = check_phantom_read(reader, label="Person", pause=concurrent_delete)
        reader.rollback()
        assert not observed


class TestTraversalConsistency:
    def _build_triangle(self, db):
        with db.transaction() as tx:
            hub = tx.create_node(["Person"], {"name": "hub"})
            friend = tx.create_node(["Person"], {"name": "friend"})
            tx.create_relationship(hub, friend, "KNOWS")
            return hub.id, friend.id

    def test_read_committed_breaks_two_step_traversal(self, rc_db):
        hub, friend = self._build_triangle(rc_db)
        reader = rc_db.begin(read_only=True)

        def concurrent_delete():
            with rc_db.transaction() as tx:
                tx.delete_node(friend, detach=True)

        assert check_traversal_consistency(reader, hub, pause=concurrent_delete)
        reader.rollback()

    def test_snapshot_isolation_keeps_two_step_traversal_consistent(self, si_db):
        hub, friend = self._build_triangle(si_db)
        reader = si_db.begin(read_only=True)

        def concurrent_delete():
            with si_db.transaction() as tx:
                tx.delete_node(friend, detach=True)

        assert not check_traversal_consistency(reader, hub, pause=concurrent_delete)
        reader.rollback()


class TestLostUpdates:
    def test_read_committed_loses_updates(self, rc_db):
        node_id = seed_person(rc_db, counter=0)
        probe = LostUpdateProbe(node_id)
        # Two interleaved read-modify-write increments: t2 reads the counter
        # (0), then t1 performs its whole increment and commits, then t2
        # writes 0 + 1 on top of it — t1's update is lost.
        t1 = rc_db.begin()
        t2 = rc_db.begin()

        def t1_increments_and_commits():
            probe.increment(t1)
            t1.commit()
            probe.record_success()

        probe.increment(t2, pause=t1_increments_and_commits)
        t2.commit()
        probe.record_success()
        with rc_db.transaction(read_only=True) as tx:
            assert probe.lost_updates(tx) == 1

    def test_snapshot_isolation_aborts_the_second_updater(self, si_db):
        node_id = seed_person(si_db, counter=0)
        probe = LostUpdateProbe(node_id)
        t1 = si_db.begin()
        t2 = si_db.begin()
        probe.increment(t1)
        t1.commit()
        probe.record_success()
        with pytest.raises(WriteWriteConflictError):
            probe.increment(t2)
        t2.rollback()
        with si_db.transaction(read_only=True) as tx:
            assert probe.lost_updates(tx) == 0


class TestWriteSkew:
    def test_snapshot_isolation_permits_write_skew(self, si_db):
        """The one anomaly the paper concedes: SI allows write skew."""
        with si_db.transaction() as tx:
            account_a = tx.create_node(["Account"], {"balance": 60}).id
            account_b = tx.create_node(["Account"], {"balance": 60}).id
        probe = WriteSkewProbe(account_a, account_b, withdraw_amount=80)
        t1 = si_db.begin()
        t2 = si_db.begin()
        assert probe.withdraw(t1, account_a)
        assert probe.withdraw(t2, account_b)
        t1.commit()
        t2.commit()  # disjoint write sets: no write-write conflict
        with si_db.transaction(read_only=True) as tx:
            assert probe.constraint_violated(tx)

    def test_write_skew_on_same_account_is_a_conflict(self, si_db):
        with si_db.transaction() as tx:
            account_a = tx.create_node(["Account"], {"balance": 60}).id
            account_b = tx.create_node(["Account"], {"balance": 60}).id
        probe = WriteSkewProbe(account_a, account_b, withdraw_amount=80)
        t1 = si_db.begin()
        t2 = si_db.begin()
        probe.withdraw(t1, account_a)
        with pytest.raises(WriteWriteConflictError):
            probe.withdraw(t2, account_a)
        t2.rollback()
        t1.commit()
