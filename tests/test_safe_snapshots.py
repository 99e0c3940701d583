"""Safe snapshots for read-only serializable transactions.

The Fekete/O'Neil/O'Neil read-only-transaction anomaly, reproduced
*deterministically* with the schedule-controlled stepper and proven closed
by safe-snapshot gating:

* under ``SNAPSHOT`` (and under ``SERIALIZABLE`` with gating disabled, i.e.
  the bare PR-4 read-only fast path) the anomaly is present — the recorded
  history's DSG has a cycle through the read-only transaction;
* under ``SERIALIZABLE`` with gating (the default) the threatening writer is
  aborted with :class:`UnsafeSnapshotError` — **never the reader** — in
  non-deferrable mode, and in deferrable mode the reader blocks at begin,
  retakes its snapshot, and observes a fully consistent state while every
  writer commits undisturbed.

The scenario (checking account ``x``, savings account ``y``, both 0):

* T1 *deposit*: ``y += 20``;
* T2 *withdraw*: reads both balances, withdraws 10 from ``x`` and charges a
  1-unit overdraft fee iff the combined balance it saw cannot cover it;
* T3 *report* (read-only): reads both balances.

T2 reads before T1's deposit, so T2 serializes before T1.  T3 runs after
T1's commit and sees the deposit but not the withdrawal — an observation no
serial order admits (T1 < T3 < T2 < T1), and one that only exists because
T3 ran: without the report the history is serializable as T2, T1.
"""

import threading

import pytest

from repro import (
    GraphDatabase,
    IsolationLevel,
    SerializationError,
    UnsafeSnapshotError,
)

from harness import History, Recorder, Stepper
from harness.stepper import ABORTED, COMMITTED


def _make_accounts(db):
    with db.transaction() as tx:
        x = tx.create_node(labels=["Account"], properties={"name": "checking", "balance": 0})
        y = tx.create_node(labels=["Account"], properties={"name": "savings", "balance": 0})
    return x.id, y.id


def _deposit(y):
    def fn(ctx):
        balance = ctx.read(y, "balance")
        ctx.write(y, "balance", balance + 20)
    return fn


def _withdraw(x, y):
    def fn(ctx):
        balance_x = ctx.read(x, "balance")
        balance_y = ctx.read(y, "balance")
        yield "read"
        fee = 1 if balance_x + balance_y - 10 < 0 else 0
        ctx.write(x, "balance", balance_x - 10 - fee)
    return fn


def _report(x, y, seen):
    def fn(ctx):
        seen["x"] = ctx.read(x, "balance")
        seen["y"] = ctx.read(y, "balance")
    return fn


#: The anomaly schedule: T2 reads both accounts, the deposit commits, the
#: read-only report runs, then the withdrawal (with its stale fee decision)
#: tries to commit.
def _fekete_schedule(stepper, *, withdraw_outcome):
    return stepper.run([
        ("withdraw", "read"),
        ("deposit", COMMITTED),
        ("report", COMMITTED),
        ("withdraw", withdraw_outcome),
    ])


class TestFeketeAnomalyPresent:
    """The anomaly must be reproducible on demand where it is permitted."""

    def test_present_under_snapshot(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
        x, y = _make_accounts(db)
        seen = {}
        stepper = Stepper(db)
        stepper.add("deposit", _deposit(y))
        stepper.add("withdraw", _withdraw(x, y))
        stepper.add("report", _report(x, y, seen), read_only=True)
        _fekete_schedule(stepper, withdraw_outcome=COMMITTED)
        # The report saw the deposit but not the withdrawal...
        assert seen == {"x": 0, "y": 20}
        # ...and the fee was charged even though the deposit covered it:
        with db.transaction(read_only=True) as tx:
            assert tx.get_node(x).get("balance") == -11
        # The recorded history is provably non-serializable (DSG cycle
        # through the read-only transaction) yet within SI's promise.
        cycle = stepper.history.find_cycle()
        assert cycle is not None
        assert {kind for _, _, kind in cycle} == {"rw", "wr"}
        assert stepper.history.find_si_forbidden_cycle() is None
        db.close()

    def test_present_under_serializable_with_gating_disabled(self):
        """The PR-4 bare read-only fast path admits the anomaly (the gap)."""
        db = GraphDatabase.in_memory(
            isolation=IsolationLevel.SERIALIZABLE, safe_snapshots=False
        )
        x, y = _make_accounts(db)
        seen = {}
        stepper = Stepper(db)
        stepper.add("deposit", _deposit(y))
        stepper.add("withdraw", _withdraw(x, y))
        stepper.add("report", _report(x, y, seen), read_only=True)
        _fekete_schedule(stepper, withdraw_outcome=COMMITTED)
        assert seen == {"x": 0, "y": 20}
        assert stepper.history.find_cycle() is not None
        db.close()

    def test_absent_without_the_reader(self):
        """Without T3 the same writer interleaving is serializable (T2, T1) —
        which is exactly why SSI's read-write tracking alone cannot see it."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        x, y = _make_accounts(db)
        stepper = Stepper(db)
        stepper.add("deposit", _deposit(y))
        stepper.add("withdraw", _withdraw(x, y))
        stepper.run([
            ("withdraw", "read"),
            ("deposit", COMMITTED),
            ("withdraw", COMMITTED),
        ])
        stepper.history.assert_serializable()
        db.close()


class TestFeketeClosedBySafeSnapshots:
    def test_writer_aborted_reader_untouched(self):
        """Non-deferrable mode: the withdrawal is the sacrifice, never T3."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        x, y = _make_accounts(db)
        seen = {}
        stepper = Stepper(db)
        stepper.add("deposit", _deposit(y))
        stepper.add("withdraw", _withdraw(x, y))
        stepper.add("report", _report(x, y, seen), read_only=True)
        outcomes = _fekete_schedule(stepper, withdraw_outcome=ABORTED)
        assert outcomes == {
            "deposit": COMMITTED,
            "report": COMMITTED,
            "withdraw": ABORTED,
        }
        assert isinstance(stepper.error_of("withdraw"), UnsafeSnapshotError)
        # The reader's observation (x=0, y=20) is now consistent: the
        # withdrawal never happened.
        assert seen == {"x": 0, "y": 20}
        stepper.history.assert_serializable()
        # Abort attribution: a safe-snapshot abort, not an rw-antidependency.
        reasons = db.statistics()["engine"]["transactions"]["abort_reasons"]
        assert reasons["safe-snapshot"] == 1
        assert reasons["rw-antidependency"] == 0
        safe = db.statistics()["safe_snapshots"]
        assert safe["tracked"] == 1
        assert safe["writer_aborts"] == 1
        db.close()

    def test_retried_writer_succeeds_and_stays_serializable(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        x, y = _make_accounts(db)
        seen = {}
        history = History()
        stepper = Stepper(db, history)
        stepper.add("deposit", _deposit(y))
        stepper.add("withdraw", _withdraw(x, y))
        stepper.add("report", _report(x, y, seen), read_only=True)
        _fekete_schedule(stepper, withdraw_outcome=ABORTED)

        # Retry the withdrawal on a fresh snapshot: it now sees the deposit,
        # so no overdraft fee is due.
        def retry(ctx):
            balance_x = ctx.read(x, "balance")
            balance_y = ctx.read(y, "balance")
            fee = 1 if balance_x + balance_y - 10 < 0 else 0
            ctx.write(x, "balance", balance_x - 10 - fee)

        Recorder(history).run(db, "withdraw-retry", retry)
        with db.transaction(read_only=True) as tx:
            assert tx.get_node(x).get("balance") == -10  # no fee
            assert tx.get_node(y).get("balance") == 20
        history.assert_serializable()
        db.close()

    def test_forced_upgrade_to_siread_tracking(self):
        """A reader still running when the writer is blocked upgrades to
        full SIREAD tracking (buffered reads registered retroactively) and
        is still never aborted."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        x, y = _make_accounts(db)
        seen = {}

        def paced_report(ctx):
            seen["x"] = ctx.read(x, "balance")
            yield "mid"
            seen["y"] = ctx.read(y, "balance")

        def lingerer(ctx):
            # A harmless read-write transaction that stays in flight so the
            # reader's census is still draining when the gate fires — the
            # situation in which the reader's upgrade actually takes effect.
            ctx.read(y, "balance")
            yield "hold"

        stepper = Stepper(db)
        stepper.add("deposit", _deposit(y))
        stepper.add("withdraw", _withdraw(x, y))
        stepper.add("lingerer", lingerer)
        stepper.add("report", paced_report, read_only=True)
        outcomes = stepper.run([
            ("lingerer", "hold"),       # census member that outlives the abort
            ("withdraw", "read"),
            ("deposit", COMMITTED),
            ("report", "mid"),          # reader pending, read of x buffered
            ("withdraw", ABORTED),      # gate fires; reader must upgrade
            ("report", COMMITTED),      # next read registers everything
            ("lingerer", COMMITTED),
        ])
        assert outcomes["report"] == COMMITTED
        assert seen == {"x": 0, "y": 20}
        safe = db.statistics()["safe_snapshots"]
        assert safe["upgrades"] == 1
        assert safe["writer_aborts"] == 1
        stepper.history.assert_serializable()
        db.close()

    def test_reader_finishing_first_still_gates_the_writer(self):
        """The census entry outlives the reader: T3's results were already
        handed out, so T2 must still abort after T3 committed."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        x, y = _make_accounts(db)
        seen = {}
        stepper = Stepper(db)
        stepper.add("deposit", _deposit(y))
        stepper.add("withdraw", _withdraw(x, y))
        stepper.add("report", _report(x, y, seen), read_only=True)
        # Identical to the anomaly schedule — the report commits (step 3)
        # before the withdrawal tries to (step 4) and the gate still fires.
        _fekete_schedule(stepper, withdraw_outcome=ABORTED)
        assert db.statistics()["safe_snapshots"]["pending"] == 0
        db.close()


class TestDeferrableMode:
    def test_deferrable_blocks_then_retakes_on_danger(self):
        """A deferrable reader waits out the census; a dangerous commit goes
        through (no writer abort) and the reader retakes its snapshot."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        x, y = _make_accounts(db)
        withdraw_tx = db.begin()
        balance_x = withdraw_tx.get_node(x).get("balance")
        balance_y = withdraw_tx.get_node(y).get("balance")
        with db.transaction() as tx:  # the deposit commits first
            tx.set_node_property(y, "balance", tx.get_node(y).get("balance") + 20)

        seen = {}
        started = threading.Event()
        done = threading.Event()

        def report():
            started.set()
            with db.transaction(read_only=True, deferrable=True) as tx:
                seen["x"] = tx.get_node(x).get("balance")
                seen["y"] = tx.get_node(y).get("balance")
            done.set()

        thread = threading.Thread(target=report)
        thread.start()
        assert started.wait(5.0)
        # The reader must be parked: the withdrawal is still in flight.
        assert not done.wait(0.3)
        # The withdrawal commits dangerously — deferrable readers have read
        # nothing, so the writer is NOT aborted.
        fee = 1 if balance_x + balance_y - 10 < 0 else 0
        withdraw_tx.set_node_property(x, "balance", balance_x - 10 - fee)
        withdraw_tx.commit()
        assert done.wait(5.0)
        thread.join()
        # The retaken snapshot covers both commits: fully consistent.
        assert seen == {"x": -11, "y": 20}
        safe = db.statistics()["safe_snapshots"]
        assert safe["waits"] >= 1
        assert safe["retakes"] >= 1
        assert safe["writer_aborts"] == 0
        db.close()

    def test_deferrable_wakes_when_census_drains_cleanly(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        x, _y = _make_accounts(db)
        writer = db.begin()
        writer.set_node_property(x, "balance", 1)
        done = threading.Event()
        seen = {}

        def report():
            with db.transaction(read_only=True, deferrable=True) as tx:
                seen["x"] = tx.get_node(x).get("balance")
            done.set()

        thread = threading.Thread(target=report)
        thread.start()
        assert not done.wait(0.3)  # parked behind the in-flight writer
        writer.commit()
        assert done.wait(5.0)
        thread.join()
        # The census drained without danger, so the reader keeps the
        # snapshot it took (PostgreSQL DEFERRABLE semantics): it serializes
        # *before* the harmless writer and correctly sees the old balance.
        assert seen["x"] == 0
        safe = db.statistics()["safe_snapshots"]
        assert safe["waits"] >= 1
        assert safe["became_safe"] >= 1
        assert safe["retakes"] == 0
        db.close()

    def test_deferrable_session_default(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        x, _y = _make_accounts(db)
        session = db.session(deferrable=True)
        # No read-write transaction in flight: deferrable begin is immediate.
        with session.begin(read_only=True) as tx:
            assert tx.get_node(x).get("balance") == 0
        assert db.statistics()["safe_snapshots"]["immediate"] == 1
        result = session.execute("MATCH (a:Account) RETURN count(*) AS n")
        assert result.records()[0]["n"] == 2
        assert db.statistics()["safe_snapshots"]["immediate"] == 2
        session.close()
        db.close()

    def test_deferrable_session_auto_commit_waits_for_a_safe_snapshot(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        x, _y = _make_accounts(db)
        writer = db.begin()
        writer.set_node_property(x, "balance", 1)
        done = threading.Event()
        seen = {}
        session = db.session(deferrable=True)

        def report():
            result = session.execute("MATCH (a:Account) RETURN count(*) AS n")
            seen["n"] = result.records()[0]["n"]
            done.set()

        thread = threading.Thread(target=report)
        thread.start()
        assert not done.wait(0.3)  # the auto-commit is parked behind the writer
        writer.commit()
        assert done.wait(5.0)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert seen["n"] == 2
        assert db.statistics()["safe_snapshots"]["waits"] >= 1
        session.close()
        db.close()


class TestSafeSnapshotMechanics:
    def test_empty_census_is_free(self):
        """No read-write transaction in flight: the reader pays nothing."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        x, _y = _make_accounts(db)
        with db.transaction(read_only=True) as tx:
            tx.get_node(x)
        safe = db.statistics()["safe_snapshots"]
        assert safe["immediate"] == 1
        assert safe["tracked"] == 0
        cc = db.statistics()["engine"]["concurrency_control"]
        assert cc["siread_entries"] == 0
        db.close()

    def test_harmless_overlap_resolves_safe(self):
        """A reader overlapping a harmless writer becomes safe, no upgrade."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        x, y = _make_accounts(db)
        writer = db.begin()
        writer.set_node_property(x, "balance", 5)
        reader = db.begin(read_only=True)
        assert reader.get_node(y).get("balance") == 0
        writer.commit()  # no rw out-edge: census drains cleanly
        assert reader.get_node(y).get("balance") == 0
        reader.commit()
        safe = db.statistics()["safe_snapshots"]
        assert safe["tracked"] == 1
        assert safe["became_safe"] == 1
        assert safe["upgrades"] == 0
        assert safe["writer_aborts"] == 0
        db.close()

    def test_unsafe_at_birth_snapshot_is_retaken(self):
        """White-box: a census member that committed dangerously but has not
        yet published forces a snapshot retake (nothing can be aborted)."""
        from repro.core.cc_policy import (
            RETAKE_SNAPSHOT,
            SerializableSnapshotPolicy,
        )
        from repro.locking.lock_manager import LockManager

        from repro.graph.entity import node_key

        policy = SerializableSnapshotPolicy(LockManager())
        writer = policy.begin_transaction(1, 0)
        writer.out_commit_ts = 3  # out-edge to a commit at ts 3
        # The writer commits (no pending readers yet) but, as far as the
        # oracle census is concerned, is still unpublished.
        policy.record_commit(writer, [(node_key(1), None, None)], 7)
        # Reader's snapshot (ts 3) covers the out-partner but not the writer.
        assert policy.begin_read_only(5, 3, (1,)) is RETAKE_SNAPSHOT
        # A snapshot predating the out-partner is not threatened.
        assert policy.begin_read_only(6, 2, (1,)) is None

    def test_writer_published_ahead_of_an_older_commit_stays_in_census(self):
        """White-box: a commit that publishes while an older one is still
        installing stays invisible to new snapshots, so its writer is still
        concurrent with them.  It must stay in their census — and, having
        committed dangerously, force a retake — until the watermark covers
        it (regression: it left the census at publication, and the nightly
        history stress found read-only-anomaly cycles through it)."""
        from repro.core.cc_policy import (
            RETAKE_SNAPSHOT,
            SerializableSnapshotPolicy,
        )
        from repro.core.timestamps import TimestampOracle
        from repro.graph.entity import node_key
        from repro.locking.lock_manager import LockManager

        oracle = TimestampOracle()
        policy = SerializableSnapshotPolicy(LockManager())
        partner_id, _ = oracle.begin_transaction()
        oracle.publish_commit(partner_id, oracle.issue_commit_timestamp())
        slow_id, _ = oracle.begin_transaction()
        fast_id, fast_start = oracle.begin_transaction()
        slow_ts = oracle.issue_commit_timestamp()
        fast_ts = oracle.issue_commit_timestamp()
        fast = policy.begin_transaction(fast_id, fast_start)
        fast.out_commit_ts = 1  # an rw edge out to the partner's commit
        policy.record_commit(fast, [(node_key(1), None, None)], fast_ts)
        oracle.publish_commit(fast_id, fast_ts)  # ahead of slow_ts
        reader_id, start_ts, census = oracle.begin_read_only_transaction()
        assert start_ts < fast_ts and fast_id in census
        assert oracle.oldest_active_txn_id() == slow_id
        assert policy.begin_read_only(reader_id, start_ts, census) is RETAKE_SNAPSHOT
        oracle.retire_transaction(reader_id)
        oracle.publish_commit(slow_id, slow_ts)  # the gap closes
        reader_id, start_ts, census = oracle.begin_read_only_transaction()
        assert start_ts == fast_ts and census == ()
        assert oracle.oldest_active_txn_id() == reader_id

    def test_census_member_pruned_before_registration_forces_retake(self):
        """White-box: a reader can be granted its census, lose the GIL, and
        register only after the member finished AND its finish record was
        reclaimed.  The danger is then unknowable, so the reader must retake
        its snapshot instead of waiting forever on a census that can never
        drain (regression: this leaked a pending entry and hung deferrable
        readers)."""
        from repro.core.cc_policy import (
            RETAKE_SNAPSHOT,
            SerializableSnapshotPolicy,
        )
        from repro.graph.entity import node_key
        from repro.locking.lock_manager import LockManager

        policy = SerializableSnapshotPolicy(LockManager())
        writer = policy.begin_transaction(3, 0)
        policy.record_commit(writer, [(node_key(1), None, None)], 1)
        policy.reclaim(10, quiescent=True)  # prunes the finish record
        # A stale census naming the pruned member is ambiguous: retake.
        assert policy.begin_read_only(9, 5, (3,)) is RETAKE_SNAPSHOT
        # A fresh census (no stale member) is unaffected.
        assert policy.begin_read_only(10, 5, ()) is None

    def test_upgraded_reader_is_never_aborted_by_committed_pivot(self):
        """White-box: a read-only record reaching a committed pivot through
        a reader-side edge is suppressed, not sacrificed."""
        from repro.core.cc_policy import (
            PendingSafeSnapshot,
            SerializableSnapshotPolicy,
        )
        from repro.graph.entity import node_key
        from repro.locking.lock_manager import LockManager

        policy = SerializableSnapshotPolicy(LockManager())
        key_a, key_b = node_key(1), node_key(2)
        w1 = policy.begin_transaction(1, 0)
        policy.register_reads(w1, (key_b,))
        policy.record_commit(w1, [(key_a, None, None)], 1)  # w1 writes a
        w2 = policy.begin_transaction(2, 0)
        policy.record_commit(w2, [(key_b, None, None)], 2)  # w1 -rw-> w2
        # An upgraded reader that read a (written by the committed w1):
        # the edge reader -> w1 makes w1 a committed pivot, but the acting
        # transaction is read-only and must survive.
        handle = PendingSafeSnapshot(9, 0, {1}, deferrable=False)
        handle.record.read_keys.add(key_a)
        policy.upgrade_reader(handle)  # must not raise
        assert not handle.record.doomed
        assert policy.rw_antidependency_aborts() == 0

    def test_read_only_queries_stay_free_through_db_execute(self):
        """The PR-4 free path is intact: `db.execute` read statements leave
        no tracking state behind when nothing read-write is in flight."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        db.execute("CREATE (:Person {name: 'Ada'})")
        db.run_gc()
        for _ in range(5):
            db.execute("MATCH (p:Person) RETURN p.name")
        cc = db.statistics()["engine"]["concurrency_control"]
        assert cc["tracked_transactions"] == 0
        assert cc["siread_entries"] == 0
        safe = db.statistics()["safe_snapshots"]
        assert safe["immediate"] >= 5
        assert safe["tracked"] == 0
        db.close()

    def test_unsafe_snapshot_error_is_retryable(self):
        assert issubclass(UnsafeSnapshotError, SerializationError)


class TestHandleTurningSafeBetweenBatchReads:
    """A pending reader whose snapshot is proven safe between two multi-key
    batch reads drops its handle cleanly (the read-bookkeeping helper reads
    the handle once per batch).  Before, the first key of the next batch
    cleared the handle and the second dereferenced ``None``."""

    @staticmethod
    def _graph(db, people=12):
        with db.transaction() as tx:
            ids = [tx.create_node(["Person"], {"i": i}).id for i in range(people)]
            for left, right in zip(ids, ids[1:]):
                tx.create_relationship(left, right, "KNOWS")
        return ids

    def test_both_reads_return_and_the_handle_is_dropped(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        ids = self._graph(db)
        writer = db.begin()
        writer.create_node(["Person"], {"i": -1})  # read-write, in flight
        reader = db.begin(read_only=True)
        etxn = reader.engine_transaction
        assert etxn._pending_reader is not None  # tracked until proven safe
        first = reader.nodes_by_ids(ids[:6])
        assert len(first) == 6 and len(etxn._pending_reader.record.read_keys) == 6
        writer.commit()  # the census drains: the snapshot is safe
        second = reader.nodes_by_ids(ids[6:])
        assert len(second) == 6
        assert etxn._pending_reader is None
        # Adjacency batches go through the same helper.
        assert [len(rels) for rels in reader.relationships_of_many(ids[:3])] == [1, 2, 2]
        reader.commit()
        assert db.statistics()["safe_snapshots"]["became_safe"] == 1
        db.close()

    def test_two_thread_read_loop_survives_handles_flipping_safe(self):
        """2 000 read-only transactions of two batch reads each beside a
        steady committer: every handle that flips safe mid-transaction used
        to kill the read it interrupted."""
        import sys
        import time

        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        ids = self._graph(db, people=40)
        stop = threading.Event()
        failures = []

        def committer():
            try:
                while not stop.is_set():
                    with db.transaction() as tx:
                        tx.set_node_property(ids[0], "i", 0)
            except BaseException as exc:  # pragma: no cover - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=committer, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30.0
        try:
            completed = 0
            while completed < 2000 and time.monotonic() < deadline:
                with db.transaction(read_only=True) as tx:
                    assert len(tx.nodes_by_ids(ids[1:20])) == 19
                    assert len(tx.relationships_of_many(ids[20:])) == 20
                    rows = tx.execute(
                        "MATCH (p:Person {i: 5})-[:KNOWS*1..2]-(f) RETURN f.i"
                    ).rows()
                    assert len(rows) == 4
                completed += 1
        finally:
            stop.set()
            thread.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert not failures
        assert completed == 2000
        assert db.statistics()["safe_snapshots"]["tracked"] > 0
        db.close()
