"""Randomized stress over the history recorder + DSG checker.

Four worker threads hammer a small set of accounts with write-skew-prone
read-modify-write transactions plus read-only observers (which exercise the
safe-snapshot machinery under serializable isolation), every committed
transaction is recorded, and the resulting history is checked against the
isolation level's *promised* guarantee:

* ``SERIALIZABLE`` — the DSG must be fully acyclic, read-only observers
  included (this is precisely where the Fekete anomaly would show up as a
  cycle through an observer if safe snapshots were broken);
* ``SNAPSHOT`` — no cycle with fewer than two rw-antidependency edges
  (write skew is allowed and does occur; lost updates and the like are not).

Under ``SERIALIZABLE`` worker 0 also runs a *long reader*, three times
spread over its run, beside the other workers' small transactions: one
read-write transaction that label-scans ``STRESS_TXN_BUDGET`` filler nodes
plus the accounts and then writes their total to a summary node — a large
read set that the small writers' commits keep meeting.

Budget knobs (the nightly CI job raises them):

* ``STRESS_TXN_BUDGET`` — committed transactions per isolation level
  (default 5000, so a default run checks 10k+ committed transactions).
* ``STRESS_THREADS``, ``STRESS_SEED`` — concurrency and determinism knobs.
* ``HISTORY_ARTIFACT_DIR`` — if set, a failing run dumps the recorded
  history (transactions + DSG edges) there as a JSON artifact.
"""

import os
import threading
import time

import pytest

from repro import GraphDatabase, IsolationLevel, TransactionAbortedError
from repro.retry import jittered_backoff

from harness import History, Recorder

TXN_BUDGET = int(os.environ.get("STRESS_TXN_BUDGET", "5000"))
THREADS = int(os.environ.get("STRESS_THREADS", "4"))
SEED = int(os.environ.get("STRESS_SEED", "1337"))
ACCOUNTS = 16
MAX_RETRIES = 60
#: Filler nodes in the long reader's scan (50 000 in the nightly job).
LONG_READER_NODES = TXN_BUDGET
LONG_READER_ROUNDS = 3


def _run_with_retries(recorder, db, name, fn, *, read_only=False, rng=None):
    """The application retry contract, with the recorder wrapped around it."""
    for attempt in range(MAX_RETRIES):
        try:
            return recorder.run(db, name, fn, read_only=read_only)
        except TransactionAbortedError:
            time.sleep(jittered_backoff(min(attempt, 6), rng=rng))
    raise AssertionError(f"{name} aborted {MAX_RETRIES} times in a row")


def _stress(db, history, *, long_reader=False):
    import random

    with db.transaction() as tx:
        ids = [
            tx.create_node(
                labels=["Account"], properties={"slot": i, "balance": 100}
            ).id
            for i in range(ACCOUNTS)
        ]
        summary = tx.create_node(labels=["Summary"], properties={"total": 0}).id
    if long_reader:
        for start in range(0, LONG_READER_NODES, 5000):
            with db.transaction() as tx:
                for _ in range(min(5000, LONG_READER_NODES - start)):
                    tx.create_node(labels=["Account"], properties={"balance": 0})
    recorder = Recorder(history)
    per_thread = TXN_BUDGET // THREADS
    failures = []
    long_at = {per_thread * k // LONG_READER_ROUNDS for k in range(LONG_READER_ROUNDS)}

    def scan_then_write(ctx):
        total = sum(node.get("balance") for node in ctx.scan("Account"))
        ctx.write(summary, "total", total)

    def worker(worker_id):
        rng = random.Random(SEED + worker_id)
        long_rng = random.Random(SEED - 1)
        try:
            for i in range(per_thread):
                if long_reader and worker_id == 0 and i in long_at:
                    _run_with_retries(
                        recorder, db, f"long-{i}", scan_then_write, rng=long_rng
                    )
                roll = rng.random()
                name = f"w{worker_id}-{i}"
                if roll < 0.70:
                    # Write-skew-prone: read two accounts, debit one if the
                    # pair can cover it.
                    a, b = rng.sample(ids, 2)

                    def skew(ctx, a=a, b=b):
                        total = ctx.read(a, "balance") + ctx.read(b, "balance")
                        if total >= 10:
                            ctx.write(a, "balance", ctx.read(a, "balance") - 10)

                    _run_with_retries(recorder, db, name, skew, rng=rng)
                elif roll < 0.85:
                    # Plain increment (read-modify-write on one account).
                    a = rng.choice(ids)

                    def credit(ctx, a=a):
                        ctx.write(a, "balance", ctx.read(a, "balance") + 10)

                    _run_with_retries(recorder, db, name, credit, rng=rng)
                else:
                    # Read-only observer over a few accounts: under
                    # serializable this takes the safe-snapshot path.
                    chosen = rng.sample(ids, 3)

                    def observe(ctx, chosen=chosen):
                        for node_id in chosen:
                            ctx.read(node_id, "balance")

                    _run_with_retries(
                        recorder, db, name, observe, read_only=True, rng=rng
                    )
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


def _check(db, history, isolation):
    try:
        if isolation is IsolationLevel.SERIALIZABLE:
            history.assert_serializable()
            # Observers never abort: every abort is a writer's.
            reasons = db.statistics()["engine"]["transactions"]["abort_reasons"]
            assert reasons["ww-conflict"] + reasons["rw-antidependency"] + reasons[
                "safe-snapshot"
            ] + reasons["deadlock"] >= db.statistics()["engine"]["transactions"][
                "aborted"
            ] - 1
        else:
            history.assert_snapshot_isolation()
    except AssertionError:
        artifact_dir = os.environ.get("HISTORY_ARTIFACT_DIR")
        if artifact_dir:
            os.makedirs(artifact_dir, exist_ok=True)
            history.dump(
                os.path.join(artifact_dir, f"stress-history-{isolation.value}.json")
            )
        raise


@pytest.mark.parametrize(
    "isolation",
    [IsolationLevel.SNAPSHOT, IsolationLevel.SERIALIZABLE],
    ids=["snapshot", "serializable"],
)
def test_stress_history_meets_promised_guarantee(isolation):
    db = GraphDatabase.in_memory(isolation=isolation, gc_every_n_commits=256)
    history = History()
    serializable = isolation is IsolationLevel.SERIALIZABLE
    try:
        _stress(db, history, long_reader=serializable)
        # The setup transaction is recorded implicitly as version 0 of every
        # account (reads resolve to INITIAL); the workers' commits are all
        # in the history.
        assert len(history) >= TXN_BUDGET - THREADS  # integer-division slack
        _check(db, history, isolation)
        if serializable:
            safe = db.statistics()["safe_snapshots"]
            observers = safe["immediate"] + safe["tracked"]
            assert observers > 0  # the safe-snapshot path really ran
            assert safe["tracked"] > 0  # including non-empty censuses
            long_reads = {
                index for index, txn in enumerate(history.committed)
                if txn.name.startswith("long-")
            }
            assert len(long_reads) == LONG_READER_ROUNDS
            assert all(
                len(history.committed[index].reads) >= LONG_READER_NODES
                for index in long_reads
            )
            assert any(
                kind == "rw" and (src in long_reads or dst in long_reads)
                for src, dst, kind in history.edges()
            )
    finally:
        db.close()


def test_snapshot_stress_actually_contains_write_skew():
    """Sanity for the checker itself: under SNAPSHOT the stress workload
    produces genuine write-skew cycles (all-rw), so an acyclicity assertion
    would fail — the SI check is weaker than the serializable one on the
    same history, which is exactly the point."""
    db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
    history = History()
    try:
        _stress(db, history)
        cycle = history.find_cycle()
        if cycle is not None:
            # Any cycle SI admits must carry >= 2 rw edges.
            assert sum(1 for _, _, kind in cycle if kind == "rw") >= 2
    finally:
        db.close()
