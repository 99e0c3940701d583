"""Account transfers: lost updates, first-updater-wins retries, and write skew.

Three things this example shows on a set of ``Account`` nodes:

1. Under read committed, concurrent read-modify-write transfers silently lose
   updates: the final total balance does not add up.
2. Under snapshot isolation, the write rule (first-updater-wins) aborts one of
   two conflicting transfers; with a retry loop the books always balance.
3. Snapshot isolation still permits *write skew* — the one anomaly the paper
   acknowledges SI does not prevent — shown with the classic two-account
   constraint.

Run with::

    python examples/bank_transfers.py
"""

import random
import threading

from repro import GraphDatabase, IsolationLevel, WriteWriteConflictError
from repro.errors import TransactionAbortedError

ACCOUNTS = 20
INITIAL_BALANCE = 1_000
TRANSFERS_PER_WORKER = 50
WORKERS = 4


def total_balance(db, accounts) -> int:
    with db.transaction(read_only=True) as tx:
        return sum(int(tx.get_node(account)["balance"]) for account in accounts)


def run_transfers(db, accounts, *, retry: bool) -> dict:
    """Concurrent random transfers; optionally retry on write-write conflicts."""
    lost = {"aborts": 0, "retries": 0}
    lock = threading.Lock()

    def worker(worker_id: int) -> None:
        rng = random.Random(worker_id)
        for _ in range(TRANSFERS_PER_WORKER):
            while True:
                source, target = rng.sample(accounts, 2)
                amount = rng.randint(1, 50)
                try:
                    with db.transaction() as tx:
                        src = tx.get_node(source)
                        dst = tx.get_node(target)
                        tx.set_node_property(source, "balance", int(src["balance"]) - amount)
                        tx.set_node_property(target, "balance", int(dst["balance"]) + amount)
                    break
                except (WriteWriteConflictError, TransactionAbortedError):
                    with lock:
                        lost["aborts"] += 1
                    if not retry:
                        break
                    with lock:
                        lost["retries"] += 1

    threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(WORKERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return lost


def demonstrate_transfers() -> None:
    expected_total = ACCOUNTS * INITIAL_BALANCE
    print(f"{WORKERS} workers x {TRANSFERS_PER_WORKER} random transfers; "
          f"money in the system should stay {expected_total}\n")

    for isolation in (IsolationLevel.READ_COMMITTED, IsolationLevel.SNAPSHOT):
        db = GraphDatabase.in_memory(isolation=isolation)
        with db.transaction() as tx:
            accounts = [
                tx.create_node(["Account"], {"number": i, "balance": INITIAL_BALANCE}).id
                for i in range(ACCOUNTS)
            ]
        outcome = run_transfers(db, accounts, retry=isolation is IsolationLevel.SNAPSHOT)
        final = total_balance(db, accounts)
        drift = final - expected_total
        print(f"{isolation.value:>15}: final total {final} (drift {drift:+d}), "
              f"conflicts aborted {outcome['aborts']}, retried {outcome['retries']}")
        db.close()
    print("\nRead committed silently loses concurrent updates (non-zero drift); "
          "snapshot isolation aborts the second updater, and with retries the books balance.\n")


def demonstrate_write_skew() -> None:
    print("Write skew (the anomaly snapshot isolation does NOT prevent):")
    db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
    with db.transaction() as tx:
        account_a = tx.create_node(["Account"], {"balance": 60}).id
        account_b = tx.create_node(["Account"], {"balance": 60}).id
    amount = 80

    def withdraw(tx, source: int) -> None:
        """Withdraw from ``source`` if the combined balance covers it."""
        balances = {account: tx.get_node(account)["balance"] for account in (account_a, account_b)}
        if sum(balances.values()) >= amount:
            tx.set_node_property(source, "balance", balances[source] - amount)

    # Two concurrent transactions each read both balances (total 120 >= 80),
    # then withdraw from *different* accounts — no write-write conflict, both
    # commit, and the combined constraint is violated.
    t1 = db.begin()
    t2 = db.begin()
    withdraw(t1, account_a)
    withdraw(t2, account_b)
    t1.commit()
    t2.commit()

    with db.transaction(read_only=True) as tx:
        balance_a = tx.get_node(account_a)["balance"]
        balance_b = tx.get_node(account_b)["balance"]
    violated = balance_a + balance_b < 0
    print(f"  balances after both withdrawals: {balance_a} + {balance_b} = {balance_a + balance_b}"
          f"  -> constraint violated: {violated}")
    print("  (As the paper notes, many workloads — e.g. TPC-C — never trigger this anomaly.)")
    db.close()


if __name__ == "__main__":
    demonstrate_transfers()
    demonstrate_write_skew()
