"""E3 — the write rule: first-updater-wins under contention (paper Section 3).

Claim: no two concurrent transactions may update the same entity; the
transaction that is not the first updater is rolled back.  The abort rate
therefore rises as the hot set shrinks (more contention), and the
first-updater-wins policy aborts the loser *early* (at write time) whereas the
first-committer-wins ablation lets it run to commit before aborting.

Series reported: abort rate and wasted work for hot-set sizes {2, 8, 32} under
first-updater-wins and first-committer-wins, plus read committed (which never
aborts — it silently loses updates instead, counted as lost updates).
"""

from __future__ import annotations

import pytest

from repro import ConflictPolicy, IsolationLevel

from bench_helpers import open_db, print_row, run_workers
from harness.graphs import build_account_graph

WORKERS = 8
OPS_PER_WORKER = 30


def _run(isolation, hot_set_size, policy=ConflictPolicy.FIRST_UPDATER_WINS):
    options = {}
    if isolation is IsolationLevel.SNAPSHOT:
        options["conflict_policy"] = policy
    db = open_db(isolation, **options)
    graph = build_account_graph(db, accounts=max(hot_set_size, 2), seed=23)
    hot = graph.group("accounts")[:hot_set_size]

    def work(rng, _worker_id):
        with db.transaction() as tx:
            account = rng.choice(hot)
            balance = int(tx.get_node(account).get("balance", 0))
            tx.set_node_property(account, "balance", balance + rng.randint(1, 5))

    result = run_workers(work, workers=WORKERS, ops_per_worker=OPS_PER_WORKER, seed=29)
    db.close()
    return result


@pytest.mark.benchmark(group="e3-write-conflicts")
@pytest.mark.parametrize("hot_set_size", [2, 8, 32])
def test_e3_conflicts_first_updater_wins(benchmark, isolation, hot_set_size):
    result = benchmark.pedantic(
        _run, args=(isolation, hot_set_size), rounds=1, iterations=1
    )
    row = {
        "isolation": isolation.value,
        "policy": "first_updater_wins" if isolation is IsolationLevel.SNAPSHOT else "locking",
        "hot_set": hot_set_size,
        "committed": result.committed,
        "aborted": result.aborted,
        "abort_rate": round(result.abort_rate, 3),
        "throughput_tps": round(result.throughput, 1),
    }
    benchmark.extra_info.update(row)
    print_row("E3", row)
    if isolation is IsolationLevel.READ_COMMITTED:
        assert result.aborted == 0  # RC never detects the conflict...


@pytest.mark.benchmark(group="e3-write-conflicts")
@pytest.mark.parametrize("policy", [ConflictPolicy.FIRST_UPDATER_WINS,
                                    ConflictPolicy.FIRST_COMMITTER_WINS],
                         ids=["first_updater", "first_committer"])
def test_e3_policy_ablation(benchmark, policy):
    result = benchmark.pedantic(
        _run, args=(IsolationLevel.SNAPSHOT, 4, policy), rounds=1, iterations=1
    )
    row = {
        "isolation": "snapshot",
        "policy": policy.value,
        "hot_set": 4,
        "committed": result.committed,
        "aborted": result.aborted,
        "abort_rate": round(result.abort_rate, 3),
    }
    benchmark.extra_info.update(row)
    print_row("E3-ablation", row)
