"""E1 — unrepeatable reads (paper Section 1).

Claim: read committed lets a transaction observe two different values for the
same entity within one transaction; snapshot isolation does not.

Workload: writer threads repeatedly bump a property on a small hot set of
nodes while reader transactions read the same node twice with a small pause in
between.  The reported series is the number of unrepeatable reads observed per
100 reader transactions under each isolation level.
"""

from __future__ import annotations

import pytest

from bench_helpers import open_db, print_row, run_workers
from harness.anomaly import check_unrepeatable_read
from harness.graphs import build_social_graph

WORKERS = 6
OPS_PER_WORKER = 40
HOT_NODES = 4


def _run_experiment(isolation):
    db = open_db(isolation)
    graph = build_social_graph(db, people=60, avg_friends=3, seed=11)
    hot = graph.group("people")[:HOT_NODES]

    def work(rng, worker_id):
        """Writers return None; readers return whether the re-read differed."""
        if worker_id % 2 == 0:
            with db.transaction() as tx:
                node_id = rng.choice(hot)
                score = int(tx.get_node(node_id).get("score", 0))
                tx.set_node_property(node_id, "score", score + rng.randint(1, 5))
            return None
        with db.transaction(read_only=True) as tx:
            return check_unrepeatable_read(tx, rng.choice(hot), "score", delay_seconds=0.002)

    result = run_workers(work, workers=WORKERS, ops_per_worker=OPS_PER_WORKER, seed=5)
    db.close()
    return result


@pytest.mark.benchmark(group="e1-unrepeatable-reads")
def test_e1_unrepeatable_reads(benchmark, isolation):
    result = benchmark.pedantic(_run_experiment, args=(isolation,), rounds=1, iterations=1)
    reads = [observed for observed in result.results if observed is not None]
    unrepeatable_reads = sum(reads)
    row = {
        "isolation": isolation.value,
        "reader_txns": len(reads),
        "unrepeatable_reads": unrepeatable_reads,
        "per_100_readers": round(100.0 * unrepeatable_reads / max(1, len(reads)), 2),
        "committed": result.committed,
        "aborted": result.aborted,
    }
    benchmark.extra_info.update(row)
    print_row("E1", row)
    # The qualitative claim must hold: SI never observes the anomaly.
    if isolation.value == "snapshot":
        assert unrepeatable_reads == 0
