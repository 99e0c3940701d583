"""E2 — phantom reads on predicate scans (paper Section 1).

Claim: read committed lets a repeated predicate selection (label scan) return
different result sets within one transaction; snapshot isolation — thanks to
the multi-versioned label/property indexes — returns the same set both times.

Workload: writer threads insert and delete ``Person`` nodes while readers run
the same label scan twice per transaction.
"""

from __future__ import annotations

import pytest

from bench_helpers import open_db, print_row, run_workers
from harness.anomaly import check_phantom_read
from harness.graphs import build_social_graph

WORKERS = 6
OPS_PER_WORKER = 30


def _run_experiment(isolation):
    db = open_db(isolation)
    graph = build_social_graph(db, people=40, avg_friends=2, seed=13)
    victims = list(graph.group("people"))

    def work(rng, worker_id):
        """Writers insert or delete a Person and return None; readers
        return whether the repeated label scan differed."""
        if worker_id % 2 == 0:
            with db.transaction() as tx:
                if rng.random() < 0.6:
                    tx.create_node(
                        ["Person"],
                        {"payload": rng.randint(0, 1_000_000), "flag": rng.random() < 0.5},
                    )
                else:
                    victim = rng.choice(victims)
                    if tx.try_get_node(victim) is not None:
                        tx.delete_node(victim, detach=True)
            return None
        with db.transaction(read_only=True) as tx:
            return check_phantom_read(tx, label="Person", delay_seconds=0.002)

    result = run_workers(work, workers=WORKERS, ops_per_worker=OPS_PER_WORKER, seed=17)
    db.close()
    return result


@pytest.mark.benchmark(group="e2-phantom-reads")
def test_e2_phantom_reads(benchmark, isolation):
    result = benchmark.pedantic(_run_experiment, args=(isolation,), rounds=1, iterations=1)
    scans = [observed for observed in result.results if observed is not None]
    phantom_reads = sum(scans)
    row = {
        "isolation": isolation.value,
        "scan_txns": len(scans),
        "phantom_reads": phantom_reads,
        "per_100_scans": round(100.0 * phantom_reads / max(1, len(scans)), 2),
        "committed": result.committed,
        "aborted": result.aborted,
    }
    benchmark.extra_info.update(row)
    print_row("E2", row)
    if isolation.value == "snapshot":
        assert phantom_reads == 0
