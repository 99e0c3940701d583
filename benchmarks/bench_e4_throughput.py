"""E4 — removing read locks: throughput and latency, RC vs SI (paper Sections 1 and 4).

Claim: snapshot isolation drops the short read locks entirely, so readers
never queue behind writers (and writers never wait for readers).  Under a
mixed workload the read-committed baseline loses throughput as soon as writes
touch what readers read; the MVCC engine does not.

Series: committed transactions per second and p95 latency for read fractions
{0.5, 0.9} under each isolation level.
"""

from __future__ import annotations

import statistics

import pytest

from bench_helpers import open_db, print_row, run_workers
from harness.graphs import build_social_graph

WORKERS = 6
OPS_PER_WORKER = 40
HOT_NODES = 8


def _run(isolation, read_fraction):
    db = open_db(isolation)
    graph = build_social_graph(db, people=120, avg_friends=4, seed=31)
    people = graph.group("people")
    hot = people[:HOT_NODES]

    def work(rng, _worker_id):
        if rng.random() < read_fraction:
            with db.transaction(read_only=True) as tx:
                tx.try_get_node(rng.choice(hot))
                start = rng.choice(people)
                if tx.try_get_node(start) is not None:
                    tx.relationships_of(start, rel_types=["KNOWS"])
        else:
            with db.transaction() as tx:
                node_id = rng.choice(hot)
                score = int(tx.get_node(node_id).get("score", 0))
                tx.set_node_property(node_id, "score", score + rng.randint(1, 5))

    result = run_workers(work, workers=WORKERS, ops_per_worker=OPS_PER_WORKER, seed=37)
    db.close()
    return result


@pytest.mark.benchmark(group="e4-throughput")
@pytest.mark.parametrize("read_fraction", [0.5, 0.9])
def test_e4_mixed_workload_throughput(benchmark, isolation, read_fraction):
    result = benchmark.pedantic(_run, args=(isolation, read_fraction), rounds=1, iterations=1)
    cuts = statistics.quantiles(result.latencies, n=100, method="inclusive")
    row = {
        "isolation": isolation.value,
        "read_fraction": read_fraction,
        "committed": result.committed,
        "aborted": result.aborted,
        "throughput_tps": round(result.throughput, 1),
        "latency_p50_ms": round(cuts[49] * 1000, 2),
        "latency_p95_ms": round(cuts[94] * 1000, 2),
    }
    benchmark.extra_info.update(row)
    print_row("E4", row)
