"""E7 — the enriched iterator and the multi-versioned indexes (paper Section 4).

Claims measured here:

* the enriched store iterator merges the transaction's own uncommitted writes
  with cached versions (read-your-own-writes) at a modest overhead over a
  plain committed-state scan, and
* multi-versioned index lookups stay snapshot-consistent while versions
  accumulate, with lookup cost growing only with the number of retained
  intervals for the queried key.

Series: time per full label scan (a) with no pending writes, (b) with the
transaction's own pending writes, and (c) with accumulated committed history
from a pinned reader.
"""

from __future__ import annotations

import pytest

from repro import IsolationLevel

from bench_helpers import open_db, print_row
from harness.graphs import build_social_graph

PEOPLE = 300
OWN_WRITES = 100
HISTORY_UPDATES = 200


def _scan(tx):
    return len(tx.find_nodes(label="Person"))


@pytest.mark.benchmark(group="e7-iterator-index")
def test_e7_plain_snapshot_scan(benchmark):
    db = open_db(IsolationLevel.SNAPSHOT)
    build_social_graph(db, people=PEOPLE, avg_friends=2, seed=47)
    tx = db.begin(read_only=True)
    count = benchmark(_scan, tx)
    row = {"scenario": "committed_only", "people": PEOPLE, "scan_result": count}
    benchmark.extra_info.update(row)
    print_row("E7", row)
    assert count == PEOPLE
    tx.rollback()
    db.close()


@pytest.mark.benchmark(group="e7-iterator-index")
def test_e7_scan_with_own_writes(benchmark):
    db = open_db(IsolationLevel.SNAPSHOT)
    build_social_graph(db, people=PEOPLE, avg_friends=2, seed=47)
    tx = db.begin()
    for index in range(OWN_WRITES):
        tx.create_node(["Person"], {"name": f"pending-{index}"})
    count = benchmark(_scan, tx)
    row = {
        "scenario": "own_writes_merged",
        "people": PEOPLE,
        "own_pending_writes": OWN_WRITES,
        "scan_result": count,
    }
    benchmark.extra_info.update(row)
    print_row("E7", row)
    # Read-your-own-writes: the pending nodes are part of this scan only.
    assert count == PEOPLE + OWN_WRITES
    tx.rollback()
    db.close()


@pytest.mark.benchmark(group="e7-iterator-index")
def test_e7_scan_with_version_history(benchmark):
    db = open_db(IsolationLevel.SNAPSHOT)
    graph = build_social_graph(db, people=PEOPLE, avg_friends=2, seed=47)
    hot = graph.group("people")[:20]
    pin = db.begin(read_only=True)
    pin.get_node(hot[0])
    for index in range(HISTORY_UPDATES):
        with db.transaction() as tx:
            node_id = hot[index % len(hot)]
            tx.set_node_property(node_id, "score", index)
    tx = db.begin(read_only=True)
    count = benchmark(_scan, tx)
    row = {
        "scenario": "with_retained_history",
        "people": PEOPLE,
        "retained_versions": db.engine.versions.total_versions(),
        "scan_result": count,
    }
    benchmark.extra_info.update(row)
    print_row("E7", row)
    assert count == PEOPLE
    tx.rollback()
    pin.rollback()
    db.close()
