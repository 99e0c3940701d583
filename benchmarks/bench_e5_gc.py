"""E5 — garbage collection: threaded list vs PostgreSQL-style vacuum (paper Section 4).

Claim: threading the obsolete versions on a doubly-linked list sorted by
timestamp reduces the cost of garbage collection to "traversing those versions
that must be garbage collected", whereas a vacuum-style collector scans every
chain and every store record and stalls commits while it runs.

Series: collection time for the threaded collector and the vacuum collector at
database sizes {500, 2000} nodes with a fixed number of dead versions, plus
how much of the database each collector had to examine.
"""

from __future__ import annotations

import pytest

from repro import IsolationLevel

from bench_helpers import open_db, print_row
from harness.graphs import build_social_graph
from harness.vacuum import VacuumCollector

DEAD_VERSIONS = 300


def _prepare(db, graph, dead_versions):
    """Create exactly ``dead_versions`` obsolete versions on a small hot set."""
    people = graph.group("people")
    hot = people[: max(4, dead_versions // 50)]
    created = 0
    while created < dead_versions:
        with db.transaction() as tx:
            node_id = hot[created % len(hot)]
            node = tx.get_node(node_id)
            tx.set_node_property(node_id, "score", int(node.get("score", 0)) + 1)
        created += 1


@pytest.mark.benchmark(group="e5-gc")
@pytest.mark.parametrize("nodes", [500, 2000])
def test_e5_threaded_gc(benchmark, nodes):
    db = open_db(IsolationLevel.SNAPSHOT)
    graph = build_social_graph(db, people=nodes, avg_friends=2, seed=41)
    _prepare(db, graph, DEAD_VERSIONS)
    engine = db.engine

    stats = benchmark.pedantic(engine.run_gc, rounds=1, iterations=1)
    row = {
        "collector": "threaded_list",
        "db_nodes": nodes,
        "dead_versions": DEAD_VERSIONS,
        "versions_examined": stats.versions_examined,
        "versions_collected": stats.versions_collected,
        "store_records_scanned": 0,
        "duration_ms": round(stats.duration_seconds * 1000, 3),
    }
    benchmark.extra_info.update(row)
    print_row("E5", row)
    # The whole point of the threaded list: GC work is proportional to the
    # dead versions, not to the size of the database.
    assert stats.versions_examined <= DEAD_VERSIONS + 5
    db.close()


@pytest.mark.benchmark(group="e5-gc")
@pytest.mark.parametrize("nodes", [500, 2000])
def test_e5_vacuum_gc(benchmark, nodes):
    db = open_db(IsolationLevel.SNAPSHOT)
    graph = build_social_graph(db, people=nodes, avg_friends=2, seed=41)
    _prepare(db, graph, DEAD_VERSIONS)
    vacuum = VacuumCollector(db.engine)

    stats = benchmark.pedantic(vacuum.collect, rounds=1, iterations=1)
    row = {
        "collector": "vacuum_full_scan",
        "db_nodes": nodes,
        "dead_versions": DEAD_VERSIONS,
        "versions_examined": stats.versions_examined,
        "versions_collected": stats.versions_collected,
        "store_records_scanned": stats.store_records_scanned,
        "duration_ms": round(stats.duration_seconds * 1000, 3),
    }
    benchmark.extra_info.update(row)
    print_row("E5", row)
    # Vacuum cost grows with database size: it touched every persistent record.
    assert stats.store_records_scanned >= nodes
    db.close()
