"""E6 — version retention under a long-running reader (paper Sections 3 and 4).

Claim: obsolete versions (and tombstones) are retained exactly as long as an
active transaction might still read them; once the oldest active transaction
finishes, garbage collection reclaims everything older than the watermark.

Series: retained version count and index interval count while a long reader
pins the watermark, and again after it finishes, for different update volumes.
"""

from __future__ import annotations

import pytest

from repro import IsolationLevel

from bench_helpers import open_db, print_row
from harness.graphs import build_social_graph

HOT_NODES = 10


def _churn(db, hot, updates):
    for index in range(updates):
        with db.transaction() as tx:
            node_id = hot[index % len(hot)]
            node = tx.get_node(node_id)
            tx.set_node_property(node_id, "score", int(node.get("score", 0)) + 1)


@pytest.mark.benchmark(group="e6-version-retention")
@pytest.mark.parametrize("updates", [100, 400])
def test_e6_long_reader_pins_versions(benchmark, updates):
    db = open_db(IsolationLevel.SNAPSHOT)
    graph = build_social_graph(db, people=50, avg_friends=2, seed=43)
    hot = graph.group("people")[:HOT_NODES]
    engine = db.engine

    long_reader = db.begin(read_only=True)
    long_reader.get_node(hot[0])

    def run_with_pinned_reader():
        _churn(db, hot, updates)
        return engine.run_gc()

    pinned_stats = benchmark.pedantic(run_with_pinned_reader, rounds=1, iterations=1)
    retained_while_pinned = engine.versions.total_versions()
    pending_while_pinned = engine.gc.pending_versions()

    long_reader.rollback()
    released_stats = engine.run_gc()
    retained_after = engine.versions.total_versions()

    row = {
        "updates": updates,
        "collected_while_reader_active": pinned_stats.versions_collected,
        "versions_retained_while_pinned": retained_while_pinned,
        "gc_pending_while_pinned": pending_while_pinned,
        "collected_after_reader_finished": released_stats.versions_collected,
        "versions_retained_after": retained_after,
    }
    benchmark.extra_info.update(row)
    print_row("E6", row)

    # While the reader pins the watermark nothing it can still see is reclaimed...
    assert pinned_stats.versions_collected == 0
    assert retained_while_pinned >= updates
    # ...and once it finishes the history collapses back to one version per entity.
    assert released_stats.versions_collected >= updates - len(hot)
    assert retained_after < retained_while_pinned
    db.close()
