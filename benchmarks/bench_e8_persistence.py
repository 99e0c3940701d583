"""E8 — only the newest committed version reaches the persistent store (paper Section 4).

Claim: the approach "avoids this issue by only writing to the persistent data
store the most recent committed version of each data item.  The other versions
are kept in memory."  Consequently the number of persistent entity writes per
commit stays constant no matter how much version history accumulates in the
object cache, and the persistent store never grows with the version count.

Series: persistent entity writes per commit and persistent record count for
increasing numbers of updates to a fixed hot set, with a pinned reader forcing
the full history to be retained in memory.
"""

from __future__ import annotations

import pytest

from repro import IsolationLevel

from bench_helpers import open_db, print_row
from harness.graphs import build_social_graph

HOT_NODES = 5


def _update_round(db, hot, rounds):
    for index in range(rounds):
        with db.transaction() as tx:
            node_id = hot[index % len(hot)]
            tx.set_node_property(node_id, "score", index)


@pytest.mark.benchmark(group="e8-persistence")
@pytest.mark.parametrize("updates", [50, 200])
def test_e8_store_writes_stay_flat(benchmark, updates):
    db = open_db(IsolationLevel.SNAPSHOT)
    graph = build_social_graph(db, people=40, avg_friends=2, seed=53)
    hot = graph.group("people")[:HOT_NODES]
    pin = db.begin(read_only=True)  # force every old version to stay in memory
    pin.get_node(hot[0])

    db.store.catch_up()  # the graph build, so only the updates are counted
    writes_before = db.store.stats.entity_writes()
    batches_before = db.store.stats.batches_applied
    skipped_before = db.store.stats.writes_skipped
    benchmark.pedantic(_update_round, args=(db, hot, updates), rounds=1, iterations=1)
    db.store.catch_up()
    writes_after = db.store.stats.entity_writes()
    skipped = db.store.stats.writes_skipped - skipped_before
    batches_after = db.store.stats.batches_applied

    store_writes = writes_after - writes_before
    commits = batches_after - batches_before
    retained_versions = db.engine.versions.total_versions()
    row = {
        "updates": updates,
        "commits": commits,
        "persistent_entity_writes": store_writes,
        "superseded_writes_skipped": skipped,
        "writes_per_commit": round(store_writes / max(1, commits), 3),
        "versions_retained_in_memory": retained_versions,
        "persistent_nodes": db.store.node_count(),
    }
    benchmark.extra_info.update(row)
    print_row("E8", row)

    # At most one persistent write per committed update, regardless of
    # history size: each update is written, or skipped at catch-up because a
    # later update of the same node superseded it.
    assert store_writes + skipped == commits == updates
    assert HOT_NODES <= store_writes <= updates
    # History stays in memory only; the persistent store does not grow.
    assert retained_versions >= updates
    assert db.store.node_count() == 40 + 5  # people + cities, unchanged
    pin.rollback()
    db.close()
