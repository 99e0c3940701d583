"""The planner's store totals are kept counts, not scans.

``StoreManager.node_count`` / ``relationship_count`` feed every expand's
fan-out estimate, so a re-plan must not read the record files; the node and
relationship stores count their in-use records on open and keep the count as
records are created and deleted.
"""

from __future__ import annotations

import pytest

from repro import GraphDatabase
from repro.graph.records import RecordStore


def _scanned(store):
    return len(list(store.iter_node_ids())), len(list(store.iter_relationship_ids()))


def test_planning_an_expand_reads_no_record_file(monkeypatch):
    db = GraphDatabase.in_memory()
    try:
        with db.transaction() as tx:
            a = tx.create_node(["Person"], {"name": "a"})
            b = tx.create_node(["Person"], {"name": "b"})
            tx.create_relationship(a, b, "KNOWS")

        def no_scan(self):
            raise AssertionError("a store count scanned the record file")

        monkeypatch.setattr(RecordStore, "count_in_use", no_scan)
        rows = db.execute(
            "MATCH (p:Person {name: $name})-[:KNOWS*1..2]-(f:Person) "
            "WHERE f.name <> $name RETURN DISTINCT f.name",
            name="a",
        ).values()
        assert rows == ["b"]
        assert (db.store.node_count(), db.store.relationship_count()) == (2, 1)
    finally:
        db.close()


@pytest.mark.parametrize("on_disk", [False, True], ids=["in-memory", "on-disk"])
def test_counts_equal_a_full_scan(on_disk, tmp_path):
    def open_db():
        return GraphDatabase.open(str(tmp_path)) if on_disk else GraphDatabase.in_memory()

    db = open_db()
    try:
        with db.transaction() as tx:
            nodes = [tx.create_node(["N"], {"i": i}) for i in range(6)]
            for left, right in zip(nodes, nodes[1:]):
                tx.create_relationship(left, right, "NEXT")
            tx.create_relationship(nodes[0], nodes[0], "SELF")
        assert (db.store.node_count(), db.store.relationship_count()) == (6, 6)
        with db.transaction() as tx:
            tx.set_node_property(nodes[1], "i", 10)
            tx.delete_node(nodes[5], detach=True)
            tx.delete_relationship(tx.relationships_of(nodes[0], rel_types=["SELF"])[0])
        # An aborted create never reaches the store.
        tx = db.begin()
        tx.create_relationship(tx.create_node(["N"]), nodes[0], "NEXT")
        tx.rollback()
        assert (db.store.node_count(), db.store.relationship_count()) == (5, 4)
        assert _scanned(db.store) == (5, 4)
        if not on_disk:
            return
        db.close()
        db = open_db()
        assert (db.store.node_count(), db.store.relationship_count()) == (5, 4)
        assert _scanned(db.store) == (5, 4)
        with db.transaction() as tx:
            tx.create_node(["N"])
        assert (db.store.node_count(), db.store.relationship_count()) == (6, 4)
        assert _scanned(db.store) == (6, 4)
    finally:
        db.close()
