"""The query instruments keep their meaning.

A fixed script of statements — reads and writes through ``tx.execute`` and
``db.execute``, ``EXPLAIN``, ``PROFILE``, a syntax error, a planning error,
runtime errors in a read and in a write, and a partly pulled read that is
then dropped — and the exact values every query-layer instrument and the
query-cache counters must hold afterwards.  The expected values are the
ones the per-layer instruments recorded before they were flushed once per
statement, except that the dropped read counts as a ``read`` (it used to
count as an ``error``).
"""

from __future__ import annotations

import gc

import pytest

from repro import GraphDatabase
from repro.errors import QueryError

POINT = "MATCH (p:Person {name: $name}) RETURN p.name, p.age"
SCAN = "MATCH (p:Person) RETURN p.name"
FRIENDS = "MATCH (p:Person {name: $name})-[:KNOWS*1..2]-(f) RETURN DISTINCT f.name"
BUMP = "MATCH (p:Person {name: $name}) SET p.score = p.score + 1"


def run_script(db: GraphDatabase) -> None:
    """About forty statements; every outcome the instruments distinguish."""
    with db.transaction() as tx:
        people = [
            tx.create_node(["Person"], {"name": f"p{index}", "age": 20 + index, "score": 0})
            for index in range(10)
        ]
        for left, right in zip(people, people[1:]):
            tx.create_relationship(left, right, "KNOWS")
    for index in range(6):  # 1 miss, 5 hits; one row, one batch each
        with db.transaction(read_only=True) as tx:
            tx.execute(POINT, name=f"p{index}").records()
    for _ in range(3):  # ten rows in batches of 4, 4, 2
        db.execute(SCAN)
    for index in range(4):
        db.execute(FRIENDS, name=f"p{index}")
    for index in range(5):
        with db.transaction() as tx:
            tx.execute(BUMP, name=f"p{index}")
    db.execute("CREATE (:Person {name: 'new', age: 1, score: 0})")
    db.execute("MATCH (p:Person) RETURN count(*) AS n")
    db.execute("EXPLAIN " + SCAN)
    db.execute("EXPLAIN " + BUMP, name="p0")
    db.execute("PROFILE " + SCAN)
    db.execute("PROFILE " + FRIENDS, name="p1")
    with pytest.raises(QueryError):
        db.execute("MATCH (p:Person RETURN p")  # syntax error
    with pytest.raises(QueryError):
        db.execute("MATCH (p:Person) RETURN q")  # planning error
    with pytest.raises(QueryError), db.transaction(read_only=True) as tx:
        tx.execute("MATCH (p:Person) RETURN p.name / 2").records()
    with pytest.raises(QueryError), db.transaction() as tx:
        tx.execute("MATCH (p:Person {name: 'p0'}) SET p.score = 1 / 0")
    with db.transaction(read_only=True) as tx:
        rows = iter(tx.execute(SCAN))
        next(rows)
        next(rows)
        del rows
        gc.collect()
    for index in range(5):
        with db.transaction(read_only=True) as tx:
            tx.execute(POINT, name=f"p{index}").records()
    for index in range(5):  # auto-commit: the read-only check hits too
        db.execute(POINT, name=f"p{index}")


def observed(db: GraphDatabase) -> dict:
    """Every query-layer instrument's value, plus the query-cache counters."""
    instruments = db.metrics_snapshot()["instruments"]

    def samples(name):
        return instruments[name]["samples"]

    batch_rows = samples("repro_query_batch_rows")[0]
    caches = db.statistics()["query_cache"]
    return {
        "queries": {
            sample["labels"]["kind"]: sample["value"]
            for sample in samples("repro_queries_total")
        },
        "rows": samples("repro_query_rows_total")[0]["value"],
        "batches": samples("repro_query_batches_total")[0]["value"],
        "batch_rows_buckets": batch_rows["buckets"],
        "batch_rows_sum": batch_rows["sum"],
        "seconds_count": samples("repro_query_seconds")[0]["count"],
        "plan_cache": (
            samples("repro_plan_cache_hits_total")[0]["value"],
            samples("repro_plan_cache_misses_total")[0]["value"],
        ),
        "query_cache": {
            cache: (caches[cache]["hits"], caches[cache]["misses"])
            for cache in ("parse", "plan")
        },
    }


def test_query_instruments_keep_their_values():
    db = GraphDatabase.in_memory(query_batch_size=4)
    try:
        run_script(db)
        assert observed(db) == EXPECTED
    finally:
        db.close()


#: Recorded before the instruments were flushed once per statement, with
#: one change: the dropped read was ``error`` (3 errors, 26 reads) then.
EXPECTED = {
    "queries": {"error": 2.0, "read": 27.0, "write": 6.0},
    "rows": 76.0,
    "batches": 41.0,
    "batch_rows_buckets": {
        "1": 23, "4": 18, "16": 0, "64": 0, "256": 0, "1024": 0, "4096": 0,
        "+Inf": 0,
    },
    "batch_rows_sum": 84.0,
    "seconds_count": 35,
    "plan_cache": (25.0, 9.0),
    "query_cache": {"parse": (44, 15), "plan": (25, 9)},
}
