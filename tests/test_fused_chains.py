"""Fused chains of row-wise operators keep ``PROFILE`` and ``LIMIT`` exact.

The executor runs each chain of row-wise operators above a source operator
(filters, projections, ``DISTINCT``, ``SKIP``/``LIMIT`` and the pattern check
of the node a scan, seek or expand binds) as one loop per input batch.
``PROFILE`` composes the same pieces with a counting boundary after each
operator, so every operator still reports the rows it passed on; and a
``LIMIT`` still stops pulling its source once the batch that fills it is
done.  The figures below are the ones the executor reported before chains
were fused.
"""

from __future__ import annotations

import random

import pytest

from repro import GraphDatabase

FRIENDS_OF_FRIENDS = (
    "MATCH (p:Person {name: $name})-[:KNOWS*1..2]-(f:Person) "
    "WHERE f.name <> $name RETURN DISTINCT f.name"
)
FILTERED_SCAN = (
    "MATCH (p:Person) WHERE p.age >= $min_age "
    "RETURN p.name ORDER BY p.age DESC LIMIT 10"
)
BATCH_SIZES = [1, 2, 3, 4, 1024]


def _social_db(batch_size: int) -> GraphDatabase:
    db = GraphDatabase.in_memory(query_batch_size=batch_size)
    rng = random.Random(7)
    with db.transaction() as tx:
        people = [
            tx.create_node(["Person"], {"name": f"p{i}", "age": 18 + rng.randrange(60)})
            for i in range(60)
        ]
        cities = [tx.create_node(["City"], {"name": f"c{i}"}) for i in range(3)]
        # Far ends the ``(f:Person)`` check must drop.
        bots = [tx.create_node(["Bot"], {"name": f"b{i}"}) for i in range(4)]
        for i, bot in enumerate(bots):
            tx.create_relationship(bot, people[5 + i], "KNOWS")
            tx.create_relationship(people[i], bot, "KNOWS")
        for i, person in enumerate(people):
            tx.create_relationship(person, cities[i % 3], "LIVES_IN")
            for other in rng.sample(people[:i] or [person], min(i, 3)):
                tx.create_relationship(person, other, "KNOWS")
    return db


def _operator_rows(result):
    return [(op.name, op.actual_rows) for op in result.plan.root.walk()]


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_profile_reports_each_operators_rows(batch_size):
    db = _social_db(batch_size)
    try:
        fof = db.execute("PROFILE " + FRIENDS_OF_FRIENDS, {"name": "p5"})
        assert _operator_rows(fof) == [
            ("ProduceResults", 48), ("Distinct", 48), ("Projection", 48),
            ("Filter", 48), ("DistinctEndpointVarLengthExpand", 48),
            ("PropertyIndexSeek", 1), ("Argument", 1),
        ]
        assert "b0" not in fof.values()
        scan = db.execute("PROFILE " + FILTERED_SCAN, {"min_age": 50})
        # ``LIMIT`` stops pulling the sort's output once a batch fills it.
        sorted_rows = {1: 10, 2: 10, 3: 12, 4: 12}.get(batch_size, 24)
        assert _operator_rows(scan) == [
            ("ProduceResults", 10), ("Limit", 10), ("OrderBy", sorted_rows),
            ("Projection", 24), ("Filter", 24), ("LabelScan", 60), ("Argument", 1),
        ]
    finally:
        db.close()


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_limit_stops_pulling_once_the_batch_that_fills_it_is_done(batch_size):
    """``LIMIT 3`` above a filter keeping every other node of a 1,000-node
    label scan: the scan yields batches until the one whose survivors fill
    the limit, and no further."""
    db = GraphDatabase.in_memory(query_batch_size=batch_size)
    try:
        with db.transaction() as tx:
            for value in range(1000):
                tx.create_node(["L"], {"v": value})
        result = db.execute("PROFILE MATCH (n:L) WHERE n.v % 2 = 1 RETURN n.v LIMIT 3")
        assert result.values() == [1, 3, 5]
        scan = next(op for op in result.plan.root.walk() if op.name == "LabelScan")
        assert (scan.actual_rows, scan.actual_batches) == {
            1: (6, 6), 2: (6, 3), 3: (6, 2), 4: (8, 2), 1024: (1000, 1),
        }[batch_size]
        limit = next(op for op in result.plan.root.walk() if op.name == "Limit")
        assert limit.actual_rows == 3
    finally:
        db.close()

