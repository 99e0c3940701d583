"""Write clauses are eager: what a query changes, and what a later ``MATCH``
of the same query sees of it, depends neither on the batch size nor on a
``LIMIT`` above the write — under the executor and under the reference."""

from __future__ import annotations

import contextlib

import pytest

from reference_executor import reference_executor
from repro import GraphDatabase

#: (database options, context the query runs in).
RUNTIMES = [
    pytest.param(({"query_batch_size": 1}, contextlib.nullcontext), id="batch1"),
    pytest.param(({"query_batch_size": 2}, contextlib.nullcontext), id="batch2"),
    pytest.param(({"query_batch_size": 3}, contextlib.nullcontext), id="batch3"),
    pytest.param(({"query_batch_size": 1024}, contextlib.nullcontext), id="batch1024"),
    pytest.param(({}, reference_executor), id="reference"),
]


@pytest.fixture(params=RUNTIMES)
def execute(request):
    """``execute(text)`` on a fresh 7-node ``N``/``R`` chain (``v`` = 0…6),
    and on it a node ``{k: 'a'}`` with three relationships."""
    options, runtime = request.param
    db = GraphDatabase.in_memory(**options)
    with db.transaction() as tx:
        chain = [tx.create_node(["N"], {"v": v}) for v in range(7)]
        for start, end in zip(chain, chain[1:]):
            tx.create_relationship(start, end, "R")
        hub = tx.create_node(["H"], {"k": "a"})
        for index in range(3):
            tx.create_relationship(hub, tx.create_node(["Spoke"], {"i": index}), "S")

    def run(text):
        with runtime():
            return db.execute(text)

    yield run
    db.close()


def test_limit_above_set_limits_rows_not_updates(execute):
    result = execute("MATCH (a:N) SET a.flag = true RETURN a.v LIMIT 2")
    assert len(result.rows()) == 2
    assert result.stats.properties_set == 7
    assert execute("MATCH (a:N) WHERE a.flag RETURN count(*)").value() == 7


def test_limit_above_create_limits_rows_not_creates(execute):
    result = execute("MATCH (a:N) CREATE (b:M {v: a.v}) RETURN b.v LIMIT 1")
    assert len(result.rows()) == 1
    assert result.stats.nodes_created == 7
    assert execute("MATCH (b:M) RETURN count(*)").value() == 7


def test_later_match_sees_every_row_of_an_earlier_set(execute):
    result = execute(
        "MATCH (a:N) WHERE a.v < 3 SET a.v = a.v + 10 WITH a "
        "MATCH (x:N) WHERE x.v >= 10 RETURN count(*)"
    )
    assert result.rows() == [[9]]


def test_limit_zero_above_create_still_creates(execute):
    result = execute("CREATE (n:Z) RETURN n LIMIT 0")
    assert result.rows() == []
    assert result.stats.nodes_created == 1
    assert execute("MATCH (n:Z) RETURN count(*)").value() == 1


def test_later_match_sees_every_row_of_an_earlier_delete(execute):
    result = execute(
        "MATCH (a:H {k: 'a'})-[r]-(b) DELETE r WITH a "
        "MATCH (a)-[r2]-(c) RETURN count(r2)"
    )
    assert result.rows() == [[0]]
    assert result.stats.relationships_deleted == 3


def test_limit_below_a_write_still_limits_it(execute):
    result = execute("MATCH (n) WITH n ORDER BY n.v LIMIT 1 SET n.locked = true")
    assert result.stats.properties_set == 1
    assert execute("MATCH (n) WHERE n.locked RETURN n.v").rows() == [[0]]
