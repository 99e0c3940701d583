"""Reachability with set semantics: ``DistinctEndpointVarLengthExpand``.

A bounded ``*0..2`` / ``*1..2`` hop whose paths nobody sees — anonymous
relationship, no path, only a duplicate-discarding consumer above — runs as
a level-synchronous walk over node-id sets, one row per distinct end node.
Pinned here:

* against the row-at-a-time path walk of ``tests/reference_executor.py``
  (which ignores the mark and enumerates paths), on random multigraphs with
  parallel relationships and self-loops, ordered rows equal;
* the planner marks exactly the eligible shapes (``EXPLAIN``);
* under SERIALIZABLE it registers the SIREAD keys and predicates the path
  walk registers, for an ordinary root and for a hub the path walk walks
  lazily;
* ``PROFILE`` reports the distinct end nodes, not the paths.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_executor import reference_executor
from repro import GraphDatabase, IsolationLevel
from repro.errors import QuerySyntaxError

OPERATOR = "DistinctEndpointVarLengthExpand"


def _operators(db: GraphDatabase, text: str, **parameters) -> list:
    return db.execute("EXPLAIN " + text, parameters).plan.operator_names()


# -- the differential oracle ----------------------------------------------------


@pytest.mark.parametrize("types", ["", ":A"], ids=["any-type", "typed"])
@pytest.mark.parametrize("direction", ["-", "->", "<-"], ids=["both", "out", "in"])
@pytest.mark.parametrize("hops", ["0..1", "1..1", "1..2", "0..2"])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.lists(st.integers(0, 3), min_size=8, max_size=8),
    marked=st.lists(st.booleans(), min_size=8, max_size=8),
    edges=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from(["A", "B"])),
        max_size=16,
    ),
    source=st.sampled_from(["(s:V)", "(s:V {i: 0})", "(:V {i: 0})-[:B]-(s)"]),
    target=st.sampled_from(["(x)", "(x:W)"]),
    returns=st.sampled_from([
        "RETURN DISTINCT x.k",
        "RETURN DISTINCT s.i, x.i",
        "RETURN s.i, count(DISTINCT x) AS n",
        "RETURN count(DISTINCT x) AS n",
    ]),
    excluded_key=st.integers(0, 3),
    own_writes=st.sampled_from([None, "delete", "create"]),
    batch_size=st.sampled_from([1, 2, 3, 4, 1024]),
)
def test_distinct_endpoints_match_the_path_walk(
    hops, direction, types, keys, marked, edges, source, target, returns,
    excluded_key, own_writes, batch_size,
):
    """Random multigraphs (parallel relationships, self-loops), every
    direction and bound the rule takes, with and without a type list, from
    every node, one node, or past an earlier hop whose relationship the set
    walk must not reuse, a label on the far end and a ``WHERE`` on it: the
    set walk returns the path walk's rows in the path walk's order — also
    over what the reading transaction itself deleted or created."""
    left, right = ("<-", "-") if direction == "<-" else ("-", direction)
    text = (
        f"MATCH {source}{left}[{types}*{hops}]{right}{target} "
        f"WHERE x.k <> $k {returns}"
    )
    db = GraphDatabase.in_memory(query_batch_size=batch_size)
    try:
        with db.transaction() as tx:
            # Node 0 is always a W, so no ``(x:W)`` scan is cheaper than the
            # ``{i: 0}`` seek: the plan starts where the pattern does and the
            # hop stays right under the DISTINCT.
            ids = [
                tx.create_node(["V", "W"] if marked[index] or index == 0 else ["V"],
                               {"i": index, "k": key}).id
                for index, key in enumerate(keys)
            ]
            for start, end, rel_type in edges:
                tx.create_relationship(
                    ids[start % len(ids)], ids[end % len(ids)], rel_type
                )
        assert OPERATOR in _operators(db, text, k=excluded_key)
        with db.transaction() as tx:
            if own_writes == "delete":
                tx.delete_node(ids[-1], detach=True)
            elif own_writes == "create":
                tx.create_relationship(ids[0], ids[-1], "A")
                tx.create_relationship(ids[-1], ids[-1], "B")
            answers = []
            for runtime in (reference_executor, contextlib.nullcontext):
                with runtime():
                    answers.append(tx.execute(text, k=excluded_key).rows())
        assert answers[1] == answers[0]
    finally:
        db.close()


def test_the_start_node_is_an_end_node_only_through_a_trail():
    """Reached back through the relationship that left it, the start node is
    no end node; through a parallel relationship or a self-loop it is."""
    db = GraphDatabase.in_memory()
    try:
        with db.transaction() as tx:
            a, b, c, d = (
                tx.create_node(["V"], {"k": key}) for key in ("a", "b", "c", "d")
            )
            tx.create_relationship(a, b, "T")  # a-b once: no trail back to a
            tx.create_relationship(c, d, "T")  # c-d twice: c-d-c is a trail
            tx.create_relationship(d, c, "T")
        text = "MATCH (s:V {k: $k})-[:T*1..2]-(x) RETURN DISTINCT x.k"
        for start, expected in (("a", ["b"]), ("c", ["d", "c"])):
            assert db.execute(text, k=start).values() == expected
            with reference_executor():
                assert db.execute(text, k=start).values() == expected
        with db.transaction() as tx:
            tx.create_relationship(a, a, "T")
        assert sorted(db.execute(text, k="a").values()) == ["a", "b"]
    finally:
        db.close()


# -- which shapes the rule takes ---------------------------------------------------


ELIGIBLE = [
    "MATCH (s:V)-[:A*1..2]-(x) RETURN DISTINCT x.k",
    "MATCH (s:V)-[*0..2]->(x) RETURN count(DISTINCT x) AS n",
    "MATCH (s:V)<-[*0..1]-(x) WHERE x.k > 1 RETURN DISTINCT x.k",
    "MATCH (s:V)-[*1..1]-(x) WITH DISTINCT x RETURN x.k",
    "MATCH (s:V)-[:A|B*1..2]-(x:V) WITH x WHERE x.k > 0 RETURN DISTINCT x.k",
    "MATCH (s:V)-[*1..2]-(x) RETURN s.i, collect(DISTINCT x.k) AS ks",
    "MATCH (s:V {i: $i})-[:A*1..2]-(x:V) WHERE x.k <> $k RETURN DISTINCT x.k",
]

NOT_ELIGIBLE = [
    pytest.param("MATCH (s:V)-[*1..2]-(x) RETURN x.k", id="no-distinct"),
    pytest.param("MATCH (s:V)-[r*1..2]-(x) RETURN DISTINCT x.k", id="named-rel"),
    pytest.param("MATCH (s:V)-[r*1..2]-(x) RETURN DISTINCT r", id="returned-rel"),
    pytest.param("MATCH (s:V)-[*2..2]-(x) RETURN DISTINCT x.k", id="2..2"),
    pytest.param("MATCH (s:V)-[*1..3]-(x) RETURN DISTINCT x.k", id="1..3"),
    pytest.param("MATCH (s:V)-[*1..]-(x) RETURN DISTINCT x.k", id="unbounded"),
    pytest.param("MATCH (s:V)-[*1..2 {w: 1}]-(x) RETURN DISTINCT x.k", id="rel-props"),
    pytest.param("MATCH (s:V)-[*1..2]-(x)-[:A]-(y) RETURN DISTINCT y.k", id="later-hop"),
    pytest.param("MATCH (s:V)-[*1..2]-(x) RETURN count(x) AS n", id="count-not-distinct"),
    pytest.param(
        "MATCH (s:V)-[*1..2]-(x) RETURN count(DISTINCT x) AS a, count(x) AS b",
        id="one-call-not-distinct",
    ),
    pytest.param(
        "MATCH (s:V)-[*1..2]-(x) WITH x LIMIT 3 RETURN DISTINCT x.k", id="limit-between"
    ),
    pytest.param(
        "MATCH (s:V), (x:V) MATCH (s)-[*1..2]-(x) RETURN DISTINCT x.k", id="into"
    ),
]


@pytest.fixture(scope="module")
def small_db():
    db = GraphDatabase.in_memory()
    with db.transaction() as tx:
        nodes = [tx.create_node(["V"], {"i": index, "k": index % 2}) for index in range(4)]
        for start, end in ((0, 1), (1, 2), (2, 3), (3, 3)):
            tx.create_relationship(nodes[start], nodes[end], "A")
    yield db
    db.close()


@pytest.mark.parametrize("text", ELIGIBLE)
def test_explain_names_the_operator_for_eligible_shapes(small_db, text):
    names = _operators(small_db, text, i=0, k=1)
    assert names.count(OPERATOR) == 1
    assert "VarLengthExpand" not in names
    rows = small_db.execute(text, i=0, k=1).rows()
    with reference_executor():
        assert small_db.execute(text, i=0, k=1).rows() == rows


@pytest.mark.parametrize("text", NOT_ELIGIBLE)
def test_every_other_shape_keeps_the_path_walk(small_db, text):
    names = _operators(small_db, text)
    assert OPERATOR not in names
    assert any(name.startswith("VarLengthExpand") for name in names)


def test_a_path_variable_does_not_parse():
    """The grammar has no path variables, so no plan can bind one."""
    db = GraphDatabase.in_memory()
    try:
        with pytest.raises(QuerySyntaxError):
            db.execute("MATCH p = (s:V)-[*1..2]-(x) RETURN DISTINCT x.k")
    finally:
        db.close()


# -- SIREADs and PROFILE on an ordinary root and on a hub -------------------------


#: Neighbours of the hub, and neighbours each of them has in a shared pool:
#: 80 one-hop and 80 * 60 two-hop paths, past the frontier's 4,096-path
#: budget, so the path walk takes the hub lazily.
HUB_FANOUT = 80
POOL_FANOUT = 60


def _hub_db(**options) -> GraphDatabase:
    db = GraphDatabase.in_memory(**options)
    with db.transaction() as tx:
        hub = tx.create_node(["Person"], {"name": "hub"})
        friends = [
            tx.create_node(["Person"], {"name": f"f{index}"}) for index in range(HUB_FANOUT)
        ]
        pool = [
            tx.create_node(["Person"] if index % 3 else ["Bot"], {"name": f"q{index}"})
            for index in range(100)
        ]
        for index, friend in enumerate(friends):
            tx.create_relationship(hub, friend, "KNOWS")
            for offset in range(POOL_FANOUT):
                tx.create_relationship(
                    friend, pool[(index + offset) % len(pool)], "KNOWS"
                )
    return db


def _friends_of_friends(distinct: bool) -> str:
    return (
        "MATCH (p:Person {name: $name})-[:KNOWS*1..2]-(f:Person) "
        f"WHERE f.name <> $name RETURN {'DISTINCT ' if distinct else ''}f.name"
    )


@pytest.mark.parametrize("name", ["f3", "hub"], ids=["ordinary-root", "hub-root"])
def test_serializable_sireads_equal_the_path_walks(name):
    """Begun read-write under SERIALIZABLE, the set walk registers exactly
    the SIREAD keys and predicates of the same MATCH without ``DISTINCT``,
    which keeps the path walk — lazily, for the hub."""
    db = _hub_db(isolation=IsolationLevel.SERIALIZABLE)
    try:
        registered = []
        for distinct in (True, False):
            text = _friends_of_friends(distinct)
            assert (OPERATOR in _operators(db, text, name=name)) == distinct
            with db.transaction() as tx:
                tx.execute(text, name=name).consume()
                record = tx.engine_transaction.cc_record
                registered.append((set(record.read_keys), set(record.predicates)))
        profiled = db.execute(
            "PROFILE " + _friends_of_friends(False), name=name
        ).render_plan()
        assert ("lazy-roots=1" in profiled) == (name == "hub")
    finally:
        db.close()
    assert registered[0][0] and registered[0][1]
    assert registered[0] == registered[1]


def test_profile_counts_distinct_end_nodes_not_paths():
    db = _hub_db()
    try:
        paths = len(db.execute(_friends_of_friends(False), name="hub").rows())
        answers = db.execute(_friends_of_friends(True), name="hub")
        profiled = db.execute(
            "PROFILE " + _friends_of_friends(True), name="hub"
        )
        (expand,) = [op for op in profiled.plan.root.walk() if op.name == OPERATOR]
        # Every friend and every :Person of the pool, each once.
        persons = HUB_FANOUT + sum(1 for index in range(100) if index % 3)
        assert expand.actual_rows == persons < paths
        assert len(answers.rows()) == persons
        detail = expand.detail()
        assert "levels=2 level-batches=1,1" in detail
        assert f"level-nodes=1,{HUB_FANOUT}" in detail
        assert "endpoints=180" in detail  # the Bots too, but not the hub
        assert "lazy-roots" not in detail
    finally:
        db.close()
