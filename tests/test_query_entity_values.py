"""Entity values at the statement's edge.

Inside a statement a node or relationship is whatever the executor carries;
what leaves it — a returned column, or an entity inside a returned list — is
an API handle on the calling transaction.  These cases pin what the caller
sees: the handle's type, id, labels, properties and endpoints, read back
through the raw transaction API, and the rows themselves, where entities
compare, deduplicate, group and sort by id.  Every case runs under each
isolation level.
"""

from __future__ import annotations

import pytest

from repro import GraphDatabase, IsolationLevel
from repro.api.transaction import Node, Relationship

LEVELS = [IsolationLevel.SNAPSHOT, IsolationLevel.SERIALIZABLE, IsolationLevel.READ_COMMITTED]


@pytest.fixture(params=LEVELS, ids=lambda level: level.value)
def db(request):
    database = GraphDatabase.in_memory(isolation=request.param)
    with database.transaction() as tx:
        ann = tx.create_node(["Person", "Admin"], {"name": "ann", "age": 41})
        bob = tx.create_node(["Person"], {"name": "bob", "age": 29})
        cy = tx.create_node(["Person"], {"name": "cy", "age": 35, "tags": [1, 2]})
        city = tx.create_node(["City"], {"name": "oslo"})
        tx.create_relationship(ann, bob, "KNOWS", {"since": 2001})
        tx.create_relationship(bob, cy, "KNOWS", {"since": 2005})
        tx.create_relationship(cy, ann, "KNOWS", {"since": 2010})
        for person in (ann, bob, cy):
            tx.create_relationship(person, city, "LIVES_IN")
    yield database
    database.close()


def _node_view(value):
    assert type(value) is Node
    return ("node", value.id, sorted(value.labels), value.properties)


def _rel_view(value):
    assert type(value) is Relationship
    return ("rel", value.id, value.type, value.start_node_id, value.end_node_id,
            value.properties)


def _expected_node(tx, node_id):
    node = tx.get_node(node_id)
    return ("node", node_id, sorted(node.labels), node.properties)


def _expected_rel(tx, rel_id):
    rel = tx.get_relationship(rel_id)
    return ("rel", rel_id, rel.type, rel.start_node_id, rel.end_node_id, rel.properties)


def _ids(tx, label):
    return {node["name"]: node.id for node in tx.find_nodes(label=label)}


def test_return_n_is_a_handle_on_the_calling_transaction(db):
    with db.transaction(read_only=True) as tx:
        rows = tx.execute("MATCH (n:Person) RETURN n ORDER BY n.name").values()
        people = _ids(tx, "Person")
        assert [_node_view(node) for node in rows] == [
            _expected_node(tx, people[name]) for name in ("ann", "bob", "cy")
        ]
        # The handle reads and navigates through the transaction it came from.
        ann = rows[0]
        assert ann.has_label("Admin") and ann["age"] == 41 and ann.get("nope") is None
        assert sorted(rel.type for rel in ann.relationships()) == ["KNOWS", "KNOWS", "LIVES_IN"]
        assert ann.degree() == 3


def test_return_r_and_its_endpoints(db):
    with db.transaction(read_only=True) as tx:
        rows = tx.execute(
            "MATCH (a:Person)-[r:KNOWS]->(b:Person) RETURN r, a, b ORDER BY r.since"
        ).rows()
        assert [row[1]["name"] for row in rows] == ["ann", "bob", "cy"]
        for rel, start, end in rows:
            assert _rel_view(rel) == _expected_rel(tx, rel.id)
            assert rel.start_node() == start and rel.end_node() == end
            assert rel.start_node().id == rel.start_node_id == start.id
            assert rel.end_node().properties == end.properties
            assert rel.other_node(start).id == end.id


def test_collect_and_variable_length_lists_hold_handles(db):
    with db.transaction(read_only=True) as tx:
        people = _ids(tx, "Person")
        collected = tx.execute(
            "MATCH (p:Person)-[:LIVES_IN]->(c:City) RETURN c, collect(p) AS people"
        ).single()
        assert _node_view(collected["c"]) == _expected_node(tx, _ids(tx, "City")["oslo"])
        assert sorted(_node_view(node) for node in collected["people"]) == sorted(
            _expected_node(tx, node_id) for node_id in people.values()
        )
        paths = tx.execute(
            "MATCH (a:Person {name: 'ann'})-[rs:KNOWS*2..2]->(b) RETURN rs, b"
        ).rows()
        assert len(paths) == 1
        rels, end = paths[0]
        assert type(rels) is list and len(rels) == 2
        assert [_rel_view(rel) for rel in rels] == [_expected_rel(tx, rel.id) for rel in rels]
        assert [rel["since"] for rel in rels] == [2001, 2005]
        assert _node_view(end) == _expected_node(tx, people["cy"])


def test_distinct_grouping_and_equality_key_entities_by_id(db):
    with db.transaction(read_only=True) as tx:
        people = _ids(tx, "Person")
        distinct = tx.execute(
            "MATCH (n:Person)-[:KNOWS]-(:Person) RETURN DISTINCT n ORDER BY n.name"
        ).values()
        assert [node.id for node in distinct] == [people[n] for n in ("ann", "bob", "cy")]
        grouped = tx.execute(
            "MATCH (n:Person)-[:KNOWS]-(m) WITH n, count(*) AS degree "
            "RETURN n, degree ORDER BY n.name"
        ).rows()
        assert [(node.id, degree) for node, degree in grouped] == [
            (people["ann"], 2), (people["bob"], 2), (people["cy"], 2)
        ]
        same = tx.execute(
            "MATCH (n:Person), (m:Person) WHERE n = m RETURN n.name, m.name ORDER BY n.name"
        ).rows()
        assert same == [["ann", "ann"], ["bob", "bob"], ["cy", "cy"]]
        different = tx.execute(
            "MATCH (n:Person), (m:Person) WHERE n <> m RETURN count(*)"
        ).value()
        assert different == 6
        found = tx.execute(
            "MATCH (n:Person {name: 'ann'}), (m:Person) WITH n, collect(m) AS ms "
            "RETURN n IN ms, [n] = [n], size(ms)"
        ).single()
        assert found.values() == [True, True, 3]
        # Entities compare by id; a stored array (a tuple) still never
        # equals a list, on either side of ``=`` or ``IN``.
        arrays = tx.execute(
            "MATCH (c:Person {name: 'cy'}) "
            "RETURN [1, 2] = c.tags, c.tags = [1, 2], [1, 2] IN [c.tags], [c, 1] = [c, 1]"
        ).single()
        assert arrays.values() == [False, False, False, True]


def test_order_by_an_entity_sorts_by_id(db):
    with db.transaction(read_only=True) as tx:
        ordered = tx.execute("MATCH (n) RETURN n ORDER BY n").values()
        ids = [node.id for node in ordered]
        assert ids == sorted(ids, key=str)
        assert len(ids) == 4
        rels = tx.execute("MATCH ()-[r:KNOWS]->() RETURN r ORDER BY r DESC").values()
        assert [rel.id for rel in rels] == sorted((rel.id for rel in rels), key=str, reverse=True)


def test_scalar_functions_on_entities(db):
    with db.transaction(read_only=True) as tx:
        people = _ids(tx, "Person")
        row = tx.execute(
            "MATCH (a:Person {name: 'ann'})-[r:KNOWS]->(b) "
            "RETURN id(a), labels(a), type(r), id(r), labels(b), b.tags"
        ).single()
        rel = tx.relationships_of(people["ann"], rel_types=["KNOWS"])
        outgoing = [r for r in rel if r.start_node_id == people["ann"]][0]
        assert row.values() == [
            people["ann"], ["Admin", "Person"], "KNOWS", outgoing.id, ["Person"], None
        ]
        tags = tx.execute("MATCH (c:Person {name: 'cy'}) RETURN c.tags, c").single()
        assert tags[0] == (1, 2) and tags[1]["tags"] == (1, 2)


def test_set_through_one_variable_is_seen_through_another(db):
    with db.transaction() as tx:
        rows = tx.execute(
            "MATCH (a:Person {name: 'bob'}), (b:Person) WHERE b.name = 'bob' "
            "SET a.x = 1 RETURN b.x, a, b"
        ).rows()
        assert len(rows) == 1
        x, a, b = rows[0]
        assert x == 1
        assert a == b and a["x"] == 1 and b.properties == tx.get_node(a.id).properties
        labelled = tx.execute(
            "MATCH (a:Person {name: 'cy'}), (b:Person {name: 'cy'}) "
            "SET a:Star RETURN labels(b), b"
        ).single()
        assert labelled[0] == ["Person", "Star"]
        assert _node_view(labelled[1]) == _expected_node(tx, labelled[1].id)
        created = tx.execute(
            "MATCH (a:Person {name: 'ann'}) CREATE (a)-[r:LIKES {w: 2}]->(n:Pet {k: 1}) "
            "RETURN r, n, a"
        ).single()
        rel, pet, ann = created.values()
        assert _rel_view(rel) == _expected_rel(tx, rel.id)
        assert _node_view(pet) == _expected_node(tx, pet.id)
        assert rel.start_node_id == ann.id and rel.end_node_id == pet.id
    with db.transaction(read_only=True) as tx:
        assert tx.execute("MATCH (p:Person {name: 'bob'}) RETURN p.x").value() == 1
        assert tx.execute("MATCH (:Person)-[r:LIKES]->(:Pet) RETURN r.w").value() == 2
