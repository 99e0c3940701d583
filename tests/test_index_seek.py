"""Conjunctive index seeks: `find_nodes(label, key, value)` and
`find_relationships(rel_type=, key, value)` take their candidates from the
smaller index entry and check both conjuncts on the states they read.

The oracle throughout is a brute-force filter of `tx.nodes()` /
`tx.relationships()` — whatever the isolation level lets the transaction see,
own writes included, the seek must return exactly that.
"""

from __future__ import annotations

import pytest

from repro import GraphDatabase, IsolationLevel
from repro.core.versioned_index import VersionedLabelIndex

LEVELS = [
    IsolationLevel.SNAPSHOT,
    IsolationLevel.SERIALIZABLE,
    IsolationLevel.READ_COMMITTED,
]

# (label, key, value) with the label entry smaller / the property entry smaller.
NODE_SEEKS = {
    "label-smaller": ("Rare", "group", "g"),
    "property-smaller": ("Common", "name", "x"),
}
REL_SEEKS = {
    "type-smaller": ("RARE", "kind", "k"),
    "property-smaller": ("COMMON", "tag", "t"),
}


@pytest.fixture(params=LEVELS, ids=[level.value for level in LEVELS])
def db(request):
    database = GraphDatabase.in_memory(isolation=request.param)
    yield database
    database.close()


def _load(db):
    """20 Common nodes in group g, 3 of them Rare, 2 named x; plus decoys
    matching one conjunct only.  COMMON edges tagged k (3 of 12 tagged t), 3
    RARE edges, one of them kind k."""
    with db.transaction() as tx:
        nodes = []
        for index in range(20):
            labels = ["Common"] + (["Rare"] if index < 3 else [])
            properties = {"group": "g", "name": "x" if index in (1, 7) else f"n{index}"}
            nodes.append(tx.create_node(labels, properties).id)
        nodes.append(tx.create_node(["Rare"], {"group": "other", "name": "x"}).id)
        nodes.append(tx.create_node(["Other"], {"group": "g", "name": "x"}).id)
        rels = []
        for index in range(12):
            properties = {"kind": "k", "tag": "t" if index < 3 else "u"}
            rels.append(
                tx.create_relationship(
                    nodes[index], nodes[index + 1], "COMMON", properties
                ).id
            )
        for index in range(3):
            properties = {"kind": "k" if index == 0 else "j", "tag": "t"}
            rels.append(
                tx.create_relationship(nodes[index], nodes[index + 2], "RARE", properties).id
            )
    return nodes, rels


def _brute_nodes(tx, label, key, value):
    return sorted(
        node.id for node in tx.nodes() if node.has_label(label) and node.get(key) == value
    )


def _brute_rels(tx, rel_type, key, value):
    return sorted(
        rel.id for rel in tx.relationships() if rel.type == rel_type and rel.get(key) == value
    )


def _commit_concurrently(db, nodes, rels, label, key, value, rel_type, rel_key, rel_value):
    """Another transaction moves entities into and out of both conjunctions
    (touching only entities the observed transaction never writes)."""
    with db.transaction() as tx:
        tx.create_node([label], {key: value})
        tx.remove_label(nodes[2], label)
        tx.add_label(nodes[15], label)
        tx.set_node_property(nodes[15], key, value)
        tx.set_node_property(nodes[16], key, "moved-away")
        tx.create_relationship(nodes[18], nodes[19], rel_type, {rel_key: rel_value})
        tx.set_relationship_property(rels[2], rel_key, "moved-away")


# own writes: each takes (tx, nodes, label, key, value)
def _own_none(tx, nodes, label, key, value):
    pass


def _own_add_label(tx, nodes, label, key, value):
    tx.add_label(nodes[21], label)  # carries the property, lacked the label
    tx.add_label(nodes[10], label)


def _own_remove_label(tx, nodes, label, key, value):
    tx.remove_label(nodes[1], label)


def _own_change_property(tx, nodes, label, key, value):
    tx.set_node_property(nodes[0], key, value)
    tx.set_node_property(nodes[1], key, "changed")


def _own_create(tx, nodes, label, key, value):
    tx.create_node([label], {key: value})
    tx.create_node([label], {key: "not-it"})
    tx.create_node(["Unrelated"], {key: value})


def _own_delete(tx, nodes, label, key, value):
    tx.delete_node(nodes[1], detach=True)


OWN_NODE_WRITES = [
    _own_none, _own_add_label, _own_remove_label, _own_change_property,
    _own_create, _own_delete,
]


@pytest.mark.parametrize("concurrent_commit", [False, True], ids=["quiet", "commit-between"])
@pytest.mark.parametrize("own_write", OWN_NODE_WRITES, ids=lambda f: f.__name__[5:])
@pytest.mark.parametrize("side", sorted(NODE_SEEKS))
def test_node_seek_equals_brute_force(db, side, own_write, concurrent_commit):
    nodes, rels = _load(db)
    label, key, value = NODE_SEEKS[side]
    engine = db.engine
    label_smaller = engine.count_nodes_with_label(label) <= engine.count_nodes_with_property(
        key, value
    )
    assert label_smaller == (side == "label-smaller")
    tx = db.begin()
    try:
        before = _brute_nodes(tx, label, key, value)
        assert before  # the conjunction is not vacuous
        if concurrent_commit:
            _commit_concurrently(db, nodes, rels, label, key, value, "COMMON", "tag", "t")
        own_write(tx, nodes, label, key, value)
        expected = _brute_nodes(tx, label, key, value)
        found = tx.find_nodes(label, key, value)
        assert [node.id for node in found] == expected
        assert all(node.has_label(label) and node.get(key) == value for node in found)
        if db.isolation_level is not IsolationLevel.READ_COMMITTED and own_write is _own_none:
            assert expected == before  # the snapshot did not move
    finally:
        tx.rollback()


def _own_rel_none(tx, nodes, rels, rel_type, key, value):
    pass


def _own_rel_change_property(tx, nodes, rels, rel_type, key, value):
    tx.set_relationship_property(rels[0], key, "changed")
    tx.set_relationship_property(rels[13], key, value)


def _own_rel_create(tx, nodes, rels, rel_type, key, value):
    tx.create_relationship(nodes[5], nodes[9], rel_type, {key: value})
    tx.create_relationship(nodes[5], nodes[9], rel_type, {key: "not-it"})
    tx.create_relationship(nodes[5], nodes[9], "UNRELATED", {key: value})


def _own_rel_delete(tx, nodes, rels, rel_type, key, value):
    tx.delete_relationship(rels[0])
    tx.delete_relationship(rels[12])


OWN_REL_WRITES = [_own_rel_none, _own_rel_change_property, _own_rel_create, _own_rel_delete]


@pytest.mark.parametrize("concurrent_commit", [False, True], ids=["quiet", "commit-between"])
@pytest.mark.parametrize("own_write", OWN_REL_WRITES, ids=lambda f: f.__name__[9:])
@pytest.mark.parametrize("side", sorted(REL_SEEKS))
def test_relationship_seek_equals_brute_force(db, side, own_write, concurrent_commit):
    nodes, rels = _load(db)
    rel_type, key, value = REL_SEEKS[side]
    engine = db.engine
    type_smaller = engine.count_relationships_of_type(
        rel_type
    ) <= engine.count_relationships_with_property(key, value)
    assert type_smaller == (side == "type-smaller")
    tx = db.begin()
    try:
        assert _brute_rels(tx, rel_type, key, value)
        if concurrent_commit:
            _commit_concurrently(db, nodes, rels, "Common", "name", "x", rel_type, key, value)
        own_write(tx, nodes, rels, rel_type, key, value)
        expected = _brute_rels(tx, rel_type, key, value)
        found = tx.find_relationships(key, value, rel_type=rel_type)
        assert [rel.id for rel in found] == expected
        assert all(rel.type == rel_type and rel.get(key) == value for rel in found)
    finally:
        tx.rollback()


def test_array_valued_seek_accepts_a_tuple(db):
    with db.transaction() as tx:
        node = tx.create_node(["Tagged"], {"tags": ["a", "b"]})
        tx.create_node(["Tagged"], {"tags": ["a"]})
    with db.begin(read_only=True) as tx:
        assert [n.id for n in tx.find_nodes("Tagged", "tags", ("a", "b"))] == [node.id]
        assert [n.id for n in tx.find_nodes("Tagged", "tags", ["a", "b"])] == [node.id]
        # A pattern's ``=`` compares the stored array (a tuple) with the
        # parameter: a tuple matches, a list does not, seek plan or not.
        for text in ("MATCH (n:Tagged {tags: $tags}) RETURN id(n)",
                     "MATCH (n {tags: $tags}) RETURN id(n)"):
            assert "PropertyIndexSeek" in tx.execute("EXPLAIN " + text, tags=("a",)).render_plan()
            assert tx.execute(text, tags=("a", "b")).values() == [node.id]
            assert tx.execute(text, tags=["a", "b"]).values() == []


class TestSeekTouchesOnlyTheSmallSide:
    """Counts, not clocks: what a conjunctive seek materialises and reads."""

    @pytest.mark.parametrize("level", [IsolationLevel.SNAPSHOT, IsolationLevel.SERIALIZABLE],
                             ids=["snapshot", "serializable"])
    def test_large_label_set_is_never_built(self, monkeypatch, level):
        db = GraphDatabase.in_memory(isolation=level)
        with db.transaction() as tx:
            for index in range(300):
                tx.create_node(["Person"], {"name": f"person-{index}", "city": index % 3})
        label_scans = []
        original = VersionedLabelIndex.visible
        monkeypatch.setattr(
            VersionedLabelIndex,
            "visible",
            lambda self, label, ts: label_scans.append(label) or original(self, label, ts),
        )
        engine = db.engine
        for key, value in (("name", "person-7"), ("city", 1), ("name", "nobody")):
            tx = db.begin()
            read_batches = []
            read_many = tx.engine_transaction.read_nodes_many
            monkeypatch.setattr(
                tx.engine_transaction,
                "read_nodes_many",
                lambda ids, read_many=read_many: read_batches.append(list(ids)) or read_many(ids),
            )
            found = tx.find_nodes("Person", key, value)
            assert [node.get(key) for node in found] == [value] * len(found)
            smaller = min(
                engine.count_nodes_with_label("Person"),
                engine.count_nodes_with_property(key, value),
            )
            assert len(found) == smaller
            assert len(read_batches) == 1 and len(read_batches[0]) <= smaller
            tx.rollback()
        assert label_scans == []
        # The other way round the label entry drives and is the one scanned.
        with db.transaction() as tx:
            tx.create_node(["Mayor"], {"city": 1})
        with db.begin() as tx:
            assert len(tx.find_nodes("Mayor", "city", 1)) == 1
        assert label_scans == ["Mayor"]
        db.close()

    def test_serializable_seek_registers_both_predicates_in_one_visit(self, monkeypatch):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        with db.transaction() as tx:
            tx.create_node(["Person"], {"name": "a"})
            tx.create_relationship(
                tx.create_node(["Person"]), tx.create_node(["Person"]), "KNOWS", {"w": 1}
            )
        tx = db.begin()
        noted = []
        note_reads = tx.engine_transaction._note_reads
        monkeypatch.setattr(
            tx.engine_transaction,
            "_note_reads",
            lambda keys=(), predicates=(): noted.append((len(keys), tuple(predicates)))
            or note_reads(keys, predicates),
        )
        assert len(tx.find_nodes("Person", "name", "a")) == 1
        assert noted == [
            (0, (("label", "Person"), ("node_prop", "name", "a"))),
            (1, ()),  # the SIREAD on the one candidate read
        ]
        del noted[:]
        assert len(tx.find_relationships("w", 1, rel_type="KNOWS")) == 1
        assert noted == [(0, (("rel_type", "KNOWS"), ("rel_prop", "w", 1))), (1, ())]
        tx.rollback()
        db.close()
