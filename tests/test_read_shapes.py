"""Every read shape agrees with a dict model over an open write set.

Point reads, batch reads, whole-store scans and index seeks all overlay the
transaction's own writes on one committed read.  For a small committed graph
plus an uncommitted write set that creates, updates and deletes nodes and
relationships, each shape must return exactly the model's state, under every
isolation level.  Under SERIALIZABLE the registered reads are checked too: a
scan registers its predicate and the committed keys it read, and a read the
write set answers registers nothing.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GraphDatabase, IsolationLevel
from repro.graph.entity import (
    NodeData,
    RelationshipData,
    is_rel_key,
    key_id,
    node_key,
    rel_key,
)

LABELS = ("A", "B")
TYPES = ("R", "S")
VALUES = st.integers(min_value=0, max_value=2)

graphs = st.fixed_dictionaries(
    {
        "nodes": st.lists(st.tuples(st.sampled_from(LABELS), VALUES), min_size=1, max_size=5),
        "rels": st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.sampled_from(TYPES), VALUES),
            max_size=5,
        ),
    }
)

write_ops = st.lists(
    st.one_of(
        st.tuples(st.just("create_node"), st.sampled_from(LABELS), VALUES),
        st.tuples(st.just("update_node"), st.integers(0, 9), VALUES),
        st.tuples(st.just("delete_node"), st.integers(0, 9)),
        st.tuples(
            st.just("create_rel"), st.integers(0, 9), st.integers(0, 9), st.sampled_from(TYPES)
        ),
        st.tuples(st.just("update_rel"), st.integers(0, 9), VALUES),
        st.tuples(st.just("delete_rel"), st.integers(0, 9)),
    ),
    min_size=1,
    max_size=8,
)


def build_graph(db, graph):
    """Commit the generated graph; return the node and relationship models."""
    nodes, rels = {}, {}
    with db.transaction() as tx:
        ids = []
        for label, value in graph["nodes"]:
            node = tx.create_node([label], {"v": value})
            nodes[node.id] = node.data
            ids.append(node.id)
        for start, end, rel_type, value in graph["rels"]:
            rel = tx.create_relationship(
                ids[start % len(ids)], ids[end % len(ids)], rel_type, {"w": value}
            )
            rels[rel.id] = rel.data
    return nodes, rels


def apply_writes(db, txn, ops, nodes, rels):
    """Buffer ``ops`` straight into the engine transaction (no reads), keeping
    the models in step; return the keys written."""
    written = set()

    def pick(model, index):
        live = sorted(key for key, state in model.items() if state is not None)
        return live[index % len(live)] if live else None

    def delete_rel(rel_id):
        txn.delete_relationship(rel_id)
        rels[rel_id] = None
        written.add(rel_key(rel_id))

    for op in ops:
        kind = op[0]
        if kind == "create_node":
            node = NodeData(db.engine.allocate_node_id(), {op[1]}, {"v": op[2]})
            txn.put_node(node, create=True)
            nodes[node.node_id] = node
            written.add(node.key)
        elif kind == "update_node":
            node_id = pick(nodes, op[1])
            if node_id is not None:
                node = nodes[node_id].with_property("v", op[2])
                txn.put_node(node)
                nodes[node_id] = node
                written.add(node.key)
        elif kind == "delete_node":
            node_id = pick(nodes, op[1])
            if node_id is not None:
                for rel_id, rel in list(rels.items()):
                    if rel is not None and rel.touches(node_id):
                        delete_rel(rel_id)
                txn.delete_node(node_id)
                nodes[node_id] = None
                written.add(node_key(node_id))
        elif kind == "create_rel":
            start, end = pick(nodes, op[1]), pick(nodes, op[2])
            if start is not None:
                rel = RelationshipData(
                    db.engine.allocate_relationship_id(), op[3], start, end, {"w": 0}
                )
                txn.put_relationship(rel, create=True)
                rels[rel.rel_id] = rel
                written.add(rel.key)
        elif kind == "update_rel":
            rel_id = pick(rels, op[1])
            if rel_id is not None:
                rel = rels[rel_id].with_property("w", op[2])
                txn.put_relationship(rel)
                rels[rel_id] = rel
                written.add(rel.key)
        else:
            rel_id = pick(rels, op[1])
            if rel_id is not None:
                delete_rel(rel_id)
    return written


def live(model):
    return {entity_id: state for entity_id, state in model.items() if state is not None}


@pytest.mark.parametrize(
    "isolation",
    [IsolationLevel.READ_COMMITTED, IsolationLevel.SNAPSHOT, IsolationLevel.SERIALIZABLE],
    ids=lambda level: level.value,
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(graph=graphs, ops=write_ops)
def test_read_shapes_agree_with_model(isolation, graph, ops):
    db = GraphDatabase.in_memory(isolation=isolation)
    try:
        nodes, rels = build_graph(db, graph)
        committed_node_keys = {node_key(node_id) for node_id in nodes}
        with db.transaction() as tx:
            txn = tx.engine_transaction
            written = apply_writes(db, txn, ops, nodes, rels)
            record = txn.cc_record if isolation is IsolationLevel.SERIALIZABLE else None

            if record is not None:
                # Reads the write set answers register nothing ...
                txn.read_nodes_many(
                    [key_id(key) for key in written if not is_rel_key(key)]
                )
                assert record.read_keys == set() and record.predicates == set()
                # ... and a consumed scan registers its predicate plus exactly
                # the committed keys it read.
                list(txn.iter_nodes())
                assert record.predicates == {("all_nodes",)}
                assert record.read_keys == committed_node_keys - written

            node_ids = sorted(nodes)
            assert [txn.read_node(node_id) for node_id in node_ids] == [
                nodes[node_id] for node_id in node_ids
            ]
            assert txn.read_nodes_many(node_ids) == [nodes[node_id] for node_id in node_ids]
            rel_ids = sorted(rels)
            assert txn.read_relationships_many(rel_ids) == [rels[rel_id] for rel_id in rel_ids]

            scanned = [node.data for node in tx.nodes()]
            assert {node.node_id: node for node in scanned} == live(nodes)
            assert len(scanned) == len(live(nodes))
            scanned_rels = [rel.data for rel in tx.relationships()]
            assert {rel.rel_id: rel for rel in scanned_rels} == live(rels)
            assert len(scanned_rels) == len(live(rels))

            for label in LABELS:
                expected = sorted(
                    node_id for node_id, node in live(nodes).items() if label in node.labels
                )
                assert [node.id for node in tx.find_nodes(label)] == expected
                for value in range(3):
                    seek = [node.id for node in tx.find_nodes(label, "v", value)]
                    assert seek == [
                        node_id for node_id in expected
                        if nodes[node_id].properties["v"] == value
                    ]
            tx.rollback()
    finally:
        db.close()
