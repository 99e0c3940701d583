"""Unit tests for the multi-versioned indexes as the read-committed engine
drives them: each commit tags its changes at the next sequence number,
readers look up at the newest published sequence, and every closed
interval is purged at once because no snapshot can still need it."""

from harness.store import apply

from repro.core.versioned_index import (
    VersionedIndexSet,
    VersionedLabelIndex,
    VersionedPropertyIndex,
    VersionedRelationshipTypeIndex,
)
from repro.graph.entity import NodeData, RelationshipData
from repro.graph.operations import WriteNodeOp, WriteRelationshipOp
from repro.graph.properties import hashable_value
from repro.graph.store_manager import StoreManager


class TestLabelIndex:
    def test_add_get_remove(self):
        index = VersionedLabelIndex()
        index.apply_node_change(None, NodeData(1, {"Person"}), 1)
        index.apply_node_change(None, NodeData(2, {"Person"}), 2)
        assert index.visible("Person", 2) == {1, 2}
        index.apply_node_change(NodeData(1, {"Person"}), None, 3)
        assert index.visible("Person", 3) == {2}
        assert index.count("Person") == 1

    def test_update_applies_diff(self):
        index = VersionedLabelIndex()
        index.apply_node_change(None, NodeData(1, {"A", "B"}), 1)
        index.apply_node_change(NodeData(1, {"A", "B"}), NodeData(1, {"B", "C"}), 2)
        assert index.visible("A", 2) == set()
        assert index.visible("B", 2) == {1}
        assert index.visible("C", 2) == {1}

    def test_remove_node_and_labels_listing(self):
        index = VersionedLabelIndex()
        index.apply_node_change(None, NodeData(1, {"A", "B"}), 1)
        assert sorted(index.current_cardinalities()) == ["A", "B"]
        index.apply_node_change(NodeData(1, {"A", "B"}), None, 2)
        assert index.visible("A", 2) == set()
        assert index.visible("A", 1) == {1}
        assert index.current_cardinalities() == {}

    def test_unknown_label_is_empty(self):
        assert VersionedLabelIndex().visible("Nope", 5) == set()


class TestPropertyIndex:
    def test_add_get(self):
        index = VersionedPropertyIndex()
        index.apply_change(1, {}, {"name": "alice"}, 1)
        assert index.visible("name", "alice", 1) == {1}
        assert index.visible("name", "bob", 1) == set()

    def test_array_values_are_hashable(self):
        index = VersionedPropertyIndex()
        index.apply_change(1, {}, {"tags": ["a", "b"]}, 1)
        assert hashable_value(["a", "b"]) == ("a", "b")
        assert index.visible("tags", ["a", "b"], 1) == {1}
        assert index.visible("tags", ("a", "b"), 1) == {1}

    def test_update_moves_entries(self):
        index = VersionedPropertyIndex()
        index.apply_change(1, {}, {"age": 30}, 1)
        index.apply_change(1, {"age": 30}, {"age": 31, "name": "x"}, 2)
        assert index.visible("age", 30, 2) == set()
        assert index.visible("age", 31, 2) == {1}
        assert index.visible("name", "x", 2) == {1}

    def test_get_by_key(self):
        index = VersionedPropertyIndex()
        index.apply_change(1, {}, {"age": 30}, 1)
        index.apply_change(2, {}, {"age": 31}, 2)
        by_key = {
            value: count
            for (key, value), count in index.current_cardinalities().items()
            if key == "age"
        }
        assert by_key == {30: 1, 31: 1}

    def test_remove_node(self):
        index = VersionedPropertyIndex()
        index.apply_change(1, {}, {"age": 30}, 1)
        index.apply_change(1, {"age": 30}, {}, 2)
        assert index.visible("age", 30, 2) == set()
        assert index.count("age", 30) == 0


class TestRelationshipIndexes:
    def test_property_index(self):
        index = VersionedPropertyIndex()
        index.apply_change(4, {}, {"since": 2016}, 1)
        assert index.visible("since", 2016, 1) == {4}
        index.apply_change(4, {"since": 2016}, {"since": 2017}, 2)
        assert index.visible("since", 2017, 2) == {4}
        index.apply_change(4, {"since": 2017}, {}, 3)
        assert index.visible("since", 2017, 3) == set()

    def test_type_index(self):
        index = VersionedRelationshipTypeIndex()
        knows_1 = RelationshipData(1, "KNOWS", 0, 1)
        index.apply_relationship_change(None, knows_1, 1)
        index.apply_relationship_change(None, RelationshipData(2, "KNOWS", 0, 2), 1)
        index.apply_relationship_change(None, RelationshipData(3, "LIKES", 0, 3), 1)
        assert index.visible("KNOWS", 1) == {1, 2}
        assert set(index.current_cardinalities()) == {"KNOWS", "LIKES"}
        assert index.count("KNOWS") == 2
        index.apply_relationship_change(knows_1, None, 2)
        assert index.visible("KNOWS", 2) == {2}


def _publish(indexes, seq, old, new):
    """Apply one committed change at ``seq`` and reclaim closed intervals,
    the order the read-committed engine's commit follows."""
    indexes.apply_change((old or new).key, old, new, seq)
    indexes.purge(seq)


class TestIndexManager:
    def test_node_lifecycle(self):
        indexes = VersionedIndexSet()
        created = NodeData(1, {"Person"}, {"name": "alice", "age": 30})
        _publish(indexes, 1, None, created)
        assert indexes.node_labels.visible("Person", 1) == {1}
        assert indexes.node_properties.visible("age", 30, 1) == {1}

        updated = NodeData(1, {"Admin"}, {"name": "alice", "age": 31})
        _publish(indexes, 2, created, updated)
        assert indexes.node_labels.visible("Person", 2) == set()
        assert indexes.node_labels.visible("Admin", 2) == {1}
        assert indexes.node_properties.visible("age", 31, 2) == {1}

        _publish(indexes, 3, updated, None)
        assert indexes.node_labels.visible("Admin", 3) == set()
        assert indexes.node_properties.visible("age", 31, 3) == set()

    def test_relationship_lifecycle(self):
        indexes = VersionedIndexSet()
        created = RelationshipData(5, "KNOWS", 1, 2, {"since": 2016})
        _publish(indexes, 1, None, created)
        assert indexes.relationship_properties.visible("since", 2016, 1) == {5}
        assert indexes.relationship_types.visible("KNOWS", 1) == {5}
        assert indexes.adjacency.candidate_rel_ids(1) == [5]
        # The delete closes the adjacency entries and the same commit's
        # purge drops them: no separate per-relationship purge.
        _publish(indexes, 2, created, None)
        assert indexes.relationship_properties.visible("since", 2016, 2) == set()
        assert indexes.relationship_types.visible("KNOWS", 2) == set()
        assert indexes.adjacency.candidate_rel_ids(1) == []
        assert indexes.adjacency.entry_count() == 0

    def test_rebuild_from_store(self):
        store = StoreManager(None)
        # Queued, not applied: the bootstrap's scan catches the store up.
        apply(
            store,
            WriteNodeOp(NodeData(0, {"Person"}, {"name": "a"})),
            WriteNodeOp(NodeData(1, {"Person"}, {"name": "b"})),
            WriteRelationshipOp(RelationshipData(0, "KNOWS", 0, 1, {"w": 1})),
            catch_up=False,
        )
        indexes = VersionedIndexSet()
        newest = indexes.bootstrap(store)
        assert newest == 0
        assert indexes.node_labels.visible("Person", newest) == {0, 1}
        assert indexes.relationship_types.visible("KNOWS", newest) == {0}
        assert indexes.relationship_properties.visible("w", 1, newest) == {0}
        store.close()

    def test_clear(self):
        indexes = VersionedIndexSet()
        node = NodeData(1, {"Person"})
        _publish(indexes, 1, None, node)
        _publish(indexes, 2, node, None)
        assert indexes.node_labels.visible("Person", 2) == set()
        assert indexes.interval_count() == 0
