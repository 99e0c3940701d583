"""Unit tests for the unversioned indexes and the index manager."""

from repro.graph.entity import NodeData, RelationshipData
from repro.graph.store_manager import StoreManager
from repro.index import (
    IndexManager,
    LabelIndex,
    PropertyIndex,
    RelationshipPropertyIndex,
    RelationshipTypeIndex,
)


class TestLabelIndex:
    def test_add_get_remove(self):
        index = LabelIndex()
        index.add("Person", 1)
        index.add("Person", 2)
        assert index.get("Person") == {1, 2}
        index.remove("Person", 1)
        assert index.get("Person") == {2}
        assert index.count("Person") == 1

    def test_update_applies_diff(self):
        index = LabelIndex()
        index.update(1, frozenset(), frozenset({"A", "B"}))
        index.update(1, frozenset({"A", "B"}), frozenset({"B", "C"}))
        assert index.get("A") == set()
        assert index.get("B") == {1}
        assert index.get("C") == {1}

    def test_remove_node_and_labels_listing(self):
        index = LabelIndex()
        index.add("A", 1)
        index.add("B", 1)
        index.remove_node(1, ["A", "B"])
        assert index.get("A") == set()
        assert index.labels() == ["A", "B"]

    def test_unknown_label_is_empty(self):
        assert LabelIndex().get("Nope") == set()


class TestPropertyIndex:
    def test_add_get(self):
        index = PropertyIndex()
        index.add("name", "alice", 1)
        assert index.get("name", "alice") == {1}
        assert index.get("name", "bob") == set()

    def test_array_values_are_hashable(self):
        index = PropertyIndex()
        index.add("tags", ["a", "b"], 1)
        assert index.get("tags", ["a", "b"]) == {1}
        assert index.get("tags", ("a", "b")) == {1}

    def test_update_moves_entries(self):
        index = PropertyIndex()
        index.update(1, {}, {"age": 30})
        index.update(1, {"age": 30}, {"age": 31, "name": "x"})
        assert index.get("age", 30) == set()
        assert index.get("age", 31) == {1}
        assert index.get("name", "x") == {1}

    def test_get_by_key(self):
        index = PropertyIndex()
        index.add("age", 30, 1)
        index.add("age", 31, 2)
        assert index.get_by_key("age") == {1, 2}

    def test_remove_node(self):
        index = PropertyIndex()
        index.add("age", 30, 1)
        index.remove_node(1, {"age": 30})
        assert index.get("age", 30) == set()


class TestRelationshipIndexes:
    def test_property_index(self):
        index = RelationshipPropertyIndex()
        index.add("since", 2016, 4)
        assert index.get("since", 2016) == {4}
        index.update(4, {"since": 2016}, {"since": 2017})
        assert index.get("since", 2017) == {4}
        index.remove_relationship(4, {"since": 2017})
        assert index.get("since", 2017) == set()

    def test_type_index(self):
        index = RelationshipTypeIndex()
        index.add("KNOWS", 1)
        index.add("KNOWS", 2)
        index.add("LIKES", 3)
        assert index.get("KNOWS") == {1, 2}
        assert index.types() == {"KNOWS", "LIKES"}
        assert index.count("KNOWS") == 2
        index.remove("KNOWS", 1)
        assert index.get("KNOWS") == {2}


class TestIndexManager:
    def test_node_lifecycle(self):
        manager = IndexManager()
        created = NodeData(1, {"Person"}, {"name": "alice", "age": 30})
        manager.apply_node_change(None, created)
        assert manager.nodes_with_label("Person") == {1}
        assert manager.nodes_with_property("age", 30) == {1}

        updated = NodeData(1, {"Admin"}, {"name": "alice", "age": 31})
        manager.apply_node_change(created, updated)
        assert manager.nodes_with_label("Person") == set()
        assert manager.nodes_with_label("Admin") == {1}
        assert manager.nodes_with_property("age", 31) == {1}

        manager.apply_node_change(updated, None)
        assert manager.nodes_with_label("Admin") == set()
        assert manager.nodes_with_property("age", 31) == set()

    def test_relationship_lifecycle(self):
        manager = IndexManager()
        created = RelationshipData(5, "KNOWS", 1, 2, {"since": 2016})
        manager.apply_relationship_change(None, created)
        assert manager.relationships_with_property("since", 2016) == {5}
        assert manager.relationships_of_type("KNOWS") == {5}
        manager.apply_relationship_change(created, None)
        assert manager.relationships_with_property("since", 2016) == set()
        assert manager.relationships_of_type("KNOWS") == set()

    def test_rebuild_from_store(self):
        store = StoreManager(None)
        store.write_node(NodeData(0, {"Person"}, {"name": "a"}))
        store.write_node(NodeData(1, {"Person"}, {"name": "b"}))
        store.write_relationship(RelationshipData(0, "KNOWS", 0, 1, {"w": 1}))
        manager = IndexManager()
        manager.rebuild(store)
        assert manager.nodes_with_label("Person") == {0, 1}
        assert manager.relationships_of_type("KNOWS") == {0}
        assert manager.relationships_with_property("w", 1) == {0}
        store.close()

    def test_clear(self):
        manager = IndexManager()
        manager.apply_node_change(None, NodeData(1, {"Person"}))
        manager.clear()
        assert manager.nodes_with_label("Person") == set()
