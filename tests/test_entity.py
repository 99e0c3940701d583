"""Unit tests for the logical entity model."""

import pytest
from hypothesis import given, strategies as st

from repro.graph.entity import (
    MAX_ENTITY_ID,
    REL_TAG,
    Direction,
    EntityKind,
    NodeData,
    RelationshipData,
    entity_key_of,
    format_key,
    is_rel_key,
    key_id,
    key_kind,
    node_key,
    rel_key,
)


class TestEntityKey:
    def test_factories(self):
        assert node_key(5) == 5
        assert rel_key(3) == REL_TAG | 3
        assert key_kind(node_key(5)) is EntityKind.NODE
        assert key_kind(rel_key(3)) is EntityKind.RELATIONSHIP
        assert not is_rel_key(node_key(5)) and is_rel_key(rel_key(3))

    def test_hashable_and_ordered(self):
        keys = {node_key(1), node_key(1), rel_key(1)}
        assert len(keys) == 2
        assert key_id(sorted([node_key(2), node_key(1)])[0]) == 1

    def test_mixed_kinds_sort_nodes_first(self):
        # A key class comparing (kind, id) tuples raised TypeError here:
        # EntityKind has no order.
        assert sorted([rel_key(1), node_key(2)]) == [node_key(2), rel_key(1)]
        assert max(node_key(MAX_ENTITY_ID - 1), rel_key(0)) == rel_key(0)

    def test_format_key(self):
        assert format_key(node_key(5)) == "node:5"
        assert format_key(rel_key(3)) == "relationship:3"

    @given(entity_id=st.integers(min_value=0, max_value=MAX_ENTITY_ID - 1))
    def test_round_trip(self, entity_id):
        node, rel = node_key(entity_id), rel_key(entity_id)
        assert (key_kind(node), key_id(node)) == (EntityKind.NODE, entity_id)
        assert (key_kind(rel), key_id(rel)) == (EntityKind.RELATIONSHIP, entity_id)
        assert node != rel
        assert len({node, rel}) == 2


class TestDirection:
    def test_outgoing_matches_start(self):
        assert Direction.OUTGOING.matches(1, 1, 2)
        assert not Direction.OUTGOING.matches(2, 1, 2)

    def test_incoming_matches_end(self):
        assert Direction.INCOMING.matches(2, 1, 2)
        assert not Direction.INCOMING.matches(1, 1, 2)

    def test_both_matches_either(self):
        assert Direction.BOTH.matches(1, 1, 2)
        assert Direction.BOTH.matches(2, 1, 2)
        assert not Direction.BOTH.matches(3, 1, 2)

    def test_reverse(self):
        assert Direction.OUTGOING.reverse() is Direction.INCOMING
        assert Direction.INCOMING.reverse() is Direction.OUTGOING
        assert Direction.BOTH.reverse() is Direction.BOTH


class TestNodeData:
    def test_defaults(self):
        node = NodeData(1)
        assert node.labels == frozenset()
        assert dict(node.properties) == {}
        assert node.key == node_key(1)

    def test_immutable_and_freezes_arrays(self):
        node = NodeData(1, {"Person"}, {"tags": ["a", "b"]})
        assert node.properties["tags"] == ("a", "b")

    def test_with_property_returns_copy(self):
        node = NodeData(1, properties={"a": 1})
        updated = node.with_property("b", 2)
        assert updated.properties["b"] == 2
        assert "b" not in node.properties

    def test_without_property(self):
        node = NodeData(1, properties={"a": 1})
        assert "a" not in node.without_property("a").properties
        assert node.without_property("missing").properties == {"a": 1}

    def test_label_helpers(self):
        node = NodeData(1, {"Person"})
        assert node.with_label("Admin").labels == {"Person", "Admin"}
        assert node.without_label("Person").labels == frozenset()
        assert node.without_label("Missing").labels == {"Person"}

    def test_with_properties_replaces_map(self):
        node = NodeData(1, properties={"a": 1})
        assert dict(node.with_properties({"b": 2}).properties) == {"b": 2}


class TestRelationshipData:
    def test_key_and_endpoints(self):
        rel = RelationshipData(7, "KNOWS", 1, 2)
        assert rel.key == rel_key(7)
        assert rel.endpoints() == (1, 2)

    def test_other_node(self):
        rel = RelationshipData(7, "KNOWS", 1, 2)
        assert rel.other_node(1) == 2
        assert rel.other_node(2) == 1
        with pytest.raises(ValueError):
            rel.other_node(9)

    def test_other_node_self_loop(self):
        rel = RelationshipData(7, "SELF", 3, 3)
        assert rel.other_node(3) == 3

    def test_touches(self):
        rel = RelationshipData(7, "KNOWS", 1, 2)
        assert rel.touches(1) and rel.touches(2)
        assert not rel.touches(3)

    def test_property_helpers(self):
        rel = RelationshipData(7, "KNOWS", 1, 2, {"since": 2010})
        assert rel.with_property("weight", 1.5).properties["weight"] == 1.5
        assert "since" not in rel.without_property("since").properties


class TestEntityKeyOf:
    def test_dispatch(self):
        assert entity_key_of(NodeData(1)) == node_key(1)
        assert entity_key_of(RelationshipData(2, "T", 0, 1)) == rel_key(2)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            entity_key_of("not an entity")
