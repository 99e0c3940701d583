"""A commit's predicate footprint against the reference predicate semantics.

The SSI tracker decides phantoms with set algebra: a change from ``old`` to
``new`` moves an entity into or out of exactly
``predicates_of(old) ^ predicates_of(new)``, and a reader's predicate meets
the commit iff it is in that set.  These tests check the set against
:func:`harness.predicates.predicate_matches`, one predicate kind at a time,
over every predicate of a small domain — small on purpose, so old and new
states collide on labels, types, endpoints and values.  The value domain
mixes numbers that compare equal across types (``1``/``1.0``/``True``,
``0.0``/``-0.0``) and arrays given as lists or tuples.  NaN is left out: it
is unequal to itself, so no lookup can ask for it.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cc_policy import predicates_of
from repro.graph.entity import NodeData, RelationshipData
from repro.graph.properties import hashable_value

from harness.predicates import predicate_matches

LABELS = ("A", "B", "C")
PROPERTY_KEYS = ("k", "j")
TYPES = ("T", "U")
NODE_IDS = (1, 2, 3)
VALUES = (
    1, 1.0, True, 0, 0.0, -0.0, False, 2, "1", "a",
    [1, 2], (1, 2), [1.0, 2.0], (True, 2), [], ("a",),
)

#: Every predicate over the domain, of every kind the read path registers.
PREDICATES = (
    [("all_nodes",), ("all_rels",)]
    + [("label", label) for label in LABELS]
    + [("rel_type", rel_type) for rel_type in TYPES]
    + [("adjacency", node_id) for node_id in NODE_IDS]
    + [
        (kind, key, hashable_value(value))
        for kind in ("node_prop", "rel_prop")
        for key in PROPERTY_KEYS
        for value in VALUES
    ]
)

properties = st.dictionaries(
    st.sampled_from(PROPERTY_KEYS), st.sampled_from(VALUES), max_size=2
)
nodes = st.builds(
    NodeData,
    node_id=st.just(1),
    labels=st.frozensets(st.sampled_from(LABELS)),
    properties=properties,
)
relationships = st.builds(
    RelationshipData,
    rel_id=st.just(1),
    rel_type=st.sampled_from(TYPES),
    start_node=st.sampled_from(NODE_IDS),
    end_node=st.sampled_from(NODE_IDS),
    properties=properties,
)
states = st.one_of(st.none(), nodes, relationships)


def _assert_footprint_matches_reference(old, new):
    moved = predicates_of(old) ^ predicates_of(new)
    for predicate in PREDICATES:
        expected = predicate_matches(predicate, old) != predicate_matches(predicate, new)
        assert (predicate in moved) == expected, (predicate, old, new)


@settings(max_examples=400)
@given(old=states, new=states)
@example(old=NodeData(1, labels={"A"}), new=NodeData(1, labels={"A", "B"}))
@example(old=NodeData(1, labels={"A", "B"}), new=NodeData(1, labels={"B"}))
@example(old=NodeData(1, properties={"k": 1}), new=NodeData(1, properties={"k": True}))
@example(old=NodeData(1, properties={"k": 1}), new=NodeData(1, properties={"k": 1.0}))
@example(old=NodeData(1, properties={"k": 0.0}), new=NodeData(1, properties={"k": -0.0}))
@example(
    old=NodeData(1, properties={"k": [1, 2]}), new=NodeData(1, properties={"k": (1, 2)})
)
@example(
    old=RelationshipData(1, "T", 2, 2, {"k": [1.0, 2.0]}),
    new=RelationshipData(1, "T", 2, 3, {"k": (True, 2)}),
)
@example(old=RelationshipData(1, "T", 3, 3), new=None)
@example(old=None, new=NodeData(1, labels={"C"}, properties={"j": "a"}))
def test_footprint_is_the_reference_membership_change(old, new):
    _assert_footprint_matches_reference(old, new)


def test_self_loop_is_one_adjacency_member():
    loop = RelationshipData(1, "T", 2, 2)
    assert ("adjacency", 2) in predicates_of(loop)
    # Moving one end off the loop keeps node 2 adjacent: nothing moves there.
    moved = predicates_of(loop) ^ predicates_of(RelationshipData(1, "T", 2, 3))
    assert moved == {("adjacency", 3)}


def test_a_change_inside_every_predicate_moves_nothing():
    """An update that changes no label, type, endpoint or property value
    (up to equality) leaves every result set as it was."""
    old = NodeData(1, labels={"A"}, properties={"k": 1, "j": [1, 2]})
    new = NodeData(1, labels={"A"}, properties={"k": 1.0, "j": (1, 2)})
    assert predicates_of(old) ^ predicates_of(new) == frozenset()
