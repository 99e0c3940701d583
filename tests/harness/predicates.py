"""Reference semantics of the predicates the SSI tracker registers.

:func:`predicate_matches` spells out, one predicate kind at a time, whether
an entity state belongs to a predicate's result set.  The engine does not
call it: its tracker computes a commit's footprint from
:func:`repro.core.cc_policy.predicates_of`, and the property tests check
that footprint against this reference.
"""

from typing import Optional

from repro.graph.entity import NodeData, RelationshipData
from repro.graph.properties import hashable_value


def predicate_matches(predicate: tuple, state: Optional[object]) -> bool:
    """Whether an entity state is a member of a predicate's result set."""
    if state is None:
        return False
    kind = predicate[0]
    if kind == "label":
        return isinstance(state, NodeData) and predicate[1] in state.labels
    if kind == "node_prop":
        return (
            isinstance(state, NodeData)
            and predicate[1] in state.properties
            and hashable_value(state.properties[predicate[1]]) == predicate[2]
        )
    if kind == "rel_prop":
        return (
            isinstance(state, RelationshipData)
            and predicate[1] in state.properties
            and hashable_value(state.properties[predicate[1]]) == predicate[2]
        )
    if kind == "rel_type":
        return isinstance(state, RelationshipData) and state.rel_type == predicate[1]
    if kind == "all_nodes":
        return isinstance(state, NodeData)
    if kind == "all_rels":
        return isinstance(state, RelationshipData)
    if kind == "adjacency":
        return isinstance(state, RelationshipData) and state.touches(predicate[1])
    raise ValueError(f"unknown predicate kind {kind!r}")
