"""Traversal framework.

The paper's introduction motivates graph databases by their ability to run a
whole traversal inside the query engine instead of ping-ponging between
client and server.  This module provides that capability over the transaction
API: breadth-first and depth-first expansion with configurable relationship
filters, depth limits, uniqueness and user evaluators, plus a few common
derived algorithms (shortest path, reachable set).

Everything here runs inside one transaction, so under snapshot isolation a
multi-step traversal observes one consistent snapshot — the exact property
whose absence under read committed (a traversed path disappearing mid-
algorithm) the paper's introduction calls out.

Performance note: every expansion funnels through ``tx.expand``, which
reads the adjacency list and *all* its neighbours as two batched engine
visits (``tx.expand_many``), and repeat visits are answered by the engine's
shared, stamp-validated adjacency and payload entries.  A traversal that
touches the same neighbourhood from several directions —
``friends_of_friends``, cycle detection, shortest-path frontiers — resolves
each version chain once, not once per visit, unless a concurrent commit
invalidates the entry in between (the read rule then gives the same answer).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Iterator, List, Optional, Sequence, Set, Tuple

from repro.api.transaction import Node, NodeLike, Relationship, Transaction, _node_id
from repro.graph.entity import Direction


class Uniqueness(enum.Enum):
    """How often a traversal may revisit the same node."""

    NODE_GLOBAL = "node_global"
    RELATIONSHIP_GLOBAL = "relationship_global"
    NONE = "none"


class Order(enum.Enum):
    """Expansion order of the traversal frontier."""

    BREADTH_FIRST = "breadth_first"
    DEPTH_FIRST = "depth_first"


@dataclass(frozen=True)
class Path:
    """An alternating sequence of nodes and relationships from a start node."""

    nodes: Tuple[Node, ...]
    relationships: Tuple[Relationship, ...] = ()

    @property
    def start_node(self) -> Node:
        """First node of the path."""
        return self.nodes[0]

    @property
    def end_node(self) -> Node:
        """Last node of the path."""
        return self.nodes[-1]

    @property
    def length(self) -> int:
        """Number of relationships in the path."""
        return len(self.relationships)

    def extend(self, relationship: Relationship, node: Node) -> "Path":
        """A new path with one more hop appended."""
        return Path(self.nodes + (node,), self.relationships + (relationship,))

    def node_ids(self) -> List[int]:
        """Ids of the nodes along the path, in order."""
        return [node.id for node in self.nodes]

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Path(" + " -> ".join(str(node.id) for node in self.nodes) + ")"


#: An evaluator decides for each visited path whether to include it in the
#: results and whether to continue expanding past it.
Evaluator = Callable[[Path], Tuple[bool, bool]]


def include_all(path: Path) -> Tuple[bool, bool]:
    """Default evaluator: include every path and keep expanding."""
    return True, True


@dataclass
class TraversalDescription:
    """Builder describing a traversal; immutable-ish (builders return copies)."""

    order: Order = Order.BREADTH_FIRST
    direction: Direction = Direction.BOTH
    rel_types: Optional[Tuple[str, ...]] = None
    max_depth: Optional[int] = None
    min_depth: int = 0
    uniqueness: Uniqueness = Uniqueness.NODE_GLOBAL
    evaluator: Evaluator = include_all

    # -- builder methods -----------------------------------------------------------

    def breadth_first(self) -> "TraversalDescription":
        """Expand the shallowest frontier first."""
        return self._copy(order=Order.BREADTH_FIRST)

    def depth_first(self) -> "TraversalDescription":
        """Expand the deepest frontier first."""
        return self._copy(order=Order.DEPTH_FIRST)

    def relationships(
        self, *rel_types: str, direction: Direction = Direction.BOTH
    ) -> "TraversalDescription":
        """Restrict expansion to the given relationship types and direction."""
        return self._copy(rel_types=tuple(rel_types) or None, direction=direction)

    def with_direction(self, direction: Direction) -> "TraversalDescription":
        """Restrict expansion to one direction."""
        return self._copy(direction=direction)

    def limit_depth(self, max_depth: int) -> "TraversalDescription":
        """Stop expanding past ``max_depth`` hops."""
        return self._copy(max_depth=max_depth)

    def from_depth(self, min_depth: int) -> "TraversalDescription":
        """Only yield paths of at least ``min_depth`` hops."""
        return self._copy(min_depth=min_depth)

    def unique(self, uniqueness: Uniqueness) -> "TraversalDescription":
        """Set the revisit policy."""
        return self._copy(uniqueness=uniqueness)

    def evaluate_with(self, evaluator: Evaluator) -> "TraversalDescription":
        """Attach a custom evaluator (include?, continue?) per path."""
        return self._copy(evaluator=evaluator)

    def _copy(self, **overrides) -> "TraversalDescription":
        values = {
            "order": self.order,
            "direction": self.direction,
            "rel_types": self.rel_types,
            "max_depth": self.max_depth,
            "min_depth": self.min_depth,
            "uniqueness": self.uniqueness,
            "evaluator": self.evaluator,
        }
        values.update(overrides)
        return TraversalDescription(**values)

    # -- execution -------------------------------------------------------------------

    def traverse(self, tx: Transaction, start: NodeLike) -> Iterator[Path]:
        """Run the traversal from ``start`` inside ``tx``, yielding paths."""
        start_node = tx.get_node(_node_id(start))
        initial = Path((start_node,))
        frontier: Deque[Path] = deque([initial])
        visited_nodes: Set[int] = {start_node.id}
        visited_rels: Set[int] = set()
        while frontier:
            if self.order is Order.BREADTH_FIRST:
                path = frontier.popleft()
            else:
                path = frontier.pop()
            include, expand = self.evaluator(path)
            if include and path.length >= self.min_depth:
                yield path
            if not expand:
                continue
            if self.max_depth is not None and path.length >= self.max_depth:
                continue
            for relationship, neighbour in tx.expand(
                path.end_node, self.direction, self.rel_types
            ):
                if self.uniqueness is Uniqueness.NODE_GLOBAL:
                    if neighbour.id in visited_nodes:
                        continue
                    visited_nodes.add(neighbour.id)
                elif self.uniqueness is Uniqueness.RELATIONSHIP_GLOBAL:
                    if relationship.id in visited_rels:
                        continue
                    visited_rels.add(relationship.id)
                else:
                    # No global uniqueness, but never walk straight back along
                    # the relationship we just arrived by.
                    if path.relationships and relationship.id == path.relationships[-1].id:
                        continue
                frontier.append(path.extend(relationship, neighbour))

    def nodes(self, tx: Transaction, start: NodeLike) -> Iterator[Node]:
        """Convenience: yield the end node of every traversed path."""
        for path in self.traverse(tx, start):
            yield path.end_node


# ---------------------------------------------------------------------------
# Derived algorithms
# ---------------------------------------------------------------------------

def reachable_node_ids(
    tx: Transaction,
    start: NodeLike,
    *,
    max_depth: Optional[int] = None,
    rel_types: Optional[Sequence[str]] = None,
    direction: Direction = Direction.BOTH,
) -> Set[int]:
    """Ids of every node reachable from ``start`` within ``max_depth`` hops."""
    description = TraversalDescription(
        direction=direction,
        rel_types=tuple(rel_types) if rel_types else None,
        max_depth=max_depth,
    )
    return {path.end_node.id for path in description.traverse(tx, start)}


def shortest_path(
    tx: Transaction,
    start: NodeLike,
    end: NodeLike,
    *,
    max_depth: Optional[int] = None,
    rel_types: Optional[Sequence[str]] = None,
    direction: Direction = Direction.BOTH,
) -> Optional[Path]:
    """Breadth-first shortest path between two nodes, or ``None``."""
    end_id = _node_id(end)
    description = TraversalDescription(
        order=Order.BREADTH_FIRST,
        direction=direction,
        rel_types=tuple(rel_types) if rel_types else None,
        max_depth=max_depth,
    )
    for path in description.traverse(tx, start):
        if path.end_node.id == end_id:
            return path
    return None


def two_step_neighbourhood(
    tx: Transaction,
    start: NodeLike,
    *,
    rel_types: Optional[Sequence[str]] = None,
) -> Tuple[Set[int], Set[int]]:
    """The paper's motivating two-step algorithm: friends, then friends-of-friends.

    Returns ``(direct_neighbour_ids, second_hop_ids)``; the second set excludes
    the start node and the direct neighbours.  Running this inside one snapshot
    transaction guarantees both steps observe the same graph.
    """
    start_id = _node_id(start)
    first_hop = {node.id for node in tx.neighbours(start_id, Direction.BOTH, rel_types)}
    # The whole second step is one frontier expansion: two batched reads.
    second_hop = {
        second.id
        for pairs in tx.expand_many(sorted(first_hop), Direction.BOTH, rel_types)
        for _relationship, second in pairs
    }
    second_hop -= first_hop
    second_hop.discard(start_id)
    return first_hop, second_hop
