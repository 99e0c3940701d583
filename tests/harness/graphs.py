"""Deterministic graph generators.

Every generator takes an explicit ``seed`` and produces the same graph for the
same arguments, so experiment runs are repeatable.  Graphs are created through
the public transaction API (never by poking the store directly), which keeps
the generated data valid under either engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import GraphDatabase

#: First names used by the social-network generator (cycled with a suffix).
_FIRST_NAMES = [
    "alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi",
    "ivan", "judy", "mallory", "niaj", "olivia", "peggy", "rupert", "sybil",
    "trent", "victor", "walter", "yolanda",
]

_CITIES = ["madrid", "lisbon", "paris", "berlin", "rome", "vienna", "prague", "dublin"]


@dataclass
class GeneratedGraph:
    """Handles to a generated graph: ids grouped by role."""

    node_ids: List[int] = field(default_factory=list)
    relationship_ids: List[int] = field(default_factory=list)
    groups: Dict[str, List[int]] = field(default_factory=dict)

    def group(self, name: str) -> List[int]:
        """Node ids registered under ``name`` (empty list if unknown)."""
        return self.groups.get(name, [])

    @property
    def node_count(self) -> int:
        """Number of generated nodes."""
        return len(self.node_ids)

    @property
    def relationship_count(self) -> int:
        """Number of generated relationships."""
        return len(self.relationship_ids)


def build_social_graph(
    db: GraphDatabase,
    *,
    people: int = 200,
    avg_friends: int = 4,
    cities: int = 5,
    seed: int = 7,
    batch_size: int = 200,
) -> GeneratedGraph:
    """A social network: ``Person`` nodes with ``KNOWS`` edges plus ``City`` homes.

    Friendships are sampled uniformly at random (self-loops and duplicates are
    skipped) for an expected degree of ``avg_friends``; every person lives in
    one city via a ``LIVES_IN`` relationship.
    """
    rng = random.Random(seed)
    graph = GeneratedGraph()
    city_ids: List[int] = []

    with db.transaction() as tx:
        for city_index in range(max(1, cities)):
            name = _CITIES[city_index % len(_CITIES)] + (
                "" if city_index < len(_CITIES) else f"-{city_index}"
            )
            node = tx.create_node(["City"], {"name": name, "population": rng.randint(10_000, 3_000_000)})
            city_ids.append(node.id)
    graph.groups["cities"] = city_ids
    graph.node_ids.extend(city_ids)

    person_ids: List[int] = []
    for start in range(0, people, batch_size):
        with db.transaction() as tx:
            for index in range(start, min(start + batch_size, people)):
                name = f"{_FIRST_NAMES[index % len(_FIRST_NAMES)]}-{index}"
                node = tx.create_node(
                    ["Person"],
                    {
                        "name": name,
                        "age": rng.randint(18, 90),
                        "score": 0,
                        "active": rng.random() < 0.8,
                    },
                )
                person_ids.append(node.id)
                tx.create_relationship(node.id, rng.choice(city_ids), "LIVES_IN")
    graph.groups["people"] = person_ids
    graph.node_ids.extend(person_ids)

    friendships = people * max(0, avg_friends) // 2
    created: set = set()
    for start in range(0, friendships, batch_size):
        with db.transaction() as tx:
            for _ in range(start, min(start + batch_size, friendships)):
                left, right = rng.sample(person_ids, 2) if len(person_ids) >= 2 else (None, None)
                if left is None or (left, right) in created or (right, left) in created:
                    continue
                created.add((left, right))
                relationship = tx.create_relationship(
                    left, right, "KNOWS", {"since": rng.randint(1990, 2016)}
                )
                graph.relationship_ids.append(relationship.id)
    return graph


def build_chain_graph(
    db: GraphDatabase, *, length: int = 100, label: str = "Step", seed: int = 7
) -> GeneratedGraph:
    """A simple chain ``(n0)-[:NEXT]->(n1)-[:NEXT]->...`` for traversal tests."""
    rng = random.Random(seed)
    graph = GeneratedGraph()
    with db.transaction() as tx:
        previous = None
        for index in range(length):
            node = tx.create_node([label], {"position": index, "weight": rng.random()})
            graph.node_ids.append(node.id)
            if previous is not None:
                relationship = tx.create_relationship(previous, node.id, "NEXT")
                graph.relationship_ids.append(relationship.id)
            previous = node.id
    graph.groups["chain"] = list(graph.node_ids)
    return graph


def build_grid_graph(
    db: GraphDatabase, *, width: int = 10, height: int = 10
) -> GeneratedGraph:
    """A ``width`` x ``height`` grid with ``EAST`` and ``SOUTH`` relationships."""
    graph = GeneratedGraph()
    positions: Dict[Tuple[int, int], int] = {}
    with db.transaction() as tx:
        for row in range(height):
            for column in range(width):
                node = tx.create_node(
                    ["Cell"], {"row": row, "column": column, "key": row * width + column}
                )
                positions[(row, column)] = node.id
                graph.node_ids.append(node.id)
        for (row, column), node_id in positions.items():
            if column + 1 < width:
                rel = tx.create_relationship(node_id, positions[(row, column + 1)], "EAST")
                graph.relationship_ids.append(rel.id)
            if row + 1 < height:
                rel = tx.create_relationship(node_id, positions[(row + 1, column)], "SOUTH")
                graph.relationship_ids.append(rel.id)
    graph.groups["cells"] = list(graph.node_ids)
    return graph


def build_account_graph(
    db: GraphDatabase,
    *,
    accounts: int = 50,
    initial_balance: int = 1_000,
    owners: Optional[int] = None,
    seed: int = 7,
) -> GeneratedGraph:
    """Bank-style accounts used by the conflict and write-skew experiments.

    ``Account`` nodes hold a ``balance`` property; each account is owned by a
    ``Customer`` node via an ``OWNS`` relationship (two accounts per customer
    by default, which is what the write-skew scenario needs).
    """
    rng = random.Random(seed)
    graph = GeneratedGraph()
    owner_count = owners if owners is not None else max(1, accounts // 2)
    with db.transaction() as tx:
        owner_ids = [
            tx.create_node(["Customer"], {"name": f"customer-{index}"}).id
            for index in range(owner_count)
        ]
        account_ids = []
        for index in range(accounts):
            account = tx.create_node(
                ["Account"],
                {"number": index, "balance": initial_balance, "currency": "EUR"},
            )
            account_ids.append(account.id)
            owner = owner_ids[index % owner_count]
            rel = tx.create_relationship(owner, account.id, "OWNS")
            graph.relationship_ids.append(rel.id)
        rng.shuffle(account_ids)
    graph.groups["accounts"] = account_ids
    graph.groups["customers"] = owner_ids
    graph.node_ids.extend(owner_ids)
    graph.node_ids.extend(account_ids)
    return graph
