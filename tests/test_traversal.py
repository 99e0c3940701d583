"""Tests for the traversal framework."""

import pytest

from repro.api.traversal import (
    Order,
    TraversalDescription,
    Uniqueness,
    reachable_node_ids,
    shortest_path,
    two_step_neighbourhood,
)
from repro.graph.entity import Direction

from harness.graphs import build_chain_graph, build_grid_graph


@pytest.fixture
def chain(si_db):
    return build_chain_graph(si_db, length=6)


class TestTraversalDescription:
    def test_breadth_first_visits_by_depth(self, si_db, chain):
        with si_db.transaction(read_only=True) as tx:
            paths = list(TraversalDescription().traverse(tx, chain.node_ids[0]))
            depths = [path.length for path in paths]
            assert depths == sorted(depths)
            assert {path.end_node.id for path in paths} == set(chain.node_ids)

    def test_depth_first_order(self, si_db, chain):
        with si_db.transaction(read_only=True) as tx:
            description = TraversalDescription().depth_first()
            assert description.order is Order.DEPTH_FIRST
            paths = list(description.traverse(tx, chain.node_ids[0]))
            assert {path.end_node.id for path in paths} == set(chain.node_ids)

    def test_max_depth_limits_expansion(self, si_db, chain):
        with si_db.transaction(read_only=True) as tx:
            paths = list(TraversalDescription().limit_depth(2).traverse(tx, chain.node_ids[0]))
            assert max(path.length for path in paths) == 2
            assert len(paths) == 3

    def test_min_depth_filters_results(self, si_db, chain):
        with si_db.transaction(read_only=True) as tx:
            paths = list(TraversalDescription().from_depth(2).traverse(tx, chain.node_ids[0]))
            assert all(path.length >= 2 for path in paths)

    def test_direction_and_type_filters(self, si_db, chain):
        with si_db.transaction(read_only=True) as tx:
            start = chain.node_ids[3]
            outgoing = TraversalDescription().relationships("NEXT", direction=Direction.OUTGOING)
            reached = {path.end_node.id for path in outgoing.traverse(tx, start)}
            assert reached == set(chain.node_ids[3:])
            wrong_type = TraversalDescription().relationships("MISSING")
            assert [p.end_node.id for p in wrong_type.traverse(tx, start)] == [start]

    def test_evaluator_controls_inclusion_and_expansion(self, si_db, chain):
        with si_db.transaction(read_only=True) as tx:
            def only_even_positions(path):
                include = path.end_node.get("position", 0) % 2 == 0
                return include, path.length < 3
            description = TraversalDescription().evaluate_with(only_even_positions)
            positions = [path.end_node["position"] for path in description.traverse(tx, chain.node_ids[0])]
            assert positions == [0, 2]

    def test_uniqueness_none_still_terminates(self, si_db, chain):
        with si_db.transaction(read_only=True) as tx:
            description = TraversalDescription().unique(Uniqueness.NONE).limit_depth(3)
            paths = list(description.traverse(tx, chain.node_ids[0]))
            assert paths  # terminates and yields something

    def test_nodes_helper(self, si_db, chain):
        with si_db.transaction(read_only=True) as tx:
            nodes = list(TraversalDescription().nodes(tx, chain.node_ids[0]))
            assert {node.id for node in nodes} == set(chain.node_ids)

    def test_path_properties(self, si_db, chain):
        with si_db.transaction(read_only=True) as tx:
            longest = max(TraversalDescription().traverse(tx, chain.node_ids[0]), key=len)
            assert longest.start_node.id == chain.node_ids[0]
            assert longest.end_node.id == chain.node_ids[-1]
            assert longest.length == 5
            assert longest.node_ids() == chain.node_ids


class TestExpansionOrderAndBatching:
    """``tx.expand`` reads all neighbours of one expansion in one batched
    engine visit; the pairs it yields, and their order, are unchanged."""

    @pytest.fixture
    def star(self, si_db):
        with si_db.transaction() as tx:
            hub = tx.create_node(["Hub"]).id
            spokes = [tx.create_node(["Spoke"], {"n": n}).id for n in range(4)]
            rels = [
                tx.create_relationship(hub, spokes[0], "OUT").id,
                tx.create_relationship(spokes[1], hub, "IN").id,
                tx.create_relationship(hub, spokes[2], "OUT").id,
                tx.create_relationship(hub, spokes[0], "OUT").id,  # parallel edge
                tx.create_relationship(spokes[3], spokes[2], "OUT").id,
            ]
        return hub, spokes, rels

    def test_expand_yields_pairs_in_relationship_id_order(self, si_db, star):
        hub, spokes, rels = star
        with si_db.transaction(read_only=True) as tx:
            pairs = [(rel.id, node.id) for rel, node in tx.expand(hub)]
            assert pairs == [
                (rels[0], spokes[0]), (rels[1], spokes[1]),
                (rels[2], spokes[2]), (rels[3], spokes[0]),
            ]
            outgoing = [
                (rel.id, node.id)
                for rel, node in tx.expand(hub, Direction.OUTGOING, ["OUT"])
            ]
            assert outgoing == [
                (rels[0], spokes[0]), (rels[2], spokes[2]), (rels[3], spokes[0]),
            ]

    def test_expand_reads_neighbours_as_one_batch(self, si_db, star, monkeypatch):
        hub, spokes, _rels = star
        with si_db.transaction(read_only=True) as tx:
            etxn = tx.engine_transaction
            batches, singles = [], []
            read_nodes_many, read_node = etxn.read_nodes_many, etxn.read_node
            monkeypatch.setattr(
                etxn, "read_nodes_many",
                lambda ids: batches.append(list(ids)) or read_nodes_many(ids),
            )
            monkeypatch.setattr(
                etxn, "read_node",
                lambda node_id: singles.append(node_id) or read_node(node_id),
            )
            assert len(list(tx.expand(hub))) == 4
            assert batches == [[spokes[0], spokes[1], spokes[2]]] and singles == []

    def test_depth_first_traversal_order_is_pinned(self, si_db, star):
        hub, _spokes, rels = star
        with si_db.transaction(read_only=True) as tx:
            description = (
                TraversalDescription().depth_first().unique(Uniqueness.NONE).limit_depth(2)
            )
            walked = [
                [rel.id for rel in path.relationships]
                for path in description.traverse(tx, hub)
            ]
            # LIFO frontier: the last-expanded relationship is walked first,
            # and a path never steps straight back over its last one.
            assert walked == [
                [],
                [rels[3]], [rels[3], rels[0]],
                [rels[2]], [rels[2], rels[4]],
                [rels[1]],
                [rels[0]], [rels[0], rels[3]],
            ]


class TestDerivedAlgorithms:
    def test_reachable_node_ids_with_depth(self, si_db, chain):
        with si_db.transaction(read_only=True) as tx:
            assert reachable_node_ids(tx, chain.node_ids[0], max_depth=2) == set(chain.node_ids[:3])
            assert reachable_node_ids(tx, chain.node_ids[0]) == set(chain.node_ids)

    def test_shortest_path_on_grid(self, si_db):
        grid = build_grid_graph(si_db, width=4, height=4)
        with si_db.transaction(read_only=True) as tx:
            corner_a = grid.node_ids[0]
            corner_b = grid.node_ids[-1]
            path = shortest_path(tx, corner_a, corner_b)
            assert path is not None
            assert path.length == 6  # manhattan distance on a 4x4 grid
            assert shortest_path(tx, corner_a, corner_a).length == 0

    def test_shortest_path_missing(self, si_db):
        with si_db.transaction() as tx:
            a = tx.create_node().id
            b = tx.create_node().id
        with si_db.transaction(read_only=True) as tx:
            assert shortest_path(tx, a, b) is None

    def test_two_step_neighbourhood(self, si_db):
        with si_db.transaction() as tx:
            hub = tx.create_node(["Person"], {"name": "hub"})
            friends = [tx.create_node(["Person"]) for _ in range(3)]
            fofs = [tx.create_node(["Person"]) for _ in range(2)]
            for friend in friends:
                tx.create_relationship(hub, friend, "KNOWS")
            tx.create_relationship(friends[0], fofs[0], "KNOWS")
            tx.create_relationship(friends[1], fofs[1], "KNOWS")
            hub_id = hub.id
            friend_ids = {f.id for f in friends}
            fof_ids = {f.id for f in fofs}
        with si_db.transaction(read_only=True) as tx:
            first, second = two_step_neighbourhood(tx, hub_id, rel_types=["KNOWS"])
            assert first == friend_ids
            assert second == fof_ids
