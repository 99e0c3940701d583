"""Tests for the deterministic graph builders in ``harness.graphs``."""

from harness.graphs import (
    build_account_graph,
    build_chain_graph,
    build_grid_graph,
    build_social_graph,
)


class TestGenerators:
    def test_social_graph_shape(self, si_db):
        graph = build_social_graph(si_db, people=30, avg_friends=2, cities=3, seed=1)
        assert len(graph.group("people")) == 30
        assert len(graph.group("cities")) == 3
        with si_db.transaction(read_only=True) as tx:
            assert len(tx.find_nodes(label="Person")) == 30
            assert len(tx.find_nodes(label="City")) == 3
            # every person lives somewhere
            somebody = graph.group("people")[0]
            assert tx.relationships_of(somebody, rel_types=["LIVES_IN"])

    def test_social_graph_is_deterministic(self, si_db, rc_db):
        first = build_social_graph(si_db, people=20, avg_friends=3, seed=5)
        second = build_social_graph(rc_db, people=20, avg_friends=3, seed=5)
        assert first.relationship_count == second.relationship_count
        assert first.node_count == second.node_count

    def test_chain_graph(self, si_db):
        graph = build_chain_graph(si_db, length=10)
        assert graph.node_count == 10
        assert graph.relationship_count == 9

    def test_grid_graph(self, si_db):
        graph = build_grid_graph(si_db, width=3, height=4)
        assert graph.node_count == 12
        # EAST: 2 per row * 4 rows, SOUTH: 3 per column * 3 rows
        assert graph.relationship_count == 2 * 4 + 3 * 3

    def test_account_graph(self, si_db):
        graph = build_account_graph(si_db, accounts=10, initial_balance=500, seed=2)
        assert len(graph.group("accounts")) == 10
        with si_db.transaction(read_only=True) as tx:
            balances = [tx.get_node(a)["balance"] for a in graph.group("accounts")]
            assert balances == [500] * 10
            owners = tx.find_nodes(label="Customer")
            assert owners


class TestOperationsOnGeneratedGraphs:
    """Single-threaded reads and writes over the builders' graphs behave the
    same under both engines."""

    def test_label_scan_sees_every_person(self, any_db):
        graph = build_social_graph(any_db, people=25, avg_friends=2, cities=2, seed=3)
        with any_db.transaction(read_only=True) as tx:
            found = sorted(node.id for node in tx.find_nodes(label="Person"))
        assert found == sorted(graph.group("people"))

    def test_neighbourhood_walk_reaches_every_friend(self, any_db):
        graph = build_social_graph(any_db, people=20, avg_friends=3, cities=2, seed=4)
        start = graph.group("people")[0]
        with any_db.transaction(read_only=True) as tx:
            friends = {
                rel.other_node_id(start)
                for rel in tx.relationships_of(start, rel_types=["KNOWS"])
            }
            reached = {node.id for node in tx.neighbours(start, rel_types=["KNOWS"])}
        assert friends
        assert reached == friends

    def test_transfers_preserve_the_total_balance(self, any_db):
        graph = build_account_graph(any_db, accounts=6, initial_balance=100, seed=5)
        accounts = graph.group("accounts")
        for source, target in zip(accounts, accounts[1:] + accounts[:1]):
            with any_db.transaction() as tx:
                from_balance = tx.get_node(source)["balance"]
                to_balance = tx.get_node(target)["balance"]
                tx.set_node_property(source, "balance", from_balance - 30)
                tx.set_node_property(target, "balance", to_balance + 30)
        with any_db.transaction(read_only=True) as tx:
            balances = [tx.get_node(account)["balance"] for account in accounts]
        assert balances == [100] * 6
