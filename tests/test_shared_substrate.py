"""Both isolation engines over one substrate.

The read-committed engine reads the MVCC engine's versioned indexes at its
newest commit and shares its transaction skeleton and persisted-state
reader; these tests pin down that the two engines agree on everything but
the control layer.
"""

from __future__ import annotations

import ast
import inspect
import pathlib
import random
import sys
import threading

from repro import GraphDatabase, IsolationLevel
from repro.core.si_manager import SnapshotIsolationEngine
from repro.graph.entity import Direction
from repro.graph.properties import COMMIT_TS_PROPERTY
from repro.locking.rc_manager import ReadCommittedEngine

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _keyword_only(function):
    parameters = inspect.signature(function).parameters.values()
    return [p.name for p in parameters if p.kind is inspect.Parameter.KEYWORD_ONLY]


class TestReopenUnderReadCommitted:
    def test_si_written_store_reads_clean_under_read_committed(self, tmp_path):
        db = GraphDatabase.open(str(tmp_path), isolation="snapshot")
        with db.transaction() as tx:
            node_id = tx.create_node(["Person"], {"name": "a"}).id
        db.close()

        db = GraphDatabase.open(str(tmp_path), isolation="read_committed")
        try:
            with db.transaction(read_only=True) as tx:
                assert [node.properties for node in tx.nodes()] == [{"name": "a"}]
                assert tx.get_node(node_id).properties == {"name": "a"}
                assert [node.id for node in tx.find_nodes("Person")] == [node_id]
                assert [node.id for node in tx.find_nodes(key="name", value="a")] == [
                    node_id
                ]
            rows = db.execute("MATCH (p:Person) RETURN p").values()
            assert [node.properties for node in rows] == [{"name": "a"}]
            assert db.engine.count_nodes_with_property(COMMIT_TS_PROPERTY, 1) == 0
        finally:
            db.close()


class _Mirror:
    """One database plus the map from logical uid to its own entity ids
    (read committed recycles ids, snapshot isolation does not)."""

    def __init__(self, isolation: IsolationLevel) -> None:
        self.db = GraphDatabase.in_memory(isolation=isolation)
        self.nodes = {}
        self.rels = {}

    def apply(self, op) -> None:
        kind, *args = op
        with self.db.transaction() as tx:
            if kind == "create_node":
                uid, labels, value = args
                self.nodes[uid] = tx.create_node(labels, {"uid": uid, "v": value}).id
            elif kind == "add_label":
                tx.add_label(self.nodes[args[0]], args[1])
            elif kind == "remove_label":
                tx.remove_label(self.nodes[args[0]], args[1])
            elif kind == "set_value":
                tx.set_node_property(self.nodes[args[0]], "v", args[1])
            elif kind == "remove_value":
                tx.remove_node_property(self.nodes[args[0]], "v")
            elif kind == "create_rel":
                rid, start, end, rel_type, weight = args
                self.rels[rid] = tx.create_relationship(
                    self.nodes[start], self.nodes[end], rel_type, {"rid": rid, "w": weight}
                ).id
            elif kind == "delete_rel":
                tx.delete_relationship(self.rels.pop(args[0]))
            elif kind == "delete_node":
                tx.delete_node(self.nodes.pop(args[0]), detach=True)
                for rid in args[1]:
                    self.rels.pop(rid)

    def observe(self, uids):
        with self.db.transaction(read_only=True) as tx:
            node_uids = lambda nodes: sorted(node.get("uid") for node in nodes)  # noqa: E731
            rel_rids = lambda rels: sorted(rel.get("rid") for rel in rels)  # noqa: E731
            view = {
                "labels": {label: node_uids(tx.find_nodes(label)) for label in "AB"},
                "values": {v: node_uids(tx.find_nodes(key="v", value=v)) for v in range(3)},
                "seeks": {
                    (label, v): node_uids(tx.find_nodes(label, "v", v))
                    for label in "AB" for v in range(3)
                },
                "types": {t: rel_rids(tx.find_relationships(rel_type=t)) for t in "RS"},
                "weights": {w: rel_rids(tx.find_relationships("w", w)) for w in range(2)},
                "adjacency": {
                    uid: (
                        rel_rids(tx.relationships_of(self.nodes[uid])),
                        rel_rids(tx.relationships_of(self.nodes[uid], Direction.OUTGOING)),
                    )
                    for uid in uids
                },
            }
        view["cardinalities"] = self.db.statistics()["engine"]["cardinalities"]
        view["epoch"] = self.db.engine.cardinality_epoch()
        return view


def _random_script(seed: int, steps: int):
    """Creates, relabels, property changes, relationship creates and deletes,
    and detach-deletes of nodes, over a model of what is live."""
    rng = random.Random(seed)
    nodes, rels = {}, {}  # uid -> labels ; rid -> (start uid, end uid)
    next_id = iter(range(1, 10 * steps))
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.25 or len(nodes) < 3:
            uid = next(next_id)
            nodes[uid] = set(rng.sample("AB", rng.randint(0, 2)))
            yield ("create_node", uid, sorted(nodes[uid]), rng.randrange(3))
        elif roll < 0.4:
            uid = rng.choice(sorted(nodes))
            label = rng.choice("AB")
            if label in nodes[uid]:
                nodes[uid].discard(label)
                yield ("remove_label", uid, label)
            else:
                nodes[uid].add(label)
                yield ("add_label", uid, label)
        elif roll < 0.55:
            uid = rng.choice(sorted(nodes))
            if rng.random() < 0.2:
                yield ("remove_value", uid)
            else:
                yield ("set_value", uid, rng.randrange(3))
        elif roll < 0.75:
            rid = next(next_id)
            start, end = rng.choice(sorted(nodes)), rng.choice(sorted(nodes))
            rels[rid] = (start, end)
            yield ("create_rel", rid, start, end, rng.choice("RS"), rng.randrange(2))
        elif roll < 0.88 and rels:
            rid = rng.choice(sorted(rels))
            del rels[rid]
            yield ("delete_rel", rid)
        else:
            uid = rng.choice(sorted(nodes))
            del nodes[uid]
            attached = sorted(rid for rid, ends in rels.items() if uid in ends)
            for rid in attached:
                del rels[rid]
            yield ("delete_node", uid, attached)


class TestIndexDifferential:
    def test_read_committed_and_snapshot_indexes_agree_after_every_commit(self):
        rc = _Mirror(IsolationLevel.READ_COMMITTED)
        si = _Mirror(IsolationLevel.SNAPSHOT)
        try:
            recycled = False
            for op in _random_script(seed=27, steps=400):
                rc.apply(op)
                si.apply(op)
                recycled |= set(rc.nodes.values()) != set(si.nodes.values())
                uids = sorted(rc.nodes)
                assert rc.observe(uids) == si.observe(uids), op
            assert recycled, "the script never recycled an id under read committed"
            assert rc.db.engine.cardinality_epoch() > 0
        finally:
            rc.db.close()
            si.db.close()


class TestReadCommittedHoldsNoDeadIndexState:
    def test_every_closed_interval_and_dead_adjacency_entry_is_reclaimed(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.READ_COMMITTED)
        try:
            rng = random.Random(9)
            with db.transaction() as tx:
                ids = [
                    tx.create_node(["Person"], {"name": f"p{i}", "age": i}).id
                    for i in range(12)
                ]
                for start, end in zip(ids, ids[1:] + ids[:1]):
                    tx.create_relationship(start, end, "KNOWS", {"since": start})
            for step in range(120):
                with db.transaction() as tx:
                    node_id = rng.choice(ids)
                    if step % 3 == 0:
                        tx.set_node_property(node_id, "age", rng.randrange(5))
                    elif step % 3 == 1 and rng.random() < 0.5:
                        tx.add_label(node_id, "Busy")
                    elif step % 3 == 1:
                        tx.remove_label(node_id, "Busy")
                    else:
                        for rel in tx.relationships_of(node_id):
                            tx.delete_relationship(rel)
                        other = rng.choice(ids)
                        tx.create_relationship(node_id, other, "KNOWS", {"since": step})
                if step % 40 == 39:
                    victim = ids.pop(rng.randrange(len(ids)))
                    with db.transaction() as tx:
                        tx.delete_node(victim, detach=True)
            with db.transaction(read_only=True) as tx:
                nodes = list(tx.nodes())
                rels = list(tx.relationships())
            open_memberships = sum(
                len(node.labels) + len(node.properties) for node in nodes
            ) + sum(1 + len(rel.properties) for rel in rels)
            indexes = db.engine.indexes
            assert indexes.interval_count() == open_memberships
            assert indexes.adjacency.entry_count() == sum(
                len({rel.start_node_id, rel.end_node_id}) for rel in rels
            )
        finally:
            db.close()


class TestReadCommittedIndexUnderConcurrency:
    def test_concurrent_commits_and_lookups_leave_index_equal_to_scan(self):
        """Writers move nodes between labels and values while readers look
        them up; each commit publishes and purges under the commit lock, so
        no index change may be lost however the threads interleave."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.READ_COMMITTED)
        with db.transaction() as tx:
            ids = [tx.create_node(["A"], {"v": 0}).id for _ in range(16)]
        errors = []

        def writer(seed):
            rng = random.Random(seed)
            for _ in range(60):
                node_id = rng.choice(ids)
                with db.transaction() as tx:
                    node = tx.get_node(node_id)
                    label, other = ("A", "B") if node.has_label("A") else ("B", "A")
                    tx.remove_label(node_id, label)
                    tx.add_label(node_id, other)
                    tx.set_node_property(node_id, "v", rng.randrange(3))

        def reader():
            for _ in range(150):
                with db.transaction(read_only=True) as tx:
                    found = {node.id for node in tx.find_nodes("A")}
                    found |= {node.id for node in tx.find_nodes("B")}
                    if not found <= set(ids):
                        errors.append(found - set(ids))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(seed,)) for seed in range(4)]
            threads += [threading.Thread(target=reader) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert errors == []
            with db.transaction(read_only=True) as tx:
                nodes = list(tx.nodes())
                for label in "AB":
                    assert {node.id for node in tx.find_nodes(label)} == {
                        node.id for node in nodes if node.has_label(label)
                    }
                for value in range(3):
                    assert {node.id for node in tx.find_nodes(key="v", value=value)} == {
                        node.id for node in nodes if node.get("v") == value
                    }
            assert db.engine.indexes.interval_count() == sum(
                len(node.labels) + len(node.properties) for node in nodes
            )
        finally:
            db.close()


class TestConstructorCensus:
    def test_read_committed_engine_keywords(self):
        assert _keyword_only(ReadCommittedEngine.__init__) == [
            "lock_manager",
            "query_cache_size",
            "query_batch_size",
            "obs",
        ]

    def test_snapshot_isolation_engine_keywords(self):
        assert _keyword_only(SnapshotIsolationEngine.__init__) == [
            "lock_manager",
            "conflict_policy",
            "isolation",
            "version_cache_capacity",
            "gc_every_n_commits",
            "commit_stripes",
            "query_cache_size",
            "query_batch_size",
            "obs",
        ]


def _imported_modules(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


class TestLayout:
    def test_nothing_imports_an_unversioned_index_package(self):
        offenders = [
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            if any(
                module == "repro.index" or module.startswith("repro.index.")
                for module in _imported_modules(path)
            )
        ]
        assert offenders == []
        assert not (SRC / "index").exists()

    def test_locking_does_not_import_the_mvcc_policies(self):
        offenders = [
            str(path.relative_to(SRC))
            for path in (SRC / "locking").rglob("*.py")
            if any(
                module.startswith("repro.core.cc_policy")
                for module in _imported_modules(path)
            )
        ]
        assert offenders == []
