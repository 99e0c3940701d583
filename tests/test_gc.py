"""Unit tests for the threaded-list garbage collector and the vacuum baseline."""

import pytest

from repro import GraphDatabase, IsolationLevel
from repro.core.gc import GarbageCollector, ThreadedVersionList
from repro.core.si_manager import SnapshotIsolationEngine
from repro.core.timestamps import TimestampOracle
from repro.core.vacuum import VacuumCollector
from repro.core.version import Version
from repro.core.version_store import VersionStore
from repro.core.versioned_index import VersionedIndexSet
from repro.graph.entity import NodeData, key_id, node_key
from repro.graph.store_manager import StoreManager

KEY = node_key(1)


def version(commit_ts, payload="x", key=KEY):
    data = None if payload is None else NodeData(key_id(key), properties={"v": payload})
    return Version(key, data, commit_ts)


class TestThreadedVersionList:
    def test_append_and_len(self):
        gc_list = ThreadedVersionList()
        v1, v2 = version(1), version(2)
        gc_list.append(v1, reclaim_ts=3)
        gc_list.append(v2, reclaim_ts=5)
        assert len(gc_list) == 2
        assert gc_list.peek_oldest() is v1

    def test_double_append_ignored(self):
        gc_list = ThreadedVersionList()
        v1 = version(1)
        gc_list.append(v1, 3)
        gc_list.append(v1, 9)
        assert len(gc_list) == 1
        assert v1.reclaim_ts == 3

    def test_pop_reclaimable_stops_at_watermark(self):
        gc_list = ThreadedVersionList()
        versions = [version(ts) for ts in (1, 2, 3)]
        for v, reclaim in zip(versions, (2, 4, 6)):
            gc_list.append(v, reclaim)
        popped = gc_list.pop_reclaimable(watermark=4)
        assert popped == versions[:2]
        assert len(gc_list) == 1
        assert not versions[0].in_gc_list

    def test_remove_middle(self):
        gc_list = ThreadedVersionList()
        versions = [version(ts) for ts in (1, 2, 3)]
        for v in versions:
            gc_list.append(v, v.commit_ts)
        gc_list.remove(versions[1])
        assert len(gc_list) == 2
        assert gc_list.pop_reclaimable(10) == [versions[0], versions[2]]

    def test_remove_untracked_is_noop(self):
        gc_list = ThreadedVersionList()
        gc_list.remove(version(1))
        assert len(gc_list) == 0

    def test_out_of_order_append_inserts_in_sorted_position(self):
        # Sharded commits can finish installing out of timestamp order; a
        # newer version appended first must not block older reclaimable
        # versions queued behind it.
        gc_list = ThreadedVersionList()
        newer, older, newest = version(6), version(5), version(7)
        gc_list.append(newer, reclaim_ts=6)
        gc_list.append(older, reclaim_ts=5)
        gc_list.append(newest, reclaim_ts=7)
        assert gc_list.peek_oldest() is older
        assert gc_list.pop_reclaimable(watermark=5) == [older]
        assert gc_list.pop_reclaimable(watermark=10) == [newer, newest]
        assert len(gc_list) == 0


class TestGarbageCollectorUnit:
    def make(self):
        store = VersionStore()
        oracle = TimestampOracle()
        indexes = VersionedIndexSet()
        collector = GarbageCollector(store, oracle, indexes)
        return store, oracle, indexes, collector

    def test_superseded_version_collected_when_watermark_passes(self):
        store, oracle, _indexes, collector = self.make()
        chain = store.ensure_chain(KEY)
        old = version(1, "old")
        new = version(3, "new")
        chain.add_committed(old)
        chain.add_committed(new)
        collector.version_superseded(old, superseding_commit_ts=3)

        # An active transaction still reading at ts 2 pins the old version.
        reader_txn, _ = oracle.begin_transaction()  # start_ts == 0
        stats = collector.collect()
        assert stats.versions_collected == 0
        assert len(chain) == 2

        oracle.retire_transaction(reader_txn)
        oracle.advance_to(3)
        stats = collector.collect()
        assert stats.versions_collected == 1
        assert len(chain) == 1
        assert chain.newest() is new

    def test_tombstone_purges_whole_entity(self):
        store, oracle, indexes, collector = self.make()
        node = NodeData(key_id(KEY), {"Person"})
        indexes.apply_node_change(None, node, commit_ts=1)
        chain = store.ensure_chain(KEY)
        base = Version(KEY, node, 1)
        tomb = Version(KEY, None, 4)
        chain.add_committed(base)
        chain.add_committed(tomb)
        # The delete closes the node's index intervals at the tombstone's
        # timestamp; the pass that reclaims the tombstone pops them.
        indexes.apply_node_change(node, None, commit_ts=4)
        collector.version_superseded(base, superseding_commit_ts=4)
        collector.tombstone_installed(tomb)

        oracle.advance_to(4)
        stats = collector.collect()
        assert stats.versions_collected == 2
        assert stats.entities_purged == 1
        assert stats.index_intervals_examined == stats.index_intervals_purged == 1
        assert store.get_chain(KEY) is None
        assert indexes.node_labels.visible("Person", 10) == set()
        assert indexes.interval_count() == 0

    def test_collect_accumulates_totals(self):
        _store, oracle, _indexes, collector = self.make()
        oracle.advance_to(1)
        collector.collect()
        collector.collect()
        assert collector.collections_run == 2
        assert collector.total_stats.watermark == 1


class TestGcThroughEngine:
    def test_long_reader_pins_versions_then_gc_reclaims(self):
        store = StoreManager(None, reuse_entity_ids=False)
        engine = SnapshotIsolationEngine(store)
        setup = engine.begin()
        node_id = engine.allocate_node_id()
        setup.put_node(NodeData(node_id, {"Item"}, {"value": 0}), create=True)
        setup.commit()

        long_reader = engine.begin(read_only=True)
        for value in range(1, 6):
            writer = engine.begin()
            current = writer.read_node(node_id)
            writer.put_node(current.with_property("value", value))
            writer.commit()

        # The long reader pins its snapshot: nothing can be reclaimed yet.
        assert engine.run_gc().versions_collected == 0
        assert engine.versions.get_chain(node_key(node_id)).version_count() == 6
        assert long_reader.read_node(node_id).properties["value"] == 0

        long_reader.rollback()
        stats = engine.run_gc()
        assert stats.versions_collected == 5
        assert engine.versions.get_chain(node_key(node_id)).version_count() == 1
        store.close()


class TestVacuumCollector:
    def test_vacuum_scans_everything_and_collects_the_same_garbage(self):
        store = StoreManager(None, reuse_entity_ids=False)
        engine = SnapshotIsolationEngine(store)
        setup = engine.begin()
        node_ids = []
        for index in range(10):
            node_id = engine.allocate_node_id()
            node_ids.append(node_id)
            setup.put_node(NodeData(node_id, {"Item"}, {"value": 0}), create=True)
        setup.commit()
        for value in range(1, 4):
            writer = engine.begin()
            for node_id in node_ids:
                current = writer.read_node(node_id)
                writer.put_node(current.with_property("value", value))
            writer.commit()

        vacuum = engine.create_vacuum_collector()
        stats = vacuum.collect()
        # Full scan: every chain and every persistent record was examined.
        assert stats.chains_scanned >= 10
        assert stats.store_records_scanned >= 10
        assert stats.versions_collected == 30
        assert engine.versions.total_versions() == 10
        assert vacuum.collections_run == 1
        store.close()

    def test_vacuum_purges_deleted_entities(self):
        store = StoreManager(None, reuse_entity_ids=False)
        engine = SnapshotIsolationEngine(store)
        txn = engine.begin()
        node_id = engine.allocate_node_id()
        txn.put_node(NodeData(node_id, {"Temp"}), create=True)
        txn.commit()
        deleter = engine.begin()
        deleter.delete_node(node_id)
        deleter.commit()

        vacuum = VacuumCollector(engine.versions, engine.oracle, engine.indexes, store)
        stats = vacuum.collect()
        assert stats.versions_collected == 2
        assert stats.entities_purged == 1
        assert engine.versions.get_chain(node_key(node_id)) is None
        store.close()


class TestIndexReclamationIsChangeProportional:
    """Counts, not clocks: a pass examines the intervals that closed since the
    last one, whatever the indexes hold."""

    @pytest.mark.parametrize("persons", [200, 20_000])
    def test_pass_after_k_updates_examines_at_most_4k_intervals(self, persons):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
        with db.transaction() as tx:
            ids = [
                tx.create_node(["Person"], {"name": f"p{index}", "score": 0}).id
                for index in range(persons)
            ]
        db.run_gc()
        held = db.engine.indexes.interval_count()
        assert held == 3 * persons
        updates = 40
        for step in range(updates):
            with db.transaction() as tx:
                node = tx.find_nodes("Person", "name", f"p{step * 3}")[0]
                tx.set_node_property(node, "score", step + 1)
                if step % 4 == 0:
                    tx.add_label(node, "Hot")
                    tx.set_node_property(node, "name", f"renamed-{step}")
            if step % 10 == 9:
                with db.transaction() as tx:
                    tx.delete_node(ids[-1 - step])
        stats = db.run_gc()
        assert 0 < stats.index_intervals_examined <= 4 * updates
        assert stats.index_intervals_examined == stats.index_intervals_purged
        assert stats.as_dict()["index_intervals_examined"] == stats.index_intervals_examined
        # Nothing closed since: the next pass examines nothing at all.
        assert db.run_gc().index_intervals_examined == 0
        assert db.engine.indexes.interval_count() == held + updates // 4 - 3 * (updates // 10)
        db.close()


class TestDeletedEntitiesLeaveTheIndexes:
    """With the per-entity index sweep gone, a delete + a pass at a watermark
    past the tombstone still leaves no interval of the entity behind."""

    @staticmethod
    def _delete_half(db):
        with db.transaction() as tx:
            nodes = [
                tx.create_node(["Person", "Temp"], {"name": f"p{index}", "city": index % 2})
                for index in range(6)
            ]
            rels = [
                tx.create_relationship(nodes[index], nodes[index + 1], "KNOWS", {"w": index})
                for index in range(5)
            ]
        with db.transaction() as tx:
            tx.remove_label(nodes[0], "Temp")  # closed before the delete
        reader = db.begin(read_only=True)  # pins the pre-delete snapshot
        with db.transaction() as tx:
            for node in nodes[:3]:
                tx.delete_node(node, detach=True)
        return reader, [node.id for node in nodes], [rel.id for rel in rels]

    @staticmethod
    def _entities_held(index):
        return {
            entity_id
            for shard in index._shards
            for entry in shard.entries.values()
            for entity_id in entry._intervals
        }

    @pytest.mark.parametrize("collector", ["threaded", "vacuum"])
    def test_no_interval_of_a_deleted_entity_survives(self, collector):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
        reader, nodes, rels = self._delete_half(db)
        collect = (
            db.run_gc if collector == "threaded" else db.create_vacuum_collector().collect
        )
        indexes = db.engine.indexes
        # The pinned reader still finds the deleted entities through the indexes.
        collect()
        assert [n.id for n in reader.find_nodes("Temp", "city", 0)] == [nodes[2], nodes[4]]
        assert len(reader.find_relationships(rel_type="KNOWS")) == 5
        assert indexes.interval_count() == (6 * 4 - 1) + 5 * 2
        reader.rollback()
        collect()
        survivors, surviving_rels = set(nodes[3:]), set(rels[3:])
        assert self._entities_held(indexes.node_labels) == survivors
        assert self._entities_held(indexes.node_properties) == survivors
        assert self._entities_held(indexes.relationship_types) == surviving_rels
        assert self._entities_held(indexes.relationship_properties) == surviving_rels
        assert indexes.interval_count() == 3 * 4 + 2 * 2
        for node_id in nodes[:3]:
            assert indexes.adjacency.candidate_rel_ids(node_id) == set()
        assert indexes.adjacency.candidate_rel_ids(nodes[3]) == {rels[3]}
        assert all(not shard.closed for shard in indexes.node_labels._shards)
        db.close()

