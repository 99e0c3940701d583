"""Tests for the lock-free read path (PR 3).

Covers the copy-on-write version chains (reads succeed while the write lock
is held — the paper's "readers never block" taken literally), GC racing the
new chains, the engine's shared stamp-validated read cache (and the
repeatability of reads with nothing memoised per snapshot), the stats-epoch
plan cache, the configurable parse cache, token interning and the
read-committed eager-unlock guard.
"""

import threading
import time

import pytest

from repro import GraphDatabase, IsolationLevel
from repro.core.si_manager import SnapshotIsolationEngine
from repro.core.version import Version, VersionChain
from repro.graph.entity import Direction, NodeData, key_id, node_key
from repro.graph.store_manager import StoreManager
from repro.locking.lock_manager import LockManager, LockMode
from repro.stats import CardinalityEpoch

KEY = node_key(1)


def _version(commit_ts, payload="x"):
    data = None if payload is None else NodeData(key_id(KEY), properties={"v": payload})
    return Version(KEY, data, commit_ts)


class TestLockFreeChainReads:
    def test_reads_succeed_while_write_lock_is_held_by_another_thread(self):
        """The acceptance check: resolution takes zero lock acquisitions."""
        chain = VersionChain(KEY)
        for ts in (1, 3, 5):
            chain.add_committed(_version(ts, payload=f"v{ts}"))

        results = {}
        lock_taken = threading.Event()
        release = threading.Event()

        def hold_write_lock():
            with chain.write_lock:
                lock_taken.set()
                release.wait(timeout=5.0)

        holder = threading.Thread(target=hold_write_lock, daemon=True)
        holder.start()
        assert lock_taken.wait(timeout=5.0)

        def read():
            results["visible"] = chain.visible_to(4)
            results["newest"] = chain.newest()
            results["oldest"] = chain.oldest()
            results["len"] = len(chain)

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout=2.0)
        try:
            assert not reader.is_alive(), "chain reads blocked on the write lock"
            assert results["visible"].commit_ts == 3
            assert results["newest"].commit_ts == 5
            assert results["oldest"].commit_ts == 1
            assert results["len"] == 3
        finally:
            release.set()
            holder.join(timeout=5.0)

    def test_visible_to_binary_search_matches_read_rule(self):
        chain = VersionChain(KEY)
        timestamps = [2, 5, 9, 14, 20, 31, 44]
        for ts in timestamps:
            chain.add_committed(_version(ts, payload=f"v{ts}"))
        for start_ts in range(0, 50):
            expected = max((ts for ts in timestamps if ts <= start_ts), default=None)
            visible = chain.visible_to(start_ts)
            if expected is None:
                assert visible is None
            else:
                assert visible.commit_ts == expected

    def test_remove_publishes_fresh_tuple(self):
        chain = VersionChain(KEY)
        first, second, third = _version(1), _version(2), _version(3)
        for version in (first, second, third):
            chain.add_committed(version)
        before = chain.snapshot()
        assert chain.remove(second)
        assert not chain.remove(second)  # already gone
        after = chain.snapshot()
        assert before == (third, second, first)  # old tuple untouched
        assert after == (third, first)
        assert chain.visible_to(2).commit_ts == 1

    def test_out_of_order_install_rejected(self):
        chain = VersionChain(KEY)
        chain.add_committed(_version(5))
        with pytest.raises(ValueError):
            chain.add_committed(_version(4))


class TestInstallCommitted:
    def test_install_lands_in_resident_chain_even_after_eviction(self):
        """A commit must never install into an evicted (orphaned) chain."""
        from repro.core.version_store import VersionStore

        store = VersionStore(cache_capacity=1)
        base = _version(1, payload="old")
        store.install_committed(KEY, base, lambda: None)
        # Evict the chain by flooding the capacity-1 cache with another key.
        other = node_key(2)
        store.install_committed(
            other, Version(other, NodeData(2, properties={}), 2), lambda: None
        )
        assert store.get_chain(KEY) is None  # really evicted
        # Install a newer version; the loader simulates the persisted state.
        newer = _version(3, payload="new")
        superseded = store.install_committed(
            KEY, newer, lambda: (base.payload, base.commit_ts)
        )
        assert superseded is not None and superseded.commit_ts == 1
        chain = store.get_chain(KEY)
        assert chain is not None
        assert [v.commit_ts for v in chain.snapshot()] == [3, 1]

    def test_install_returns_superseded_version(self):
        from repro.core.version_store import VersionStore

        store = VersionStore()
        first, second = _version(1), _version(2)
        assert store.install_committed(KEY, first, lambda: None) is None
        assert store.install_committed(KEY, second, lambda: None) is first


class TestGcRacesCopyOnWriteChains:
    def test_long_snapshot_keeps_its_version_while_auto_gc_reclaims(self):
        """A pinned snapshot must survive gc_every_n_commits reclaiming garbage.

        History 0..4 is committed first, so versions 0..3 are already
        superseded *below* where the long reader will start; the automatic GC
        passes triggered by the later commits reclaim them (chain-tuple
        swaps) while the reader keeps resolving its pinned version 4, and
        versions above the reader's snapshot stay retained by the watermark.
        """
        store = StoreManager(None, reuse_entity_ids=False)
        engine = SnapshotIsolationEngine(store, gc_every_n_commits=2)
        setup = engine.begin()
        node_id = engine.allocate_node_id()
        setup.put_node(NodeData(node_id, {"Item"}, {"value": 0}), create=True)
        setup.commit()
        for value in range(1, 5):
            writer = engine.begin()
            current = writer.read_node(node_id)
            writer.put_node(current.with_property("value", value))
            writer.commit()

        long_reader = engine.begin(read_only=True)
        assert long_reader.read_node(node_id).properties["value"] == 4

        collected_before = engine.gc.total_stats.versions_collected
        for value in range(5, 11):
            writer = engine.begin()
            current = writer.read_node(node_id)
            writer.put_node(current.with_property("value", value))
            writer.commit()
            # The long reader keeps resolving its pinned version between
            # every commit (and the automatic GC passes they trigger); go
            # through a fresh uncached resolution each time so the chain is
            # actually re-read.
            resolved = engine.read_committed_versions(
                [node_key(node_id)], long_reader.snapshot.start_ts
            )[0]
            assert resolved.properties["value"] == 4

        # Garbage below the reader's snapshot was reclaimed while it lived...
        assert engine.gc.total_stats.versions_collected > collected_before
        chain = engine.versions.get_chain(node_key(node_id))
        retained = sorted(version.payload.properties["value"] for version in chain.snapshot())
        assert 4 in retained  # ...but its own version is still there,
        assert 0 not in retained  # and the pre-snapshot garbage is gone.

        long_reader.rollback()
        engine.run_gc()
        assert engine.versions.get_chain(node_key(node_id)).version_count() == 1
        fresh = engine.begin(read_only=True)
        assert fresh.read_node(node_id).properties["value"] == 10
        fresh.rollback()
        store.close()

    def test_concurrent_readers_vs_writers_and_gc_smoke(self):
        """Hammer reads against commits + GC; every read must be torn-free."""
        db = GraphDatabase.in_memory(gc_every_n_commits=4)
        with db.transaction() as tx:
            nodes = [
                tx.create_node(["Counter"], {"slot": index, "value": 0})
                for index in range(8)
            ]
        node_ids = [node.id for node in nodes]
        stop = threading.Event()
        errors = []

        def writer():
            value = 0
            while not stop.is_set():
                value += 1
                with db.transaction() as tx:
                    # All slots move together; a consistent snapshot sees one value.
                    for node_id in node_ids:
                        tx.set_node_property(node_id, "value", value)

        def reader():
            while not stop.is_set():
                with db.transaction(read_only=True) as tx:
                    values = {tx.get_node(nid).get("value") for nid in node_ids}
                    if len(values) != 1:
                        errors.append(values)

        threads = [threading.Thread(target=writer, daemon=True)] + [
            threading.Thread(target=reader, daemon=True) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.6)
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not errors, f"torn snapshot reads observed: {errors[:3]}"
        db.close()


class TestSharedReadCache:
    def test_point_lookups_are_served_by_the_shared_payload_entry(self):
        db = GraphDatabase.in_memory()
        with db.transaction() as tx:
            alice = tx.create_node(["Person"], {"name": "Alice"})
        key = node_key(alice.id)
        with db.transaction(read_only=True) as tx:
            for _ in range(5):
                assert tx.get_node(alice.id).get("name") == "Alice"
            # The transaction keeps nothing; the engine holds the one entry.
            built_ts, payload = db.engine._payload_cache[key]
            assert built_ts == tx.engine_transaction.start_ts
            assert payload.properties["name"] == "Alice"
        db.close()

    def test_old_snapshot_does_not_clobber_a_valid_shared_payload_entry(self):
        db = GraphDatabase.in_memory()
        with db.transaction() as tx:
            node = tx.create_node(["P"], {"v": "old"})
        key = node_key(node.id)
        old_reader = db.transaction(read_only=True)
        with db.transaction() as tx:
            tx.set_node_property(node, "v", "new")
        with db.transaction(read_only=True) as tx:
            assert tx.get_node(node.id).get("v") == "new"
        entry = db.engine._payload_cache[key]
        # The old snapshot resolves its own version and leaves the entry be.
        assert old_reader.get_node(node.id).get("v") == "old"
        old_reader.rollback()
        assert db.engine._payload_cache[key] is entry
        # The next fresh reader is answered by it: the version store is not
        # consulted at all.
        lookups = db.statistics()["object_cache"]
        with db.transaction(read_only=True) as tx:
            assert tx.get_node(node.id).get("v") == "new"
        after = db.statistics()["object_cache"]
        assert (after["hits"], after["misses"]) == (lookups["hits"], lookups["misses"])
        db.close()

    def test_earlier_build_with_nothing_changed_since_widens_the_entry(self):
        """White-box: the admission rule keeps whichever valid entry serves
        more snapshots, so a long reader is not locked out of the cache by
        entries that newer snapshots built."""
        db = GraphDatabase.in_memory()
        with db.transaction() as tx:
            node = tx.create_node(["P"], {"v": 1})
            other = tx.create_node(["P"], {"v": 1})
        key = node_key(node.id)
        long_reader = db.transaction(read_only=True)
        with db.transaction() as tx:
            tx.set_node_property(other, "v", 2)  # advances time, not ``node``
        with db.transaction(read_only=True) as tx:
            tx.get_node(node.id)
            assert db.engine._payload_cache[key][0] == tx.engine_transaction.start_ts
        long_reader.get_node(node.id)
        assert db.engine._payload_cache[key][0] == long_reader.engine_transaction.start_ts
        with db.transaction(read_only=True) as tx:  # still valid for newer ones
            tx.get_node(node.id)
            assert db.engine._payload_cache[key][0] == long_reader.engine_transaction.start_ts
        long_reader.rollback()
        db.close()

    def test_adjacency_cache_overlays_own_writes(self):
        db = GraphDatabase.in_memory()
        with db.transaction() as tx:
            a = tx.create_node(["P"], {"name": "a"})
            b = tx.create_node(["P"], {"name": "b"})
            c = tx.create_node(["P"], {"name": "c"})
            ab = tx.create_relationship(a, b, "KNOWS")
            tx.create_relationship(a, c, "KNOWS")
        with db.transaction() as tx:
            assert len(tx.relationships_of(a)) == 2  # populates the cache
            tx.delete_relationship(ab.id)
            remaining = tx.relationships_of(a)
            assert [rel.other_node_id(a.id) for rel in remaining] == [c.id]
            d = tx.create_node(["P"], {"name": "d"})
            tx.create_relationship(a, d, "KNOWS")
            assert {rel.other_node_id(a.id) for rel in tx.relationships_of(a)} == {
                c.id,
                d.id,
            }
            tx.rollback()
        # After rollback the committed adjacency is unchanged.
        with db.transaction(read_only=True) as tx:
            assert len(tx.relationships_of(a)) == 2
        db.close()

    def test_cached_traversal_is_snapshot_consistent_across_commits(self):
        db = GraphDatabase.in_memory()
        with db.transaction() as tx:
            hub = tx.create_node(["Person"], {"name": "hub"})
            spokes = [tx.create_node(["Person"], {"name": f"s{i}"}) for i in range(3)]
            for spoke in spokes:
                tx.create_relationship(hub, spoke, "KNOWS")
        reader = db.transaction(read_only=True)
        assert len(reader.relationships_of(hub)) == 3  # cache the adjacency
        with db.transaction() as tx:
            extra = tx.create_node(["Person"], {"name": "late"})
            tx.create_relationship(hub, extra, "KNOWS")
        # The cached snapshot keeps answering from its own world...
        assert len(reader.relationships_of(hub)) == 3
        reader.rollback()
        # ...while a fresh snapshot sees the new edge.
        with db.transaction(read_only=True) as tx:
            assert len(tx.relationships_of(hub)) == 4
        db.close()

    @pytest.mark.parametrize(
        "isolation", [IsolationLevel.SNAPSHOT, IsolationLevel.SERIALIZABLE]
    )
    def test_reads_repeat_with_no_memo_underneath(self, isolation):
        """One long reader; before each of its reads a writer commits to the
        same hub, which invalidates every shared entry the reader could hit,
        and GC runs.  Repeatability has to come from the read rule alone."""
        db = GraphDatabase.in_memory(isolation=isolation, gc_every_n_commits=1)
        with db.transaction() as tx:
            hub = tx.create_node(["Hub"], {"v": 0})
            spokes = [tx.create_node(["Spoke"], {"i": i}) for i in range(8)]
            rels = [
                tx.create_relationship(hub, spoke, "KNOWS") if i % 2
                else tx.create_relationship(spoke, hub, "LIKES" if i % 4 else "KNOWS")
                for i, spoke in enumerate(spokes)
            ]
        doomed_rels = [rel.id for rel in rels[:3]]
        doomed_spokes = [spoke.id for spoke in spokes[5:]]

        def update_property(tx):
            tx.set_node_property(hub, "v", tx.get_node(hub).get("v") + 1)

        def create_relationship(tx):
            tx.create_relationship(hub, tx.create_node(["Spoke"]), "KNOWS")

        def delete_relationship(tx):
            tx.delete_relationship(doomed_rels.pop())

        def delete_neighbour(tx):
            tx.delete_node(doomed_spokes.pop(), detach=True)

        writes = [create_relationship, update_property, delete_relationship,
                  delete_neighbour]

        # Read-write, so the serializable reader is tracked.
        reader = db.begin()

        def expansion(direction=Direction.BOTH, types=None):
            return lambda: [
                (rel.id, rel.type, rel.other_node_id(hub.id))
                for rel in reader.relationships_of(hub, direction, types)
            ]

        reads = [
            lambda: dict(reader.get_node(hub).properties),
            lambda: [dict(reader.get_node(spoke).properties) for spoke in spokes],
            expansion(),
            expansion(Direction.OUTGOING),
            expansion(Direction.INCOMING),
            expansion(Direction.BOTH, ["KNOWS"]),
            expansion(Direction.INCOMING, ["KNOWS", "LIKES"]),
        ]
        first = [read() for read in reads]
        assert len(first[2]) == 8 and len(first[5]) == 6
        commits = 0
        for _round in range(2):
            for read, expected in zip(reads, first):
                with db.transaction() as tx:
                    writes[commits % len(writes)](tx)
                commits += 1
                assert read() == expected
        assert not doomed_rels and not doomed_spokes
        # GC ran after every commit, held back only by this reader.
        held = db.statistics()["engine"]["gc"]
        assert held["watermark"] == reader.engine_transaction.start_ts
        reader.rollback()
        with db.transaction() as tx:
            update_property(tx)
        assert db.statistics()["engine"]["gc"]["versions_collected"] > \
            held["versions_collected"]
        with db.transaction(read_only=True) as tx:
            assert tx.get_node(hub).get("v") == 5
            assert len(tx.relationships_of(hub)) == 8 + 4 - 3 - 3
        db.close()


class TestQueryCaches:
    def test_plan_cache_hits_on_repeat_and_expires_on_epoch_bump(self):
        db = GraphDatabase.in_memory(query_cache_size=64)
        with db.transaction() as tx:
            for index in range(4):
                tx.create_node(["Person"], {"name": f"p{index}", "age": 20 + index})
        query = "MATCH (p:Person {name: $name}) RETURN p.age"
        db.execute(query, name="p1")
        before = db.statistics()["query_cache"]["plan"]
        db.execute(query, name="p2")
        after = db.statistics()["query_cache"]["plan"]
        assert after["hits"] == before["hits"] + 1

        # Force a statistics drift: the epoch bumps, the cached plan expires.
        epoch_before = db.engine.cardinality_epoch()
        with db.transaction() as tx:
            for index in range(200):
                tx.create_node(["Filler"], {"n": index})
        assert db.engine.cardinality_epoch() > epoch_before
        hits_before = db.statistics()["query_cache"]["plan"]["hits"]
        db.execute(query, name="p3")
        stats = db.statistics()["query_cache"]["plan"]
        assert stats["hits"] == hits_before  # epoch mismatch -> replanned
        db.close()

    def test_parse_cache_counts_hits_and_misses(self):
        db = GraphDatabase.in_memory()
        db.execute("RETURN 1 AS one")
        db.execute("RETURN 1 AS one")
        parse_stats = db.statistics()["query_cache"]["parse"]
        assert parse_stats["misses"] >= 1
        assert parse_stats["hits"] >= 1
        db.close()

    def test_query_cache_size_zero_disables_caching(self):
        db = GraphDatabase.in_memory(query_cache_size=0)
        db.execute("RETURN 1 AS one")
        db.execute("RETURN 1 AS one")
        stats = db.statistics()["query_cache"]
        assert stats["parse"]["size"] == 0
        assert stats["plan"]["size"] == 0
        db.close()

    def test_profile_bypasses_plan_cache_and_reports_actuals(self):
        db = GraphDatabase.in_memory()
        with db.transaction() as tx:
            tx.create_node(["Person"], {"name": "solo"})
        db.execute("MATCH (p:Person) RETURN p.name")
        result = db.execute("PROFILE MATCH (p:Person) RETURN p.name")
        rendered = result.render_plan()
        assert "actual=1" in rendered
        db.close()

    def test_rc_commits_drive_the_epoch(self):
        from repro.locking.rc_manager import ReadCommittedEngine

        store = StoreManager(None, reuse_entity_ids=True)
        engine = ReadCommittedEngine(store)
        assert engine.indexes.stats_epoch is engine.stats_epoch
        before = engine.cardinality_epoch()
        for _ in range(300):
            txn = engine.begin()
            txn.put_node(NodeData(engine.allocate_node_id(), {"L"}), create=True)
            txn.commit()
        assert engine.cardinality_epoch() > before
        store.close()

    def test_rc_engine_also_caches_plans(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.READ_COMMITTED)
        with db.transaction() as tx:
            tx.create_node(["Person"], {"name": "rc"})
        query = "MATCH (p:Person {name: $name}) RETURN p.name"
        db.execute(query, name="rc")
        db.execute(query, name="rc")
        assert db.statistics()["query_cache"]["plan"]["hits"] >= 1
        db.close()


class TestCardinalityEpoch:
    def test_bumps_after_min_changes(self):
        epoch = CardinalityEpoch(min_changes=10)
        for _ in range(9):
            epoch.record(1)
        assert epoch.epoch == 0
        epoch.record(1)
        assert epoch.epoch == 1

    def test_threshold_scales_with_population(self):
        epoch = CardinalityEpoch(min_changes=10, drift_fraction=0.5)
        for _ in range(10):
            epoch.record(1)  # population 10, bump #1
        assert epoch.epoch == 1
        # Now population 10 -> threshold max(10, 5) = 10 again.
        for _ in range(990):
            epoch.record(1)
        # Population ~1000: drift threshold grows, bumps get rarer.
        assert 1 < epoch.epoch < 100


class TestTokenInterning:
    def test_property_keys_share_one_object_across_entities(self):
        db = GraphDatabase.in_memory()
        with db.transaction() as tx:
            first = tx.create_node(["P"], {"a_rather_unique_key": 1})
            second = tx.create_node(["P"], {"a_rather" + "_unique_key": 2})
        with db.transaction(read_only=True) as tx:
            keys_first = list(tx.get_node(first.id).properties)
            keys_second = list(tx.get_node(second.id).properties)
            assert keys_first[0] is keys_second[0]
        db.close()

    def test_labels_are_interned_at_the_api_boundary(self):
        db = GraphDatabase.in_memory()
        with db.transaction() as tx:
            node_a = tx.create_node(["Quite" + "UniqueLabel"])
            node_b = tx.create_node(["QuiteUnique" + "Label"])
        with db.transaction(read_only=True) as tx:
            (label_a,) = tx.get_node(node_a.id).labels
            (label_b,) = tx.get_node(node_b.id).labels
            assert label_a is label_b
        db.close()


class TestRcEagerReadUnlock:
    def test_short_read_does_not_drop_retained_exclusive_lock(self):
        """Reading an entity the txn write-locked must not release that lock."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.READ_COMMITTED)
        with db.transaction() as tx:
            a = tx.create_node(["P"], {"name": "a"})
            b = tx.create_node(["P"], {"name": "b"})
        tx = db.transaction()
        tx.create_relationship(a, b, "KNOWS")  # long-locks both endpoints
        engine = db.engine
        key_a = node_key(a.id)
        assert engine.locks.holders_of(key_a).get(tx.id) == LockMode.EXCLUSIVE
        tx.get_node(a.id)  # short read of an endpoint we hold exclusively
        assert engine.locks.holders_of(key_a).get(tx.id) == LockMode.EXCLUSIVE
        tx.rollback()
        db.close()

    def test_shared_guard_releases_on_exit(self):
        manager = LockManager()
        key = node_key(7)
        with manager.shared_guard(1, key):
            assert manager.holders_of(key) == {1: LockMode.SHARED}
        assert manager.holders_of(key) == {}

    def test_shared_guard_blocks_behind_exclusive_writer(self):
        manager = LockManager()
        key = node_key(9)
        manager.acquire(100, key, LockMode.EXCLUSIVE)
        entered = threading.Event()

        def reader():
            with manager.shared_guard(200, key, timeout=5.0):
                entered.set()

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        time.sleep(0.15)
        assert not entered.is_set()  # still blocked behind the writer
        manager.release_all(100)
        assert entered.wait(timeout=5.0)
        thread.join(timeout=5.0)
