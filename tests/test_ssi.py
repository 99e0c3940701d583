"""Serializable Snapshot Isolation: the pluggable CC policy closes write skew.

Covers the tentpole guarantees of the SSI policy:

* write skew is observable under ``SNAPSHOT`` and prevented under
  ``SERIALIZABLE`` for the same interleaving (via ``WriteSkewProbe``),
* phantoms through index/label-scan predicate reads are caught,
* single rw-antidependencies (no dangerous structure) do not abort,
* read-only transactions register nothing and are never aborted, and
* SIREAD tracking state is reclaimed by garbage collection.
"""

import threading

import pytest

from repro import (
    GraphDatabase,
    IsolationLevel,
    SerializationError,
    TransactionAbortedError,
)
from repro.graph.entity import Direction

from harness.anomaly import WriteSkewProbe


def _make_accounts(db, balance=100):
    with db.transaction() as tx:
        a = tx.create_node(labels=["Account"], properties={"name": "a", "balance": balance})
        b = tx.create_node(labels=["Account"], properties={"name": "b", "balance": balance})
    return a.id, b.id


def _run_skew_interleaving(db, probe):
    """Both transactions read both balances, then each withdraws from one.

    Returns the number of transactions that committed.  Under snapshot
    isolation both commit (writing disjoint keys, so the write rule is
    silent) and the combined-balance constraint breaks; under serializable
    the second committer completes a dangerous structure and aborts.
    """
    t1 = db.begin()
    t2 = db.begin()
    committed = 0
    try:
        assert probe.withdraw(t1, probe.account_a)
        assert probe.withdraw(t2, probe.account_b)
        for txn in (t1, t2):
            try:
                txn.commit()
                committed += 1
            except TransactionAbortedError:
                pass
    finally:
        for txn in (t1, t2):
            txn.rollback()
    return committed


class TestWriteSkew:
    def test_skew_under_snapshot_prevented_under_serializable(self):
        """The acceptance interleaving, probed under both levels in one test."""
        counters = {}
        for isolation in (IsolationLevel.SNAPSHOT, IsolationLevel.SERIALIZABLE):
            db = GraphDatabase.in_memory(isolation=isolation)
            a, b = _make_accounts(db, balance=100)
            probe = WriteSkewProbe(a, b, withdraw_amount=150)
            committed = _run_skew_interleaving(db, probe)
            with db.transaction(read_only=True) as tx:
                write_skew = int(probe.constraint_violated(tx))
            counters[isolation] = (committed, write_skew)
            db.close()
        si_committed, si_skew = counters[IsolationLevel.SNAPSHOT]
        ssi_committed, ssi_skew = counters[IsolationLevel.SERIALIZABLE]
        assert si_committed == 2 and si_skew >= 1  # SI permits the anomaly
        assert ssi_committed == 1 and ssi_skew == 0  # SSI aborts one of the two

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm-cache"])
    def test_second_committer_gets_serialization_error(self, warm):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        a, b = _make_accounts(db)
        probe = WriteSkewProbe(a, b, withdraw_amount=150)
        if warm:  # an earlier transaction fills the engine's shared caches
            with db.transaction() as tx:
                assert tx.nodes_by_ids([a, b])
        t1 = db.begin()
        t2 = db.begin()
        probe.withdraw(t1, a)
        probe.withdraw(t2, b)
        t1.commit()
        with pytest.raises(SerializationError):
            t2.commit()
        assert db.statistics()["engine"]["transactions"]["abort_reasons"][
            "rw-antidependency"
        ] == 1
        db.close()

    def test_retry_after_serialization_abort_succeeds(self):
        """The aborted withdrawal, retried on fresh state, sees t1's write."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        a, b = _make_accounts(db, balance=100)
        probe = WriteSkewProbe(a, b, withdraw_amount=150)
        committed = _run_skew_interleaving(db, probe)
        assert committed == 1
        with db.transaction() as tx:
            # Combined balance is now 50: the retried withdrawal must refuse.
            assert not probe.withdraw(tx, b)
        with db.transaction(read_only=True) as tx:
            assert not probe.constraint_violated(tx)
        db.close()


class TestDangerousStructureOnly:
    """SSI aborts dangerous structures, not every rw-antidependency."""

    def test_single_rw_edge_commits(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        with db.transaction() as tx:
            x = tx.create_node(properties={"k": "x", "v": 0})
            y = tx.create_node(properties={"k": "y", "v": 0})
        reader = db.begin()
        reader.get_node(x.id)  # SIREAD on x
        with db.transaction() as tx:  # concurrent writer of x commits
            tx.set_node_property(x.id, "v", 1)
        # reader -> writer is one rw edge; reader writes y (nobody reads it),
        # so no second edge exists and the commit must succeed.
        reader.set_node_property(y.id, "v", 1)
        reader.commit()
        assert db.statistics()["engine"]["transactions"]["abort_reasons"][
            "rw-antidependency"
        ] == 0
        db.close()

    def test_serial_transactions_never_abort(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        a, b = _make_accounts(db)
        for _ in range(5):
            with db.transaction() as tx:
                balance = tx.get_node(a).get("balance")
                tx.set_node_property(a, "balance", balance - 1)
            with db.transaction() as tx:
                balance = tx.get_node(b).get("balance")
                tx.set_node_property(b, "balance", balance - 1)
        assert db.statistics()["engine"]["transactions"]["aborted"] == 0
        db.close()


class TestPhantomPrevention:
    def test_phantom_via_label_scan_caught(self):
        """Two transactions scan an empty label and both insert into it."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        with db.transaction() as tx:
            tx.create_node(labels=["Seed"])  # make the label index warm
        t1 = db.begin()
        t2 = db.begin()
        assert t1.find_nodes(label="Pending") == []
        assert t2.find_nodes(label="Pending") == []
        t1.create_node(labels=["Pending"], properties={"who": "t1"})
        t2.create_node(labels=["Pending"], properties={"who": "t2"})
        t1.commit()
        with pytest.raises(SerializationError):
            t2.commit()
        with db.transaction(read_only=True) as tx:
            assert len(tx.find_nodes(label="Pending")) == 1
        db.close()

    def test_scan_after_a_concurrent_insert_is_caught_reader_side(self):
        """The insert commits before the reader scans, so only the reader's
        own registration can find the edge — through the predicate alone,
        since the two share no key."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        with db.transaction() as tx:
            tx.create_node(labels=["Seed"])
        reader = db.begin()
        with db.transaction() as tx:
            tx.create_node(labels=["Pending"])
        assert reader.find_nodes(label="Pending") == []
        assert reader.engine_transaction.cc_record.out_conflict
        reader.commit()  # a single rw edge is no dangerous structure
        db.close()

    def test_phantom_permitted_under_snapshot(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
        t1 = db.begin()
        t2 = db.begin()
        assert t1.find_nodes(label="Pending") == []
        assert t2.find_nodes(label="Pending") == []
        t1.create_node(labels=["Pending"])
        t2.create_node(labels=["Pending"])
        t1.commit()
        t2.commit()  # SI lets the duplicate insert through
        with db.transaction(read_only=True) as tx:
            assert len(tx.find_nodes(label="Pending")) == 2
        db.close()

    def test_phantom_via_property_index_scan_caught(self):
        """Unique-email style check-then-insert under a property predicate."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        with db.transaction() as tx:
            tx.create_node(labels=["User"], properties={"email": "seed@x"})
        t1 = db.begin()
        t2 = db.begin()
        assert t1.find_nodes(key="email", value="a@x") == []
        assert t2.find_nodes(key="email", value="a@x") == []
        t1.create_node(labels=["User"], properties={"email": "a@x"})
        t2.create_node(labels=["User"], properties={"email": "a@x"})
        t1.commit()
        with pytest.raises(SerializationError):
            t2.commit()
        with db.transaction(read_only=True) as tx:
            assert len(tx.find_nodes(key="email", value="a@x")) == 1
        db.close()

    @pytest.mark.parametrize("small_side", ["label", "property"])
    @pytest.mark.parametrize("phantom", ["create", "label-add", "property-change"])
    def test_phantom_via_conjunctive_seek_caught(self, phantom, small_side):
        """`find_nodes(label, key, value)` reads one index entry, whichever is
        smaller, but evaluates two predicates: a concurrent committer that
        moves a node into the conjunction — by creating it, labelling it or
        setting the property — still forms the rw-antidependency."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        with db.transaction() as tx:
            # Two nodes one write away from matching (User, email = a@x) ...
            if phantom == "label-add":
                spares = [tx.create_node(["Guest"], {"email": "a@x"}).id for _ in range(2)]
            else:
                spares = [tx.create_node(["User"], {"email": "b@x"}).id for _ in range(2)]
            # ... and ballast that makes the chosen entry the smaller one.
            for index in range(6):
                if small_side == "label":
                    tx.create_node(["Guest"], {"email": "a@x"})
                else:
                    tx.create_node(["User"], {"email": f"u{index}@x"})
        engine = db.engine
        label_smaller = engine.count_nodes_with_label(
            "User"
        ) <= engine.count_nodes_with_property("email", "a@x")
        assert label_smaller == (small_side == "label")
        t1 = db.begin()
        t2 = db.begin()
        for txn, spare in ((t1, spares[0]), (t2, spares[1])):
            assert txn.find_nodes("User", "email", "a@x") == []
            if phantom == "create":
                txn.create_node(["User"], {"email": "a@x"})
            elif phantom == "label-add":
                txn.add_label(spare, "User")
            else:
                txn.set_node_property(spare, "email", "a@x")
        t1.commit()
        with pytest.raises(SerializationError):
            t2.commit()
        reasons = db.statistics()["engine"]["transactions"]["abort_reasons"]
        assert reasons["rw-antidependency"] == 1
        with db.transaction(read_only=True) as tx:
            assert len(tx.find_nodes("User", "email", "a@x")) == 1
        db.close()

    def test_phantom_via_conjunctive_relationship_seek_caught(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        with db.transaction() as tx:
            a, b = tx.create_node(["P"]), tx.create_node(["P"])
            for _ in range(4):
                tx.create_relationship(a, b, "KNOWS", {"since": 1999})
        t1 = db.begin()
        t2 = db.begin()
        for txn in (t1, t2):
            assert txn.find_relationships("since", 2016, rel_type="KNOWS") == []
            txn.create_relationship(a, b, "KNOWS", {"since": 2016})
        t1.commit()
        with pytest.raises(SerializationError):
            t2.commit()
        db.close()

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm-cache"])
    def test_phantom_via_relationship_adjacency_caught(self, warm):
        """Degree-constraint skew: both cap-check a node's degree, both attach."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        with db.transaction() as tx:
            hub = tx.create_node(labels=["Hub"])
            s1 = tx.create_node()
            s2 = tx.create_node()
        if warm:  # the shared adjacency cache answers both cap-checks below
            with db.transaction() as tx:
                assert tx.degree(hub.id) == 0
        t1 = db.begin()
        t2 = db.begin()
        assert t1.degree(hub.id) == 0  # adjacency predicate read
        assert t2.degree(hub.id) == 0
        if warm:
            assert t2.engine_transaction.snapshot_cache_stats()["misses"] == 0
        t1.create_relationship(s1.id, hub.id, "LINK")
        t2.create_relationship(s2.id, hub.id, "LINK")
        t1.commit()
        with pytest.raises(SerializationError):
            t2.commit()
        db.close()


class TestSharedAdjacencyCacheTracksReads:
    """The engine's adjacency cache serves tracked readers: a hit registers
    exactly the SIREADs and predicates a resolving miss registers."""

    #: ``None`` is the raw committed list as the engine transaction hands it
    #: to the overlay (read here after the transaction has written
    #: something, so the overlay runs too); the rest are ``(direction.value,
    #: types)`` filtered calls over the same shared entry.
    CALLS = [
        pytest.param(None, id="raw"),
        pytest.param(("both", None), id="both"),
        pytest.param(("outgoing", None), id="outgoing"),
        pytest.param(("both", ("KNOWS",)), id="both-knows"),
        pytest.param(("incoming", ("KNOWS", "LIKES")), id="incoming-two-types"),
    ]

    @staticmethod
    def _hub(db):
        """A hub with relationships both ways, two types, and one deleted
        relationship (still an adjacency candidate, no longer visible)."""
        with db.transaction() as tx:
            hub = tx.create_node(["Hub"])
            spokes = [tx.create_node(["Spoke"]) for _ in range(4)]
            tx.create_relationship(hub, spokes[0], "KNOWS")
            tx.create_relationship(spokes[1], hub, "KNOWS")
            tx.create_relationship(spokes[2], hub, "LIKES")
            doomed = tx.create_relationship(hub, spokes[3], "KNOWS")
        with db.transaction() as tx:
            tx.delete_relationship(doomed.id)
        return hub.id, doomed.id

    @staticmethod
    def _expand(db, hub_id, call):
        """One tracked expansion; returns (rel ids, SIREAD keys, predicates,
        cache stats)."""
        tx = db.begin()
        try:
            if call is None:
                tx.create_node()
                rels = tx.relationships_of(hub_id)
            else:
                rels = tx.relationships_of(hub_id, Direction(call[0]), call[1])
            record = tx.engine_transaction.cc_record
            return (
                [rel.id for rel in rels],
                set(record.read_keys),
                set(record.predicates),
                tx.engine_transaction.snapshot_cache_stats(),
            )
        finally:
            tx.rollback()

    @pytest.mark.parametrize("call", CALLS)
    def test_hit_registers_what_a_miss_registers(self, call):
        from repro.graph.entity import rel_key

        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        hub_id, deleted_rel_id = self._hub(db)
        engine = db.engine
        start_ts = engine.oracle.latest_commit_ts
        assert engine.cached_committed_adjacency(hub_id, start_ts) is None
        cold_rels, cold_keys, cold_predicates, cold_stats = self._expand(
            db, hub_id, call
        )
        assert cold_stats == {"hits": 0, "misses": 1}
        assert engine.cached_committed_adjacency(hub_id, start_ts) is not None
        warm_rels, warm_keys, warm_predicates, warm_stats = self._expand(
            db, hub_id, call
        )
        assert warm_stats == {"hits": 1, "misses": 0}
        assert warm_rels == cold_rels and deleted_rel_id not in warm_rels
        assert warm_keys == cold_keys
        assert warm_predicates == cold_predicates == {("adjacency", hub_id)}
        # Every candidate is registered, not only the visible ones.
        assert rel_key(deleted_rel_id) in warm_keys
        assert len(warm_keys) == 4
        db.close()

    def test_filtered_calls_share_the_one_raw_entry(self):
        """Whichever call resolves first publishes the entry every other
        ``(direction, types)`` call then filters."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        hub_id, _deleted = self._hub(db)
        _rels, cold_keys, _predicates, cold_stats = self._expand(
            db, hub_id, ("incoming", ("LIKES",))
        )
        assert cold_stats["misses"] == 1
        sizes = {}
        for call in (None, ("both", None), ("outgoing", None), ("both", ("KNOWS",))):
            rels, keys, predicates, stats = self._expand(db, hub_id, call)
            assert stats == {"hits": 1, "misses": 0}
            assert keys == cold_keys and predicates == {("adjacency", hub_id)}
            sizes[call] = len(rels)
        assert sizes == {
            None: 3, ("both", None): 3, ("outgoing", None): 1, ("both", ("KNOWS",)): 2,
        }
        db.close()

    def test_entry_invalidated_by_a_commit_falls_back_to_resolving(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        hub_id, _deleted = self._hub(db)
        call = ("both", None)
        self._expand(db, hub_id, call)  # warm
        with db.transaction() as tx:
            tx.create_relationship(hub_id, tx.create_node(), "KNOWS")
        rels, keys, _predicates, stats = self._expand(db, hub_id, call)
        assert len(rels) == 4 and len(keys) == 5
        assert stats["misses"] > 0  # the stale entry failed validation
        db.close()

    def test_stale_build_is_not_published(self):
        """White-box: a build that cannot see the newest change to the node
        is dropped and displaces nothing; neither does a build a standing
        valid entry already serves."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        hub_id, _deleted = self._hub(db)
        engine = db.engine
        stale_ts = engine.oracle.latest_commit_ts
        self._expand(db, hub_id, ("both", None))
        entry = engine._adjacency_payloads[hub_id]
        with db.transaction() as tx:
            tx.create_relationship(hub_id, tx.create_node(), "KNOWS")
        latest_ts = engine.oracle.latest_commit_ts
        engine.store_adjacency_entry(hub_id, stale_ts, (), ())
        assert engine._adjacency_payloads[hub_id] is entry
        assert engine.cached_committed_adjacency(hub_id, latest_ts) is None
        self._expand(db, hub_id, ("both", None))
        fresh = engine._adjacency_payloads[hub_id]
        assert fresh is not entry and fresh[0] == latest_ts
        engine.store_adjacency_entry(hub_id, latest_ts, (), ())
        assert engine._adjacency_payloads[hub_id] is fresh
        db.close()

    @pytest.mark.parametrize("writer_first", [False, True],
                             ids=["reader-registers-first", "writer-commits-first"])
    def test_warm_var_length_reader_still_conflicts_with_befriend(
        self, writer_first, monkeypatch
    ):
        """A tracked 2-hop reader served from warm caches keeps its rw edge
        to a concurrent ``befriend`` on a 1-hop neighbour."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        db.execute(
            "CREATE (:Person {name: 'p'})-[:KNOWS]->(:Person {name: 'n1'})"
            "-[:KNOWS]->(:Person {name: 'n2'})"
        )
        db.execute("CREATE (:Person {name: 'z'})")
        fof = (
            "MATCH (p:Person {name: 'p'})-[:KNOWS*1..2]-(f:Person) "
            "RETURN DISTINCT f.name"
        )
        befriend = (
            "MATCH (a:Person {name: 'n1'}), (b:Person {name: 'z'}) "
            "CREATE (a)-[:KNOWS]->(b)"
        )
        with db.transaction() as tx:  # warm the shared caches
            assert len(tx.execute(fof).rows()) == 2

        def edges():
            return db.statistics()["engine"]["concurrency_control"]["rw_edges_observed"]

        resolved = []  # nodes whose adjacency candidates had to be resolved
        adjacency = db.engine.indexes.adjacency
        candidate_rel_ids = adjacency.candidate_rel_ids
        monkeypatch.setattr(
            adjacency, "candidate_rel_ids",
            lambda node_id: resolved.append(node_id) or candidate_rel_ids(node_id),
        )
        before = edges()
        reader = db.begin()
        if writer_first:
            with db.transaction() as tx:
                tx.execute(befriend)
        assert sorted(reader.execute(fof).rows()) == [["n1"], ["n2"]]
        record = reader.engine_transaction.cc_record
        if not writer_first:
            assert resolved == []  # both levels came from the shared cache
            assert not record.out_conflict
            with db.transaction() as tx:
                tx.execute(befriend)
        assert record.out_conflict
        assert edges() > before
        reader.commit()  # a single rw edge is no dangerous structure
        db.close()


class TestReadOnlyOptimization:
    def test_read_only_transactions_register_nothing(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        a, b = _make_accounts(db)
        db.run_gc()  # drop the setup transaction's tracking record
        with db.transaction(read_only=True) as tx:
            tx.get_node(a)
            tx.find_nodes(label="Account")
            tx.degree(a)
        cc = db.statistics()["engine"]["concurrency_control"]
        assert cc["tracked_transactions"] == 0
        assert cc["siread_entries"] == 0
        assert cc["predicate_readers"] == 0
        db.close()

    def test_read_only_transaction_survives_write_skew_storm(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        a, b = _make_accounts(db)
        probe = WriteSkewProbe(a, b, withdraw_amount=150)
        observer = db.begin(read_only=True)
        observer.get_node(a)
        observer.get_node(b)
        _run_skew_interleaving(db, probe)
        # The observer overlapped both writers and read both accounts, yet is
        # never part of any dangerous structure bookkeeping.
        observer.get_node(a)
        observer.commit()
        db.close()


class TestSireadReclamation:
    def test_gc_reclaims_tracking_state_when_quiescent(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        a, b = _make_accounts(db)
        for _ in range(3):
            with db.transaction() as tx:
                tx.set_node_property(a, "balance", tx.get_node(a).get("balance") + 1)
        cc = db.statistics()["engine"]["concurrency_control"]
        assert cc["tracked_transactions"] > 0
        assert cc["siread_entries"] > 0
        stats = db.run_gc()
        assert stats.cc_entries_reclaimed > 0
        cc = db.statistics()["engine"]["concurrency_control"]
        assert cc["tracked_transactions"] == 0
        assert cc["siread_entries"] == 0
        assert cc["write_registry_entries"] == 0
        assert cc["commit_log_entries"] == 0
        db.close()

    def test_active_snapshot_pins_tracking_state(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        a, b = _make_accounts(db)
        pinner = db.begin()
        pinner.get_node(a)  # SIREAD held by an active transaction
        with db.transaction() as tx:  # concurrent commit on a disjoint key
            tx.set_node_property(b, "balance", 7)
        db.run_gc()
        cc = db.statistics()["engine"]["concurrency_control"]
        # The active reader's record and the concurrent committer's registry
        # entries must survive: an edge could still form between them.
        assert cc["tracked_transactions"] >= 2
        assert cc["siread_entries"] >= 1
        assert cc["write_registry_entries"] >= 1
        pinner.commit()
        db.run_gc()
        cc = db.statistics()["engine"]["concurrency_control"]
        assert cc["tracked_transactions"] == 0
        assert cc["write_registry_entries"] == 0
        db.close()

    def test_writeless_workload_state_stays_bounded_without_gc(self):
        """Read-write-opened but writeless transactions must not leak records.

        Their pseudo commit timestamps sit above the watermark forever in a
        pure-read workload, so reclamation falls back to the begin-ordered
        transaction id — driven opportunistically from the commit path, with
        no explicit ``run_gc`` call anywhere.
        """
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        a, _b = _make_accounts(db)
        for _ in range(300):
            with db.transaction() as tx:  # reads only, never writes
                tx.get_node(a)
        cc = db.statistics()["engine"]["concurrency_control"]
        assert cc["tracked_transactions"] <= 64, cc
        db.close()

    def test_mixed_commit_workload_state_stays_bounded_without_gc(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        a, _b = _make_accounts(db)
        for _ in range(200):
            with db.transaction() as tx:
                tx.set_node_property(a, "balance", tx.get_node(a).get("balance") + 1)
        cc = db.statistics()["engine"]["concurrency_control"]
        assert cc["commit_log_entries"] <= 64, cc
        assert cc["tracked_transactions"] <= 64, cc
        db.close()

    def test_vacuum_also_reclaims_tracking_state(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        a, _b = _make_accounts(db)
        with db.transaction() as tx:
            tx.set_node_property(a, "balance", tx.get_node(a).get("balance") - 1)
        vacuum = db.create_vacuum_collector()
        stats = vacuum.collect()
        assert stats.cc_entries_reclaimed > 0
        assert db.statistics()["engine"]["concurrency_control"]["siread_entries"] == 0
        db.close()


class TestAbortReasonBreakdown:
    def test_ww_conflict_counted_under_snapshot(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
        a, _b = _make_accounts(db)
        t1 = db.begin()
        t2 = db.begin()
        t1.set_node_property(a, "balance", 1)
        with pytest.raises(TransactionAbortedError):
            t2.set_node_property(a, "balance", 2)  # first-updater-wins
        t2.rollback()
        t1.commit()
        reasons = db.statistics()["engine"]["transactions"]["abort_reasons"]
        assert reasons["ww-conflict"] == 1
        assert reasons["rw-antidependency"] == 0
        db.close()

    def test_breakdown_present_for_all_levels(self):
        for isolation in IsolationLevel:
            db = GraphDatabase.in_memory(isolation=isolation)
            reasons = db.statistics()["engine"]["transactions"]["abort_reasons"]
            assert set(reasons) == {
                "ww-conflict",
                "rw-antidependency",
                "safe-snapshot",
                "deadlock",
                "io-error",
                "degraded-mode",
            }
            policy = db.statistics()["engine"]["concurrency_control"]["policy"]
            expected = {
                IsolationLevel.READ_COMMITTED: "2pl",
                IsolationLevel.SNAPSHOT: "si-write-rule",
                IsolationLevel.SERIALIZABLE: "ssi",
            }[isolation]
            assert policy == expected
            db.close()


class _CountingLock:
    """A tracker mutex that counts its acquisitions."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquisitions = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquisitions += 1
        return self

    def __exit__(self, *exc_info):
        self._lock.release()


class TestEdgeOrder:
    """White-box: which rw edge is noted first — and hence which pivot gets
    doomed — is reproducible.  A read batch notes its edges in commit-log
    order, one per writer; a commit notes its readers in registration
    order."""

    def test_batch_edges_are_noted_in_commit_log_order(self, monkeypatch):
        from repro.core.cc_policy import SerializableSnapshotPolicy
        from repro.graph.entity import node_key
        from repro.locking.lock_manager import LockManager

        policy = SerializableSnapshotPolicy(LockManager())
        keys = [node_key(node_id) for node_id in (9, 2, 7, 4)]
        pair = [node_key(5), node_key(6)]
        reader = policy.begin_transaction(1, 0)
        writers = {}
        for offset, key in enumerate(keys):
            writer = policy.begin_transaction(10 + offset, 0)
            policy.record_commit(writer, [(key, None, None)], 1 + offset)
            writers[writer] = key
        both = policy.begin_transaction(20, 0)  # one writer of two keys
        policy.record_commit(both, [(key, None, None) for key in pair], 5)
        writers[both] = "pair"
        noted = []
        monkeypatch.setattr(
            policy, "_note_edge",
            lambda source, target, acting: noted.append(writers[target]),
        )
        mutex = _CountingLock()
        monkeypatch.setattr(policy, "_mutex", mutex)
        policy.register_reads(reader, (keys[2],))  # a point read
        assert noted == [keys[2]]
        policy.register_reads(
            reader, [keys[3], pair[1], keys[2], keys[0], keys[3], pair[0], keys[1]]
        )
        # Commit-log order, not read order; the two-key writer once.
        assert noted == [keys[2], keys[0], keys[1], keys[3], "pair"]
        assert mutex.acquisitions == 2
        policy.register_reads(reader, keys + pair)  # all held
        assert len(noted) == 5  # no edge ...
        assert mutex.acquisitions == 2  # ... and no mutex visit
        assert reader.read_keys == set(keys + pair)

    def test_commit_notes_its_readers_in_registration_order(self, monkeypatch):
        from repro.core.cc_policy import SerializableSnapshotPolicy
        from repro.graph.entity import NodeData, node_key
        from repro.locking.lock_manager import LockManager

        policy = SerializableSnapshotPolicy(LockManager())
        key = node_key(3)
        readers = {
            txn_id: policy.begin_transaction(txn_id, 0) for txn_id in (7, 3, 8, 5)
        }
        policy.register_reads(readers[7], (key,))
        policy.register_reads(readers[3], predicates=(("label", "Account"),))
        policy.register_reads(readers[8], (node_key(4),))  # no conflict
        policy.register_reads(readers[5], (key,))
        writer = policy.begin_transaction(9, 0)
        noted = []
        monkeypatch.setattr(
            policy, "_note_edge",
            lambda source, target, acting, writer_commit_ts: noted.append(
                (source.txn_id, target.txn_id)
            ),
        )
        created = NodeData(3, labels={"Account"})  # a phantom for reader 3
        policy.record_commit(writer, [(key, None, created)], 1)
        assert noted == [(7, 9), (3, 9), (5, 9)]


class TestSerializableIsStillSnapshot:
    """SSI keeps SI's read behaviour for everything SI already guarantees."""

    def test_repeatable_reads_and_own_writes(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        a, _b = _make_accounts(db, balance=10)
        reader = db.begin()
        assert reader.get_node(a).get("balance") == 10
        with db.transaction() as tx:
            tx.set_node_property(a, "balance", 99)
        assert reader.get_node(a).get("balance") == 10  # snapshot holds
        reader.rollback()
        with db.transaction() as tx:
            tx.set_node_property(a, "note", "mine")
            assert tx.get_node(a).get("note") == "mine"  # read-your-own-writes
        db.close()

    def test_transaction_reports_isolation_level(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        with db.transaction() as tx:
            assert tx.isolation_level is IsolationLevel.SERIALIZABLE
        db.close()

    def test_queries_run_under_serializable(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        db.execute("CREATE (:Person {name: 'Ada'})-[:KNOWS]->(:Person {name: 'Bob'})")
        result = db.execute(
            "MATCH (p:Person {name: $name})-[:KNOWS]-(f) RETURN f.name", name="Ada"
        )
        assert [record["f.name"] for record in result.records()] == ["Bob"]
        db.close()

    def test_db_execute_routes_pure_reads_through_read_only_path(self):
        """Ad-hoc read statements get the free read-only SSI path."""
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        db.execute("CREATE (:Person {name: 'Ada'})")
        db.run_gc()  # drop the setup transaction's tracking record
        for _ in range(10):
            db.execute("MATCH (p:Person) RETURN p.name")
            db.execute("EXPLAIN CREATE (:Person)")  # EXPLAIN never writes
        cc = db.statistics()["engine"]["concurrency_control"]
        assert cc["tracked_transactions"] == 0, cc
        assert cc["siread_entries"] == 0 and cc["predicate_readers"] == 0, cc
        # ... while actual write statements still go read-write.
        db.execute("CREATE (:Person {name: 'Bob'})")
        assert len(db.execute("MATCH (p:Person) RETURN p.name").records()) == 2
        db.close()
