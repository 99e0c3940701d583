"""Tests for the GraphDatabase facade."""

import inspect
import pathlib
import re

import pytest

from repro import ConflictPolicy, GraphDatabase, IsolationLevel, ReproError
from repro.api.runtime import EngineRuntime


class TestConstruction:
    def test_isolation_accepts_strings(self):
        db = GraphDatabase.in_memory(isolation="read_committed")
        assert db.isolation_level is IsolationLevel.READ_COMMITTED
        assert not db.is_snapshot_isolation
        db.close()

    def test_serializable_accepted(self):
        db = GraphDatabase.in_memory(isolation="serializable")
        assert db.isolation_level is IsolationLevel.SERIALIZABLE
        assert db.is_snapshot_isolation  # SSI runs the MVCC engine
        db.close()

    def test_unknown_isolation_rejected(self):
        with pytest.raises(ValueError):
            GraphDatabase.in_memory(isolation="chaos_mode")

    def test_unknown_conflict_policy_rejected(self):
        with pytest.raises(ValueError):
            GraphDatabase.in_memory(conflict_policy="last_writer_wins")

    def test_conflict_policy_accepts_string(self):
        db = GraphDatabase.in_memory(conflict_policy="first_committer_wins")
        assert db.engine.cc.conflict_policy is ConflictPolicy.FIRST_COMMITTER_WINS
        db.close()

    def test_context_manager_closes(self):
        with GraphDatabase.in_memory() as db:
            with db.transaction() as tx:
                tx.create_node(["Person"])
        with pytest.raises(ReproError):
            db.begin()

    def test_close_is_idempotent(self, si_db):
        si_db.close()
        si_db.close()

    def test_readme_option_table_names_only_real_keywords(self):
        """``GraphDatabase(**options)`` forwards to ``EngineRuntime``; the
        README table must not advertise an option that no longer exists."""
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        _heading, _, rest = readme.read_text(encoding="utf-8").partition(
            "Tuning knobs on `GraphDatabase`"
        )
        table = rest.split("\n## ", 1)[0]
        options = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
        assert len(options) >= 8, "README option table not found"
        keywords = inspect.signature(EngineRuntime.__init__).parameters
        assert [name for name in options if name not in keywords] == []

    def test_engine_runtime_options_census(self):
        """Every construction option, by name: a new knob is a diff here."""
        parameters = inspect.signature(EngineRuntime.__init__).parameters.values()
        keywords = [p.name for p in parameters if p.kind is inspect.Parameter.KEYWORD_ONLY]
        assert keywords == [
            "isolation",
            "conflict_policy",
            "page_cache_pages",
            "wal_sync",
            "version_cache_capacity",
            "gc_every_n_commits",
            "commit_stripes",
            "group_commit",
            "query_cache_size",
            "query_batch_size",
            "tracing",
            "trace_sample_rate",
            "slow_query_seconds",
            "slow_query_capacity",
            "redact_parameters",
            "failpoints",
        ]

    @pytest.mark.parametrize(
        "option", [{"morsel_workers": 2}, {"safe_snapshots": False}]
    )
    def test_removed_option_is_rejected(self, option):
        with pytest.raises(TypeError):
            GraphDatabase.in_memory(**option)


class TestMaintenance:
    def test_statistics_shape(self, any_db):
        with any_db.transaction() as tx:
            tx.create_node(["Person"])
        stats = any_db.statistics()
        assert stats["isolation"] == any_db.isolation_level.value
        assert "store" in stats and "page_cache" in stats and "engine" in stats

    def test_run_gc_only_for_snapshot(self, si_db, rc_db):
        assert si_db.run_gc() is not None
        assert rc_db.run_gc() is None

    def test_checkpoint(self, any_db):
        with any_db.transaction() as tx:
            tx.create_node(["Person"])
        any_db.checkpoint()
        assert any_db.store.wal.size_bytes() == 0

    def test_gc_every_n_commits(self):
        db = GraphDatabase.in_memory(gc_every_n_commits=2)
        with db.transaction() as tx:
            node = tx.create_node(["Item"], {"v": 0})
        for value in range(3):
            with db.transaction() as tx:
                tx.set_node_property(node.id, "v", value)
        assert db.engine.gc.collections_run >= 1
        db.close()

    def test_read_only_commits_never_trigger_gc(self):
        db = GraphDatabase.in_memory(gc_every_n_commits=1)
        with db.transaction() as tx:
            node = tx.create_node(["Item"], {"v": 0})
        passes_after_write = db.engine.gc.collections_run
        # A read-heavy workload has nothing for GC to reclaim, so no-write
        # commits must not count toward the trigger.
        for _ in range(5):
            with db.transaction(read_only=True) as tx:
                tx.get_node(node.id)
        assert db.engine.gc.collections_run == passes_after_write
        with db.transaction() as tx:
            tx.set_node_property(node.id, "v", 1)
        assert db.engine.gc.collections_run == passes_after_write + 1
        db.close()


class TestPersistence:
    @pytest.mark.parametrize("isolation", [IsolationLevel.SNAPSHOT, IsolationLevel.READ_COMMITTED])
    def test_reopen_from_disk(self, disk_db_path, isolation):
        db = GraphDatabase.open(disk_db_path, isolation=isolation)
        with db.transaction() as tx:
            alice = tx.create_node(["Person"], {"name": "Alice"})
            bob = tx.create_node(["Person"], {"name": "Bob"})
            tx.create_relationship(alice, bob, "KNOWS", {"since": 2016})
        db.close()

        reopened = GraphDatabase.open(disk_db_path, isolation=isolation)
        with reopened.transaction(read_only=True) as tx:
            people = tx.find_nodes(label="Person")
            assert {p["name"] for p in people} == {"Alice", "Bob"}
            rels = tx.relationships_of(people[0].id)
            assert rels[0]["since"] == 2016
        reopened.close()

    def test_snapshot_semantics_survive_reopen(self, disk_db_path):
        db = GraphDatabase.open(disk_db_path)
        with db.transaction() as tx:
            node_id = tx.create_node(["Item"], {"v": 1}).id
        db.close()

        reopened = GraphDatabase.open(disk_db_path)
        reader = reopened.begin(read_only=True)
        with reopened.transaction() as tx:
            tx.set_node_property(node_id, "v", 2)
        assert reader.get_node(node_id)["v"] == 1
        reader.rollback()
        with reopened.transaction(read_only=True) as tx:
            assert tx.get_node(node_id)["v"] == 2
        reopened.close()
