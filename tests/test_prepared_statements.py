"""Prepared statements: a cached plan runs without per-execution preparation
and keeps no per-execution state.

Deterministic spies, not timings: on a plan-cache hit nothing is parsed,
planned or compiled and every query instrument is updated once; a cached
plan is never written to (PROFILE accounting belongs to the profiled
execution's own plan); one prepared statement gives the reference
executor's rows, statistics and SIREAD keys across transactions and across
interleaved lazy results.
"""

from __future__ import annotations

import gc
import random
import time

import pytest

from reference_executor import reference_executor
from repro import GraphDatabase, IsolationLevel
from repro import query as query_module
from repro.query import cache, executor, expressions

from harness.graphs import build_social_graph

FRIENDS = (
    "MATCH (p:Person {name: $name})-[:KNOWS]-(f:Person) "
    "RETURN f.name ORDER BY f.name"
)
FRIENDS_OF_FRIENDS = (
    "MATCH (p:Person {name: $name})-[:KNOWS*1..2]-(f:Person) "
    "WHERE f.name <> $name RETURN DISTINCT f.name"
)
BUMP_SCORE = "MATCH (p:Person {name: $name}) SET p.score = p.score + 1"
LAZY_WALK = "MATCH (p:Person {name: $name})-[:KNOWS*]-(f) RETURN f.name LIMIT 5"


def _social_db(**options) -> GraphDatabase:
    db = GraphDatabase.in_memory(**options)
    build_social_graph(db, people=40, avg_friends=4, seed=5)
    return db


def person_names_of(db):
    with db.begin(read_only=True) as tx:
        return [node.get("name") for node in tx.find_nodes(label="Person")]


def _sociable_names(db, count: int):
    """``count`` person names with at least three friends each."""
    with db.transaction(read_only=True) as tx:
        return [
            person.get("name") for person in tx.find_nodes(label="Person")
            if len(tx.relationships_of(person, rel_types=["KNOWS"])) >= 3
        ][:count]


def _cached_plans(db):
    return list(db.engine.query_caches.plan._entries.values())


class TestCachedPlansAreImmutable:
    def test_repeated_executions_leave_no_state_on_the_cached_operators(self):
        db = _social_db(query_batch_size=2)
        names = person_names_of(db)
        try:
            for name in names[:6]:
                for text in (FRIENDS, FRIENDS_OF_FRIENDS, LAZY_WALK):
                    with db.transaction(read_only=True) as tx:
                        tx.execute(text, name=name).records()
                db.execute(BUMP_SCORE, name=name)
            plans = _cached_plans(db)
            assert len(plans) == 4
            for plan in plans:
                for op in plan.root.walk():
                    assert op.actual_rows is None and op.actual_batches == 0
                    assert op.actual_time_seconds is None
                    assert getattr(op, "actual_levels", None) is None
                    assert getattr(op, "actual_lazy_roots", 0) == 0
                assert "actual=-" in plan.render()
                assert "actual=0" not in plan.render()
        finally:
            db.close()

    def test_slow_query_entry_of_a_cached_plan_renders_no_actuals(self):
        db = _social_db(slow_query_seconds=0.0)
        name = person_names_of(db)[0]
        try:
            for _ in range(3):
                db.execute(FRIENDS_OF_FRIENDS, name=name)
            entry = db.slow_queries()[-1]
            assert "VarLengthExpand" in entry.plan
            assert "actual=-" in entry.plan and "levels=" not in entry.plan
            profiled = db.execute("PROFILE " + FRIENDS_OF_FRIENDS, name=name)
            assert "levels=" in db.slow_queries()[-1].plan
            assert "levels=" in profiled.render_plan()
        finally:
            db.close()

    def test_concurrent_lazy_walks_of_one_cached_plan_keep_their_own_state(self):
        """Two results of one prepared var-length read, pulled alternately,
        each return their own rows — at batch size 1, every pull resumes the
        shared pipeline from a different execution."""
        db = _social_db(query_batch_size=1)
        names = _sociable_names(db, 2)
        try:
            with db.transaction(read_only=True) as tx:
                expected = {
                    name: tx.execute(FRIENDS_OF_FRIENDS, name=name).values()
                    for name in names[:2]
                }
                first = iter(tx.execute(FRIENDS_OF_FRIENDS, name=names[0]))
                second = iter(tx.execute(FRIENDS_OF_FRIENDS, name=names[1]))
                pulled = {names[0]: [], names[1]: []}
                pending = [(names[0], first), (names[1], second)]
                while pending:
                    name, rows = pending.pop(0)
                    record = next(rows, None)
                    if record is not None:
                        pulled[name].append(record[0])
                        pending.append((name, rows))
            assert pulled == expected
            assert all(len(rows) > 2 for rows in expected.values())
        finally:
            db.close()


class _CallCounter:
    def __init__(self, monkeypatch):
        self.calls = {}
        self._monkeypatch = monkeypatch

    def spy(self, module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return real(*args, **kwargs)

        self._monkeypatch.setattr(module, name, counted)


class TestCacheHitDoesNoPreparation:
    def test_no_parse_plan_or_compile_on_a_hit(self, monkeypatch):
        db = _social_db()
        names = person_names_of(db)
        counter = _CallCounter(monkeypatch)
        for module, name in (
            (cache, "parse"),
            (query_module, "plan_query"),
            (expressions, "compile_expression"),
            (executor, "compile_expression"),
            (executor, "rel_property_fns"),
        ):
            counter.spy(module, name)
        try:
            texts = (FRIENDS, FRIENDS_OF_FRIENDS, BUMP_SCORE)
            for text in texts:
                db.execute(text, name=names[0])
            assert set(counter.calls) == {
                "parse", "plan_query", "compile_expression", "rel_property_fns",
            }
            counter.calls.clear()
            for name in names[1:4]:
                for text in texts:
                    with db.transaction() as tx:
                        tx.execute(text, name=name).consume()
            assert counter.calls == {}
        finally:
            db.close()

    def test_each_query_instrument_is_updated_once_per_statement(self):
        db = _social_db(query_batch_size=2)
        names = _sociable_names(db, 5)
        obs = db.observability
        updates = []
        try:
            db.execute(FRIENDS, name=names[0])
            db.execute(BUMP_SCORE, name=names[0])
            instruments = {
                "seconds": (obs.query_seconds, "observe"),
                "rows": (obs.query_rows, "inc"),
                "batches": (obs.query_batches, "inc"),
                "batch_rows": (obs.query_batch_rows, "observe_many"),
                "plan_hits": (obs.plan_cache_hits, "inc"),
                "read": (obs.query_kind("read"), "inc"),
                "write": (obs.query_kind("write"), "inc"),
            }
            for label, (instrument, method) in instruments.items():
                real = getattr(instrument, method)

                def spy(*args, real=real, label=label):
                    updates.append(label)
                    return real(*args)

                setattr(instrument, method, spy)
            obs.query_batch_rows.observe = lambda value: updates.append("observe")
            for name in names[1:5]:
                updates.clear()
                with db.transaction(read_only=True) as tx:
                    rows = tx.execute(FRIENDS, name=name).values()
                assert len(rows) > 2  # several batches of two
                assert sorted(updates) == sorted(
                    ["seconds", "rows", "batches", "batch_rows", "plan_hits", "read"]
                )
                updates.clear()
                db.execute(BUMP_SCORE, name=name)
                assert sorted(updates) == sorted(
                    ["seconds", "batches", "batch_rows", "plan_hits", "write"]
                )
        finally:
            db.close()


class TestPreparedStatementMatchesTheReference:
    @pytest.mark.parametrize("text", [BUMP_SCORE, FRIENDS, FRIENDS_OF_FRIENDS])
    def test_rows_and_statistics_across_transactions(self, text):
        outcomes = []
        for runtime in (reference_executor, None):
            db = _social_db(query_batch_size=2)
            names = person_names_of(db)
            rng = random.Random(3)
            try:
                runs = []
                for _ in range(6):
                    with db.transaction() as tx:
                        if runtime is None:
                            result = tx.execute(text, name=rng.choice(names))
                        else:
                            with runtime():
                                result = tx.execute(text, name=rng.choice(names))
                        runs.append((result.rows(), result.stats.as_dict()))
                scores = db.execute(
                    "MATCH (p:Person) RETURN p.name, p.score ORDER BY p.name"
                ).rows()
                outcomes.append((runs, scores))
                if runtime is None:
                    assert db.statistics()["query_cache"]["plan"]["hits"] >= 5
            finally:
                db.close()
        assert outcomes[1] == outcomes[0]

    @pytest.mark.parametrize("text", [BUMP_SCORE, FRIENDS, FRIENDS_OF_FRIENDS])
    def test_serializable_siread_keys_match_a_fresh_plan(self, text):
        """A prepared statement registers what a freshly prepared plan of
        the same text registers (``query_cache_size=0`` prepares every
        execution from scratch)."""
        registered = []
        for size in (0, 64):
            db = _social_db(isolation=IsolationLevel.SERIALIZABLE, query_cache_size=size)
            names = person_names_of(db)
            try:
                runs = []
                for name in names[:4]:
                    with db.transaction() as tx:
                        tx.execute(text, name=name).consume()
                        record = tx.engine_transaction.cc_record
                        runs.append((set(record.read_keys), set(record.predicates)))
                registered.append(runs)
            finally:
                db.close()
        assert all(keys for keys, _predicates in registered[0])
        assert registered[1] == registered[0]


NO_EMPTY_BATCH_QUERIES = [
    "MATCH (p:Person) WHERE p.age > 200 RETURN p.name",
    "MATCH (p:Person) RETURN p.name ORDER BY p.age DESC SKIP 3 LIMIT 4",
    "MATCH (p:Person)-[:KNOWS*1..2]-(f) RETURN DISTINCT f.name",
    "MATCH (p:Person)-[:KNOWS*]-(f) RETURN f.name LIMIT 7",
    "MATCH (c:City)<-[:LIVES_IN]-(p:Person) RETURN c.name, count(p) AS n",
    "MATCH (p:Person)-[r:KNOWS]-() WITH p, count(r) AS d RETURN p.name, d",
    "MATCH (p:Person) WHERE p.age > 200 RETURN count(*)",
    "MATCH (p:Person) WHERE p.age < 30 SET p.young = true RETURN p.name",
    "MATCH (p:Person) WHERE p.age > 85 CREATE (p)-[:OWNS]->(:Pet {of: p.name})",
    "MATCH (p:Person) WHERE p.age > 200 DETACH DELETE p",
    "MATCH (p:Person)-[r:KNOWS]->(f) WHERE p.age > 80 DELETE r RETURN f.name LIMIT 0",
]


@pytest.mark.parametrize("batch_size", [1, 2, 1024])
@pytest.mark.parametrize("text", NO_EMPTY_BATCH_QUERIES)
def test_no_operator_yields_an_empty_batch(text, batch_size, monkeypatch):
    """What the old per-operator wrapper filtered out must not exist: every
    batch every operator yields has a row (checked through the PROFILE
    build, which wraps each operator's stage)."""
    sizes = []

    def recording(op, stage):
        def run(ctx):
            for batch in stage(ctx):
                sizes.append((op.name, batch.size))
                yield batch

        return run

    monkeypatch.setattr(executor, "_profiled", recording)
    db = _social_db(query_batch_size=batch_size)
    try:
        db.execute("PROFILE " + text).consume()
    finally:
        db.close()
    assert sizes
    assert [entry for entry in sizes if entry[1] == 0] == []


class TestAbandonedLazyRead:
    def test_a_read_closed_early_is_a_read_timed_to_its_last_pulled_row(self):
        db = _social_db(query_batch_size=2)
        obs = db.observability
        try:
            with db.transaction(read_only=True) as tx:
                rows = iter(tx.execute("MATCH (p:Person) RETURN p.name"))
                next(rows)
                # The time an abandoned result stays alive is not query time.
                time.sleep(0.2)
                del rows
                gc.collect()
            kinds = {
                labels: child.value() for labels, child in obs.queries.children()
            }
            assert kinds == {("read",): 1.0}
            assert obs.query_seconds.count() == 1
            assert obs.query_seconds.sum() < 0.1
            assert obs.query_rows.value() == 1.0
        finally:
            db.close()
