"""Executor vs reference equivalence.

The vectorized batch executor is the only runtime; the row-at-a-time
operators in ``tests/reference_executor.py`` are the semantic reference.
These tests pin them together: every read template of the social query mix
must return byte-identical rows (same values, same order) under batch sizes
1, 2 and 1024, with the default version cache and a tiny one, and with
garbage collection off and after every commit — and the executor must preserve the snapshot-consistency and SSI-abort behaviour the
reference exhibits, including for the plans the batch runtime rewrites
(unbound-target expands and fused ``Expand -> count(r)`` aggregates) and
for queries that read what they wrote.
"""

from __future__ import annotations

import contextlib
import random
from typing import Callable, Dict, List, NamedTuple

import pytest

from reference_executor import reference_executor
from repro import GraphDatabase, IsolationLevel, TransactionAbortedError
from repro.errors import NodeNotFoundError
from repro.query import executor

from harness.graphs import build_social_graph


class QueryTemplate(NamedTuple):
    """One parameterised read query and its parameter sampler."""

    name: str
    text: str
    params: Callable[[random.Random, List[str]], Dict[str, object]]


def _person_param(rng: random.Random, names: List[str]) -> Dict[str, object]:
    return {"name": rng.choice(names)}


#: The read mix over a social graph: a point lookup, a filtered scan, one-
#: and two-hop traversals and two aggregates.
READ_TEMPLATES = (
    QueryTemplate(
        "point_lookup",
        "MATCH (p:Person {name: $name}) RETURN p.name, p.age",
        _person_param,
    ),
    QueryTemplate(
        "filtered_scan",
        "MATCH (p:Person) WHERE p.age >= $min_age "
        "RETURN p.name ORDER BY p.age DESC LIMIT 10",
        lambda rng, names: {"min_age": rng.randint(20, 80)},
    ),
    QueryTemplate(
        "friends",
        "MATCH (p:Person {name: $name})-[:KNOWS]-(f:Person) "
        "RETURN f.name ORDER BY f.name",
        _person_param,
    ),
    QueryTemplate(
        "friends_of_friends",
        "MATCH (p:Person {name: $name})-[:KNOWS*1..2]-(f:Person) "
        "WHERE f.name <> $name RETURN DISTINCT f.name",
        _person_param,
    ),
    QueryTemplate(
        "city_rollup",
        "MATCH (p:Person)-[:LIVES_IN]->(c:City) "
        "RETURN c.name AS city, count(p) AS residents ORDER BY residents DESC",
        lambda rng, names: {},
    ),
    QueryTemplate(
        "degree_rank",
        "MATCH (p:Person)-[r:KNOWS]-() WITH p, count(r) AS degree "
        "RETURN p.name, degree ORDER BY degree DESC LIMIT 5",
        lambda rng, names: {},
    ),
)


def person_names_of(db: GraphDatabase) -> List[str]:
    """The ``name`` of every ``Person`` (to parameterise the templates)."""
    with db.begin(read_only=True) as tx:
        return [node.get("name") for node in tx.find_nodes(label="Person")]


#: Batch-executor configurations under test: every required batch size, then
#: each under MVCC settings that change where a read finds its version — a
#: version cache far smaller than the graph (chains evicted and reloaded),
#: and a garbage-collection pass after every commit (versions reclaimed while
#: a snapshot that may still need them is open).
BATCH_CONFIGS = [
    pytest.param({"query_batch_size": 1}, id="batch1"),
    pytest.param({"query_batch_size": 2}, id="batch2"),
    pytest.param({"query_batch_size": 3}, id="batch3"),
    pytest.param({"query_batch_size": 4}, id="batch4"),
    pytest.param({"query_batch_size": 1024}, id="batch1024"),
    pytest.param(
        {"query_batch_size": 2, "version_cache_capacity": 8},
        id="batch2-small-version-cache",
    ),
    pytest.param(
        {"query_batch_size": 1, "gc_every_n_commits": 1},
        id="batch1-gc-every-commit",
    ),
    pytest.param(
        {"query_batch_size": 1024, "version_cache_capacity": 8,
         "gc_every_n_commits": 1},
        id="batch1024-small-version-cache-gc-every-commit",
    ),
]

PEOPLE = 60
AVG_FRIENDS = 4
GRAPH_SEED = 13


def _social_db(isolation: IsolationLevel, **options) -> GraphDatabase:
    db = GraphDatabase.in_memory(isolation=isolation, **options)
    build_social_graph(db, people=PEOPLE, avg_friends=AVG_FRIENDS, seed=GRAPH_SEED)
    return db


def _rows(db: GraphDatabase, text: str, params) -> list:
    with db.transaction(read_only=True) as tx:
        return [record.as_dict() for record in tx.execute(text, params).records()]


def _reference_rows(db: GraphDatabase, text: str, params) -> list:
    with reference_executor():
        return _rows(db, text, params)


#: Contexts an ``execute`` runs in: on the reference, then on the executor.
RUNTIMES = (reference_executor, contextlib.nullcontext)


def _var_length_expand(result):
    """The var-length expand operator of a profiled result's plan."""
    return next(
        op for op in result.plan.root.walk() if op.name == "VarLengthExpand"
    )


@pytest.fixture(params=BATCH_CONFIGS)
def batch_config(request):
    return request.param


class TestTemplateEquivalence:
    """Every read template, reference vs every batch configuration."""

    @pytest.fixture(scope="class")
    def row_db(self):
        db = _social_db(IsolationLevel.SNAPSHOT)
        yield db
        db.close()

    @pytest.mark.parametrize(
        "template", READ_TEMPLATES, ids=[t.name for t in READ_TEMPLATES]
    )
    def test_template_rows_identical(self, template, batch_config, row_db):
        batch_db = _social_db(IsolationLevel.SNAPSHOT, **batch_config)
        names = person_names_of(row_db)
        try:
            # Several parameter draws per template, deterministic per run.
            rng = random.Random(97)
            for _ in range(4):
                params = template.params(rng, names)
                expected = _reference_rows(row_db, template.text, params)
                actual = _rows(batch_db, template.text, params)
                assert actual == expected, (
                    f"{template.name} diverged under {batch_config}"
                )
        finally:
            batch_db.close()


ITEMS = 40


def _build_items(db, count=ITEMS):
    with db.transaction() as tx:
        for index in range(count):
            tx.create_node(["Item"], {"value": 0, "index": index})


def _commit_interference(db):
    with db.transaction() as tx:
        for index in range(10):
            tx.create_node(["Item"], {"value": 1, "index": 1000 + index})
        for node in tx.find_nodes(label="Item", key="value", value=0):
            tx.set_node_property(node, "value", 1)


class TestBatchSnapshotConsistency:
    """The snapshot guarantees of ``test_query_snapshot`` hold per batch size."""

    def test_long_query_sees_one_snapshot(self, batch_config):
        db = GraphDatabase.in_memory(
            isolation=IsolationLevel.SNAPSHOT, **batch_config
        )
        try:
            _build_items(db)
            with db.begin(read_only=True) as tx:
                iterator = iter(tx.execute("MATCH (n:Item) RETURN n.value AS v"))
                head = [next(iterator) for _ in range(5)]
                _commit_interference(db)
                tail = list(iterator)
            values = [record["v"] for record in head + tail]
            assert values == [0] * ITEMS
        finally:
            db.close()

    def test_aggregate_spanning_commit(self, batch_config):
        db = GraphDatabase.in_memory(
            isolation=IsolationLevel.SNAPSHOT, **batch_config
        )
        try:
            _build_items(db)
            with db.begin(read_only=True) as tx:
                iterator = iter(
                    tx.execute("MATCH (n:Item) RETURN n.index AS i ORDER BY i")
                )
                first = next(iterator)
                _commit_interference(db)
                rest = [record["i"] for record in iterator]
                assert tx.execute("MATCH (n:Item) RETURN count(*)").value() == ITEMS
                assert (
                    tx.execute(
                        "MATCH (n:Item) WHERE n.value = 1 RETURN count(*)"
                    ).value()
                    == 0
                )
            assert [first["i"]] + rest == list(range(ITEMS))
        finally:
            db.close()

    def test_var_length_traversal_spanning_commit(self, batch_config):
        db = GraphDatabase.in_memory(
            isolation=IsolationLevel.SNAPSHOT, **batch_config
        )
        try:
            with db.transaction() as tx:
                previous = None
                for index in range(8):
                    node = tx.create_node(["Step"], {"pos": index})
                    if previous is not None:
                        tx.create_relationship(previous, node, "NEXT")
                    previous = node.id
            with db.begin(read_only=True) as tx:
                iterator = iter(
                    tx.execute(
                        "MATCH (s:Step {pos: 0})-[:NEXT*1..20]->(x) "
                        "RETURN x.pos AS pos"
                    )
                )
                first = next(iterator)
                with db.transaction() as wtx:
                    start = wtx.find_nodes(label="Step", key="pos", value=0)[0]
                    branch = wtx.create_node(["Step"], {"pos": 100})
                    wtx.create_relationship(start, branch, "NEXT")
                rest = [record["pos"] for record in iterator]
            assert sorted([first["pos"]] + rest) == list(range(1, 8))
        finally:
            db.close()


def _commit_outcomes(db: GraphDatabase, *txns) -> tuple:
    """Commit in order; each side's outcome, aborts with their classified
    reason as the engine counted it."""
    outcomes = []
    for txn in txns:
        try:
            txn.commit()
            outcomes.append("committed")
        except TransactionAbortedError:
            outcomes.append("aborted")
    reasons = db.statistics()["engine"]["transactions"]["abort_reasons"]
    return tuple(outcomes), {k: v for k, v in reasons.items() if v}


def _write_skew_outcome(db: GraphDatabase, warm: bool = False) -> tuple:
    """Run a query-driven write skew; returns each side's commit outcome.

    ``warm`` runs the reads once in an earlier transaction first, so the
    racing pair is served from the engine's shared caches."""
    with db.transaction() as tx:
        tx.execute("CREATE (:Acct {k: 'a', v: 100})", {})
        tx.execute("CREATE (:Acct {k: 'b', v: 100})", {})
    if warm:
        with db.transaction() as tx:
            assert tx.execute("MATCH (n:Acct) RETURN sum(n.v)").value() == 200
    t1 = db.begin()
    t2 = db.begin()
    assert t1.execute("MATCH (n:Acct) RETURN sum(n.v)").value() == 200
    assert t2.execute("MATCH (n:Acct) RETURN sum(n.v)").value() == 200
    t1.execute("MATCH (n:Acct {k: 'a'}) SET n.v = n.v - 150", {})
    t2.execute("MATCH (n:Acct {k: 'b'}) SET n.v = n.v - 150", {})
    return _commit_outcomes(db, t1, t2)


def _adjacency_skew_outcome(
    db: GraphDatabase, warm: bool = False,
    read: str = "MATCH (n:P {k: $k})-[r:KNOWS]-() RETURN count(r)",
) -> tuple:
    """Cross rw-antidependency through adjacency predicate reads.

    Each side counts the other's future write target with the exact shape
    the batch runtime optimises (anonymous terminal target, fused
    ``count(r)``) — if either rewrite dropped the predicate or SIREAD
    registration, the dangerous structure would go undetected and both
    sides would commit.
    """
    with db.transaction() as tx:
        tx.execute("CREATE (:P {k: 'x'})", {})
        tx.execute("CREATE (:P {k: 'y'})", {})
        tx.execute("CREATE (:P {k: 'z'})", {})
    if warm:
        with db.transaction() as tx:
            for k in "xy":
                assert tx.execute(read, {"k": k}).value() == 0
    t1 = db.begin()
    t2 = db.begin()
    assert t1.execute(read, {"k": "x"}).value() == 0
    assert t2.execute(read, {"k": "y"}).value() == 0
    t1.execute(
        "MATCH (a:P {k: 'y'}), (b:P {k: 'z'}) CREATE (a)-[:KNOWS]->(b)", {}
    )
    t2.execute(
        "MATCH (a:P {k: 'x'}), (b:P {k: 'z'}) CREATE (a)-[:KNOWS]->(b)", {}
    )
    return _commit_outcomes(db, t1, t2)


def _unbounded_adjacency_skew_outcome(db: GraphDatabase, warm: bool = False) -> tuple:
    """The adjacency skew read through an unbounded hop: the lazy walk has
    to register the adjacency predicate of every node it expands."""
    return _adjacency_skew_outcome(
        db, warm, "MATCH (n:P {k: $k})-[r:KNOWS*]-(m) RETURN count(r)"
    )


#: The second committer aborts, classified as an rw-antidependency.
SKEW_OUTCOME = (("committed", "aborted"), {"rw-antidependency": 1})


class TestSSIAbortEquivalence:
    """Identical serialization aborts — same transaction, same classified
    reason — from the reference and the executor, per batch config, and with
    the engine's shared caches cold or pre-warmed by an earlier transaction."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm-cache"])
    @pytest.mark.parametrize(
        "scenario",
        [_write_skew_outcome, _adjacency_skew_outcome,
         _unbounded_adjacency_skew_outcome],
        ids=["write-skew", "adjacency-skew", "unbounded-adjacency-skew"],
    )
    def test_outcome_matches_reference(self, scenario, warm, batch_config):
        row_db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        batch_db = GraphDatabase.in_memory(
            isolation=IsolationLevel.SERIALIZABLE, **batch_config
        )
        try:
            with reference_executor():
                assert scenario(row_db, warm) == SKEW_OUTCOME
            assert scenario(batch_db, warm) == SKEW_OUTCOME
        finally:
            row_db.close()
            batch_db.close()

    def test_lazy_walk_registers_the_reference_sireads(self, batch_config):
        """Under SERIALIZABLE an unbounded walk leaves the SIREAD keys and
        predicates the reference's traversal leaves — no read goes untracked,
        none is added."""
        text = "MATCH (s:N {k: 'c'})-[r:KNOWS*]-(x) RETURN x.k"
        registered = []
        for runtime in RUNTIMES:
            db = GraphDatabase.in_memory(
                isolation=IsolationLevel.SERIALIZABLE, **batch_config
            )
            try:
                _build_motifs(db)
                with db.transaction() as tx, runtime():
                    rows = tx.execute(text).rows()
                    record = tx._txn.cc_record
                    registered.append(
                        (rows, set(record.read_keys), set(record.predicates))
                    )
            finally:
                db.close()
        assert registered[0][1] and registered[0][2]
        assert registered[1] == registered[0]


def _build_motifs(db: GraphDatabase) -> None:
    """A triangle (a, b, c), a 4-cycle (c, d, e, f), a self-loop on g, and
    LIKES edges across them — every shape the var-length pruning rules
    (no back-walk, relationship isomorphism) treat differently."""
    with db.transaction() as tx:
        node = {
            key: tx.create_node(["N"], {"k": key}) for key in "abcdefg"
        }
        for start, end, rel_type, weight in (
            ("a", "b", "KNOWS", 1), ("b", "c", "KNOWS", 2), ("c", "a", "KNOWS", 1),
            ("c", "d", "KNOWS", 1), ("d", "e", "KNOWS", 1), ("e", "f", "KNOWS", 2),
            ("f", "c", "KNOWS", 1), ("g", "g", "KNOWS", 1), ("f", "g", "KNOWS", 1),
            ("a", "d", "LIKES", 1), ("e", "b", "LIKES", 2),
        ):
            tx.create_relationship(
                node[start], node[end], rel_type, {"w": weight}
            )


#: (query, parameters): every way a var-length hop can be shaped or used.
VAR_LENGTH_QUERIES = [
    pytest.param(
        "MATCH (s:N {k: 'a'})-[:KNOWS*1..3]-(x) RETURN x.k", {},
        id="triangle-undirected-typed",
    ),
    pytest.param(
        "MATCH (s:N {k: 'c'})-[:KNOWS*1..4]-(x) RETURN x.k", {},
        id="four-cycle-closes",
    ),
    pytest.param(
        "MATCH (s:N {k: 'a'})-[*1..3]->(x) RETURN x.k", {},
        id="directed-untyped",
    ),
    pytest.param(
        "MATCH (s:N {k: 'e'})<-[:KNOWS|LIKES*1..2]-(x:N) RETURN x.k", {},
        id="incoming-two-types",
    ),
    pytest.param(
        "MATCH (s:N {k: 'c'})-[r:KNOWS*0..2]-(x) RETURN x.k, r", {},
        id="zero-length-and-list-binding",
    ),
    pytest.param(
        "MATCH (s:N {k: 'a'})-[r*2..2]-(x) RETURN r, x.k", {},
        id="exact-two-hops",
    ),
    pytest.param(
        "MATCH (s:N)-[:KNOWS*1..3]-(x:N) RETURN s.k, x.k", {},
        id="every-source-self-loop-included",
    ),
    pytest.param(
        "MATCH (s:N {k: 'a'})-[:KNOWS*1..4 {w: $w}]-(x) RETURN x.k", {"w": 1},
        id="relationship-property-map",
    ),
    pytest.param(
        "MATCH (s:N {k: 'a'})-[:KNOWS]->(m)-[r:KNOWS*1..3]-(s) RETURN m.k, r", {},
        id="into-bound-target",
    ),
    pytest.param(
        "MATCH (s:N {k: 'a'})-[r1:KNOWS]-(m)-[r2:KNOWS*1..2]-(x) "
        "RETURN r1, r2, x.k", {},
        id="excludes-earlier-hop-relationship",
    ),
    pytest.param(
        "MATCH (s:N {k: 'a'})-[*1..1]-(m)-[]-(x) RETURN m.k, x.k", {},
        id="anonymous-var-length-then-hop",
    ),
    pytest.param(
        "MATCH (s:N {k: 'c'})-[:KNOWS*1..2]-(m)-[:KNOWS]-(x) RETURN m.k, x.k", {},
        id="anonymous-typed-var-length-then-typed-hop",
    ),
    pytest.param(
        "MATCH (s:N {k: 'a'})-[*1..2]-(m)-[:KNOWS*1..2]-(x) RETURN m.k, x.k", {},
        id="anonymous-var-length-then-var-length",
    ),
    pytest.param(
        "MATCH (s:N {k: 'c'})-[:KNOWS*1..3]-(x) RETURN x.k LIMIT 3", {},
        id="limit-above-bounded",
    ),
    pytest.param(
        "MATCH (s:N {k: 'c'})-[:KNOWS*]-(x) RETURN x.k LIMIT 3", {},
        id="limit-above-unbounded",
    ),
    pytest.param(
        "MATCH (s:N {k: 'c'})-[r:KNOWS*2..]->(x) RETURN r, x.k", {},
        id="unbounded-stays-lazy",
    ),
]


class TestVarLengthEquivalence:
    """The var-length expand — frontier-batched or lazy — emits the
    reference's rows in the reference's order, whatever the batch size."""

    @pytest.fixture(scope="class")
    def row_db(self):
        db = GraphDatabase.in_memory()
        _build_motifs(db)
        yield db
        db.close()

    @pytest.mark.parametrize("text, params", VAR_LENGTH_QUERIES)
    def test_rows_and_order_identical(self, text, params, batch_config, row_db):
        batch_db = GraphDatabase.in_memory(**batch_config)
        try:
            _build_motifs(batch_db)
            expected = _reference_rows(row_db, text, params)
            assert expected, "the case must produce rows to compare"
            assert _rows(batch_db, text, params) == expected
        finally:
            batch_db.close()

    def test_profile_reports_levels_like_any_batch_operator(self):
        db = GraphDatabase.in_memory(query_batch_size=4)
        try:
            _build_motifs(db)
            result = db.execute("PROFILE MATCH (s:N)-[:KNOWS*1..3]-(x) RETURN x.k")
            expand = _var_length_expand(result)
            assert expand.actual_rows == 87 and expand.actual_batches == 22
            # Two input batches of the 7 sources, three levels each: one
            # round trip per level per input batch, whole frontier at once.
            assert expand.actual_levels == [[2, 7], [2, 17], [2, 28]]
            rendered = result.render_plan()
            assert "frontier" in rendered
            assert "levels=3 level-batches=2,2,2 level-paths=7,17,28" in rendered
            lazy = db.execute("EXPLAIN MATCH (s:N)-[:KNOWS*]-(x) RETURN x.k")
            assert "lazy" in lazy.render_plan()
        finally:
            db.close()

    def test_bounded_patterns_walk_lazily_only_past_the_budget(self, monkeypatch):
        """Routing is by plan shape and by what the run observes: an
        unbounded pattern walks every root lazily, a bounded one only a root
        whose frontier outgrows the path budget."""
        db = GraphDatabase.in_memory()

        def profiled(text):
            result = db.execute("PROFILE " + text)
            return _var_length_expand(result).actual_lazy_roots, result.render_plan()

        try:
            _build_motifs(db)
            bounded = "MATCH (s:N {k: 'a'})-[:KNOWS*1..3]-(x) RETURN x.k"
            for text in (bounded, "MATCH (s:N {k: 'a'})-[:KNOWS*0..0]-(x) RETURN x.k"):
                lazy_roots, rendered = profiled(text)
                assert lazy_roots == 0
                assert " frontier" in rendered and "lazy" not in rendered
            lazy_roots, rendered = profiled(
                "MATCH (s:N {k: 'a'})-[:KNOWS*]-(x) RETURN x.k LIMIT 1"
            )
            assert lazy_roots == 1
            assert " lazy " in rendered and "lazy-roots=1" in rendered
            monkeypatch.setattr(executor, "FRONTIER_PATH_BUDGET", 3)
            lazy_roots, rendered = profiled(bounded)
            assert lazy_roots == 1
            assert " frontier" in rendered and "lazy-roots=1" in rendered
        finally:
            db.close()

    @pytest.mark.parametrize("budget", [1, 3, 12])
    @pytest.mark.parametrize("text, params", VAR_LENGTH_QUERIES)
    def test_path_budget_changes_no_row(
        self, text, params, budget, batch_config, row_db, monkeypatch
    ):
        """Past the budget a root group is halved, and a single root that
        still does not fit is walked lazily: the same rows in the same order
        either way."""
        monkeypatch.setattr(executor, "FRONTIER_PATH_BUDGET", budget)
        batch_db = GraphDatabase.in_memory(**batch_config)
        try:
            _build_motifs(batch_db)
            assert _rows(batch_db, text, params) == _reference_rows(
                row_db, text, params
            )
        finally:
            batch_db.close()

    @pytest.fixture
    def dense_db(self):
        """60 nodes, 360 random KNOWS edges: ~10^7 paths within seven hops."""
        db = GraphDatabase.in_memory()
        rng = random.Random(7)
        with db.transaction() as tx:
            nodes = [tx.create_node(["N"], {"k": k}) for k in range(60)]
            pairs = set()
            while len(pairs) < 360:
                pairs.add(tuple(sorted(rng.sample(range(60), 2))))
            for start, end in sorted(pairs):
                tx.create_relationship(nodes[start], nodes[end], "KNOWS")
        yield db
        db.close()

    def test_limit_above_a_large_bound_stays_cheap(self, dense_db):
        """``LIMIT 1`` above ``*1..7`` on a dense graph must not build the
        neighbourhood first: the frontier gives up at its path budget and the
        root is walked lazily, as under the reference."""
        text = "MATCH (s:N {k: 0})-[:KNOWS*1..7]-(x) RETURN x.k LIMIT 1"
        with reference_executor():
            expected = dense_db.execute(text).rows()
        result = dense_db.execute("PROFILE " + text)
        assert result.rows() == expected and len(expected) == 1
        expand = _var_length_expand(result)
        grown = sum(paths for _trips, paths in expand.actual_levels)
        # One attempt, abandoned within one node's degree of the budget.
        assert grown <= executor.FRONTIER_PATH_BUDGET + 60
        assert expand.actual_lazy_roots == 1
        assert "lazy-roots=1" in result.render_plan()

    def test_limit_above_an_unbounded_pattern_expands_what_it_emits(self, dense_db):
        """``LIMIT 1`` above ``-[*]-`` costs one output batch, whatever the
        graph holds: a path's end node is expanded only after the path has
        been emitted, so the walk expands no more nodes than it emits rows."""
        text = "MATCH (s:N {k: 0})-[:KNOWS*]-(x) RETURN x.k LIMIT 1"
        with reference_executor():
            expected = dense_db.execute(text).rows()
        with dense_db.transaction(read_only=True) as tx:
            expanded = []
            expand_many = tx.expand_many

            def spy(nodes, *args):
                expanded.append([node.id for node in nodes])
                return expand_many(nodes, *args)

            tx.expand_many = spy
            result = tx.execute("PROFILE " + text)
            assert result.rows() == expected and len(expected) == 1
        expand = _var_length_expand(result)
        assert expand.actual_batches == 1 and expand.actual_lazy_roots == 1
        assert all(len(nodes) == 1 for nodes in expanded)
        assert len(expanded) <= expand.actual_rows == 1024
        # Lazy from the first path: no frontier level was ever grown.
        assert expand.actual_levels == []

    def test_unbounded_pattern_on_a_cycle_terminates_in_reference_order(
        self, batch_config, row_db
    ):
        """Relationship isomorphism is what ends an unbounded walk on a cyclic
        graph; every source, every direction, rows and order as the reference."""
        batch_db = GraphDatabase.in_memory(**batch_config)
        try:
            _build_motifs(batch_db)
            for text in (
                "MATCH (s:N)-[r:KNOWS*]-(x) RETURN s.k, r, x.k",
                "MATCH (s:N)-[r*2..]->(x:N) RETURN s.k, r, x.k",
                "MATCH (s:N {k: 'c'})<-[r:KNOWS|LIKES*0..]-(x) RETURN r, x.k",
            ):
                expected = _reference_rows(row_db, text, {})
                assert len(expected) > 7
                assert _rows(batch_db, text, {}) == expected
        finally:
            batch_db.close()

    def test_invisible_source_raises_like_the_traversal(self, batch_config):
        """The traversal re-reads its start node; so does the var-length
        expand, frontier or lazy: a source deleted earlier in the query is an
        error, never a stale zero-length match."""
        for hops in ("*0..1", "*0.."):
            text = (
                "MATCH (s:N {k: 'g'}) DETACH DELETE s WITH s "
                f"MATCH (s)-[:KNOWS{hops}]-(x) RETURN x.k"
            )
            for runtime in RUNTIMES:
                db = GraphDatabase.in_memory(**batch_config)
                try:
                    _build_motifs(db)
                    with pytest.raises(NodeNotFoundError), runtime():
                        db.execute(text).rows()
                finally:
                    db.close()

#: Queries that read what they wrote: a later ``MATCH`` sees all of an
#: earlier write clause's effects, at every batch size.
WRITE_THEN_READ_QUERIES = [
    pytest.param(
        "MATCH (a:N) WHERE a.k < 'd' SET a.seen = 1 WITH a "
        "MATCH (x:N) WHERE x.seen = 1 RETURN a.k, x.k",
        id="set-then-match",
    ),
    pytest.param(
        "MATCH (a:N {k: 'c'})-[r:KNOWS]-(b) DELETE r WITH a, b "
        "MATCH (b)-[r2]-(c) RETURN b.k, c.k",
        id="delete-then-match",
    ),
    pytest.param(
        "MATCH (a:N) WHERE a.k < 'd' CREATE (a)-[:MADE]->(m:M {k: a.k}) WITH a "
        "MATCH (x:M) RETURN a.k, x.k",
        id="create-then-match",
    ),
]


class TestWriteThenReadEquivalence:
    """Rows, row order, statistics and the state left behind are the
    reference's, whatever the batch size."""

    @pytest.mark.parametrize("text", WRITE_THEN_READ_QUERIES)
    def test_rows_statistics_and_state_identical(self, text, batch_config):
        outcomes = []
        for runtime in RUNTIMES:
            db = GraphDatabase.in_memory(**batch_config)
            try:
                _build_motifs(db)
                with runtime():
                    result = db.execute(text)
                state = db.execute(
                    "MATCH (n) RETURN labels(n), n.k, n.seen ORDER BY n.k, labels(n)"
                ).rows()
                edges = db.execute(
                    "MATCH (a)-[r]->(b) RETURN a.k, type(r), b.k"
                ).rows()
                outcomes.append(
                    (result.rows(), result.stats.as_dict(), state, sorted(edges))
                )
            finally:
                db.close()
        rows, stats = outcomes[0][:2]
        assert rows and any(stats.values())
        assert outcomes[1] == outcomes[0]
