"""Batch/row executor equivalence.

The vectorized batch executor is the default runtime; the row-at-a-time
executor is the semantic reference.  These tests pin them together: every
read template of the E10 workload mix must return byte-identical rows (same
values, same order) under batch sizes 1, 2 and 1024, with and without
morsel-parallel leaf scans — and the batch executor must preserve the
snapshot-consistency and SSI-abort behaviour the row executor exhibits,
including for the plans the batch runtime rewrites (unbound-target expands
and fused ``Expand -> count(r)`` aggregates).
"""

from __future__ import annotations

import random

import pytest

from repro import GraphDatabase, IsolationLevel, TransactionAbortedError
from repro.errors import NodeNotFoundError
from repro.workload import READ_TEMPLATES, build_social_graph, person_names_of

#: Batch-executor configurations under test: every required batch size, each
#: with morsel-parallel leaf scans off and forced on (two workers, every scan
#: eligible).
BATCH_CONFIGS = [
    pytest.param({"query_batch_size": 1}, id="batch1"),
    pytest.param({"query_batch_size": 2}, id="batch2"),
    pytest.param({"query_batch_size": 1024}, id="batch1024"),
    pytest.param(
        {"query_batch_size": 1, "morsel_workers": 2, "morsel_threshold": 1},
        id="batch1-morsel",
    ),
    pytest.param(
        {"query_batch_size": 2, "morsel_workers": 2, "morsel_threshold": 1},
        id="batch2-morsel",
    ),
    pytest.param(
        {"query_batch_size": 1024, "morsel_workers": 2, "morsel_threshold": 1},
        id="batch1024-morsel",
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


@pytest.fixture(params=BATCH_CONFIGS)
def batch_config(request):
    return request.param


class TestTemplateEquivalence:
    """Every E10 read template, row executor vs every batch configuration."""

    @pytest.fixture(scope="class")
    def row_db(self):
        db = _social_db(IsolationLevel.SNAPSHOT, query_executor="row")
        yield db
        db.close()

    @pytest.mark.parametrize(
        "template", READ_TEMPLATES, ids=[t.name for t in READ_TEMPLATES]
    )
    def test_template_rows_identical(self, template, batch_config, row_db):
        batch_db = _social_db(
            IsolationLevel.SNAPSHOT, query_executor="batch", **batch_config
        )
        names = person_names_of(row_db)
        try:
            # Several parameter draws per template, deterministic per run.
            rng = random.Random(97)
            for _ in range(4):
                params = template.params(rng, names)
                expected = _rows(row_db, template.text, params)
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


def _adjacency_skew_outcome(db: GraphDatabase, warm: bool = False) -> tuple:
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
                assert tx.execute(
                    "MATCH (n:P {k: $k})-[r:KNOWS]-() RETURN count(r)", {"k": k}
                ).value() == 0
    t1 = db.begin()
    t2 = db.begin()
    assert (
        t1.execute("MATCH (n:P {k: 'x'})-[r:KNOWS]-() RETURN count(r)").value() == 0
    )
    assert (
        t2.execute("MATCH (n:P {k: 'y'})-[r:KNOWS]-() RETURN count(r)").value() == 0
    )
    t1.execute(
        "MATCH (a:P {k: 'y'}), (b:P {k: 'z'}) CREATE (a)-[:KNOWS]->(b)", {}
    )
    t2.execute(
        "MATCH (a:P {k: 'x'}), (b:P {k: 'z'}) CREATE (a)-[:KNOWS]->(b)", {}
    )
    return _commit_outcomes(db, t1, t2)


#: The second committer aborts, classified as an rw-antidependency.
SKEW_OUTCOME = (("committed", "aborted"), {"rw-antidependency": 1})


class TestSSIAbortEquivalence:
    """Identical serialization aborts — same transaction, same classified
    reason — from both executors, per batch config, and with the engine's
    shared caches cold or pre-warmed by an earlier transaction."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm-cache"])
    @pytest.mark.parametrize(
        "scenario", [_write_skew_outcome, _adjacency_skew_outcome],
        ids=["write-skew", "adjacency-skew"],
    )
    def test_outcome_matches_row_executor(self, scenario, warm, batch_config):
        row_db = GraphDatabase.in_memory(
            isolation=IsolationLevel.SERIALIZABLE, query_executor="row"
        )
        batch_db = GraphDatabase.in_memory(
            isolation=IsolationLevel.SERIALIZABLE, **batch_config
        )
        try:
            assert scenario(row_db, warm) == SKEW_OUTCOME
            assert scenario(batch_db, warm) == SKEW_OUTCOME
        finally:
            row_db.close()
            batch_db.close()


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
    """The frontier-batched var-length expand emits the row executor's rows
    in the row executor's order, whatever the batch size."""

    @pytest.fixture(scope="class")
    def row_db(self):
        db = GraphDatabase.in_memory(query_executor="row")
        _build_motifs(db)
        yield db
        db.close()

    @pytest.mark.parametrize("text, params", VAR_LENGTH_QUERIES)
    def test_rows_and_order_identical(self, text, params, batch_config, row_db):
        batch_db = GraphDatabase.in_memory(query_executor="batch", **batch_config)
        try:
            _build_motifs(batch_db)
            expected = _rows(row_db, text, params)
            assert expected, "the case must produce rows to compare"
            assert _rows(batch_db, text, params) == expected
        finally:
            batch_db.close()

    def test_profile_reports_levels_like_any_batch_operator(self):
        db = GraphDatabase.in_memory(query_batch_size=4)
        try:
            _build_motifs(db)
            result = db.execute("PROFILE MATCH (s:N)-[:KNOWS*1..3]-(x) RETURN x.k")
            expand = next(
                op for op in result.plan.root.walk() if op.name == "VarLengthExpand"
            )
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

    def test_bounded_patterns_bypass_the_row_body(self, monkeypatch):
        """Routing is by plan shape and by what the run observes: a bounded
        pattern reaches the per-row traversal from the batch executor only
        for a root whose frontier outgrows the path budget."""
        from repro.query import vectorized

        calls = []
        real = vectorized._expand_row

        def spy(op, row, ctx):
            calls.append(op.rel.max_hops)
            return real(op, row, ctx)

        monkeypatch.setattr(vectorized, "_expand_row", spy)
        db = GraphDatabase.in_memory()
        try:
            _build_motifs(db)
            _rows(db, "MATCH (s:N {k: 'a'})-[:KNOWS*1..3]-(x) RETURN x.k", {})
            _rows(db, "MATCH (s:N {k: 'a'})-[:KNOWS*0..0]-(x) RETURN x.k", {})
            assert calls == []
            _rows(db, "MATCH (s:N {k: 'a'})-[:KNOWS*]-(x) RETURN x.k LIMIT 1", {})
            assert calls == [None]
            monkeypatch.setattr(vectorized, "FRONTIER_PATH_BUDGET", 3)
            _rows(db, "MATCH (s:N {k: 'a'})-[:KNOWS*1..3]-(x) RETURN x.k", {})
            assert calls == [None, 3]
        finally:
            db.close()

    @pytest.mark.parametrize("budget", [1, 3, 12])
    @pytest.mark.parametrize("text, params", VAR_LENGTH_QUERIES)
    def test_path_budget_changes_no_row(
        self, text, params, budget, batch_config, row_db, monkeypatch
    ):
        """Past the budget a root group is halved, and a single root that
        still does not fit streams through the per-row traversal: the same
        rows in the same order either way."""
        from repro.query import vectorized

        monkeypatch.setattr(vectorized, "FRONTIER_PATH_BUDGET", budget)
        batch_db = GraphDatabase.in_memory(query_executor="batch", **batch_config)
        try:
            _build_motifs(batch_db)
            assert _rows(batch_db, text, params) == _rows(row_db, text, params)
        finally:
            batch_db.close()

    def test_limit_above_a_large_bound_stays_cheap(self):
        """``LIMIT 1`` above ``*1..7`` on a dense graph (~10^7 paths) must
        not build the neighbourhood first: the frontier gives up at its path
        budget and the root streams lazily, as under the row executor."""
        from repro.query import vectorized

        answers = []
        for options in ({"query_executor": "row"}, {"query_executor": "batch"}):
            db = GraphDatabase.in_memory(**options)
            rng = random.Random(7)
            with db.transaction() as tx:
                nodes = [tx.create_node(["N"], {"k": k}) for k in range(60)]
                pairs = set()
                while len(pairs) < 360:
                    pairs.add(tuple(sorted(rng.sample(range(60), 2))))
                for start, end in sorted(pairs):
                    tx.create_relationship(nodes[start], nodes[end], "KNOWS")
            result = db.execute(
                "PROFILE MATCH (s:N {k: 0})-[:KNOWS*1..7]-(x) RETURN x.k LIMIT 1"
            )
            answers.append(result.rows())
            if options["query_executor"] == "batch":
                expand = next(
                    op for op in result.plan.root.walk()
                    if op.name == "VarLengthExpand"
                )
                grown = sum(paths for _trips, paths in expand.actual_levels)
                # One attempt, abandoned within one node's degree of the budget.
                assert grown <= vectorized.FRONTIER_PATH_BUDGET + 60
                assert expand.actual_lazy_roots == 1
                assert "lazy-roots=1" in result.render_plan()
            db.close()
        assert answers[0] == answers[1] and len(answers[0]) == 1

    def test_invisible_source_raises_like_the_traversal(self, batch_config):
        """The traversal re-reads its start node; so does the frontier: a
        source deleted earlier in the query is an error, never a stale
        zero-length match."""
        text = (
            "MATCH (s:N {k: 'g'}) DETACH DELETE s WITH s "
            "MATCH (s)-[:KNOWS*0..1]-(x) RETURN x.k"
        )
        for options in ({"query_executor": "row"}, batch_config):
            db = GraphDatabase.in_memory(**options)
            try:
                _build_motifs(db)
                with pytest.raises(NodeNotFoundError):
                    db.execute(text).rows()
            finally:
                db.close()
