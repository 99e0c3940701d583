"""Declarative query subsystem: a Cypher-subset compiled per transaction.

Four stages:

* :mod:`repro.query.lexer` + :mod:`repro.query.parser` — tokens and a
  recursive-descent parser producing the typed AST in :mod:`repro.query.ast`,
* :mod:`repro.query.planner` — a cardinality-aware logical planner that picks
  the cheapest start point per ``MATCH`` pattern (property-index seek, label
  scan or all-nodes scan) using the engines' O(1) count fast paths, and
  orders expansions by estimated fan-out,
* :mod:`repro.query.executor` — the one operator runtime: the plan compiled
  once into a pipeline of vectorized batch-at-a-time operators (columnar
  :class:`~repro.query.executor.RowBatch` pipelines with batched reads)
  over the compiled expressions of
  :mod:`repro.query.expressions`.  All reads flow through one transaction
  (one snapshot under snapshot isolation); write clauses apply to their
  whole input before anything downstream runs,
* :mod:`repro.query.result` — lazily-pulled records, mutation statistics and
  the ``EXPLAIN`` plan with estimated vs. actual rows.

Use it through ``tx.execute(...)`` / ``db.execute(...)``; this module's
:func:`execute` is the engine-level entry point those wrap.
"""

from __future__ import annotations

from time import perf_counter
from typing import Mapping, Optional

from repro.errors import QueryError
from repro.query import executor as _executor
from repro.query.cache import QueryCaches
from repro.query.executor import ExecutionContext, prepare
from repro.query.parser import parse
from repro.query.planner import Plan, PlannerStatistics, plan_query
from repro.query.result import QueryResult, QueryStatistics, Record


def is_read_only_query(engine, text: str,
                       parameters: Optional[Mapping[str, object]] = None) -> bool:
    """Whether ``text`` performs no writes (``EXPLAIN`` counts as read-only).

    :meth:`repro.api.database.GraphDatabase.execute` and session auto-commits
    open read-only transactions for pure reads — under serializable
    isolation those skip SIREAD registration and can never abort.  Answered
    by the prepared statement the execution is about to hit, else by a parse
    through the parse cache; a query that does not parse is reported
    read-write, so its execution raises the syntax error as usual.
    """
    key = (text, engine.cardinality_epoch(), frozenset(parameters or ()))
    plan = engine.query_caches.statement(key, executing=False)
    if plan is not None:  # never an EXPLAIN: those are not cached
        return not plan.has_writes
    try:
        query = engine.query_caches.parse_query(text)
    except QueryError:
        return False
    return query.explain or not query.has_writes


def execute(tx, engine, text: str,
            parameters: Optional[Mapping[str, object]] = None) -> QueryResult:
    """Run one query inside ``tx``, from its prepared statement.

    ``tx`` is the user-facing :class:`repro.api.transaction.Transaction`,
    ``engine`` the :class:`repro.engine.GraphEngine` behind it, and
    ``parameters`` belongs to this execution (``Transaction.execute`` hands
    over a fresh mapping).  Read-only queries return a lazy result; write
    queries and ``PROFILE`` are drained before returning; ``EXPLAIN`` only
    plans, so it is safe on a write query.

    A plan-cache hit (see :mod:`repro.query.cache`) is one lookup, then a
    fresh :class:`~repro.query.executor.ExecutionContext` runs the cached
    pipeline; a miss prepares one (:func:`_prepare`).  The execution reports
    to the engine's observability bundle once, when it finishes
    (:func:`_observed_rows`).
    """
    started = perf_counter()
    parameters = {} if parameters is None else parameters
    key = (text, engine.cardinality_epoch(), frozenset(parameters))
    plan = engine.query_caches.statement(key)
    obs = engine.obs
    if plan is None:
        plan = _prepare(engine, text, parameters, key)
    else:
        obs.plan_cache_hits.inc()
    ctx = ExecutionContext(tx, parameters, QueryStatistics())
    query = plan.query
    if query.explain:
        return QueryResult(plan.columns, iter(()), ctx.stats, plan=plan)
    # ``run_plan`` is looked up per call so tests can route an execution
    # through the row-at-a-time reference executor.
    rows = _observed_rows(
        _executor.run_plan(plan, ctx), plan, ctx, obs, text, started
    )
    result = QueryResult(
        plan.columns, rows, ctx.stats, plan=plan if query.profile else None
    )
    if plan.has_writes or query.profile:
        # Writes are eager (Cypher semantics: every write clause has been
        # applied to all of its input by the time execute() returns) and
        # PROFILE needs the actual row counts, so both drain the pipeline.
        result.consume()
    return result


def _prepare(engine, text: str, parameters: Mapping[str, object], key) -> Plan:
    """The plan-cache miss: parse (through the parse cache), plan against
    the engine's statistics, compile the pipeline — and cache the result,
    unless ``EXPLAIN`` / ``PROFILE`` asked for a plan of this execution's
    own."""
    caches = engine.query_caches
    query = caches.parse_query(text)
    cached = not (query.explain or query.profile)
    if cached:
        caches.plan_missed()
        engine.obs.plan_cache_misses.inc()
    plan = plan_query(query, PlannerStatistics(engine), parameters)
    prepare(plan, batch_size=engine.query_batch_size, profile=query.profile)
    if cached:
        caches.plan.put(key, plan)
    return plan


def _observed_rows(rows, plan: Plan, ctx: ExecutionContext, obs, text: str,
                   started: float):
    """Wrap a row stream so the statement reports once, when it finishes.

    Finished means exhausted, failed, or closed: a lazy read whose consumer
    stops pulling and drops (or closes) the result is a ``read`` like any
    other, timed to its last pulled row.  Each query instrument is updated
    once, from totals kept here and in ``ctx``; the slow-query plan text is
    only rendered for executions that crossed the threshold.
    """
    produced = 0
    failed = False
    finished = started
    try:
        for row in rows:
            produced += 1
            finished = perf_counter()
            yield row
        finished = perf_counter()
    except GeneratorExit:
        raise
    except BaseException:
        failed = True
        finished = perf_counter()
        raise
    finally:
        seconds = finished - started
        obs.query_seconds.observe(seconds)
        if produced:
            obs.query_rows.inc(produced)
        obs.query_kind(
            "error" if failed else "write" if plan.has_writes else "read"
        ).inc()
        sizes = ctx.batch_sizes
        if sizes:
            obs.query_batches.inc(len(sizes))
            obs.query_batch_rows.observe_many(sizes)
        slowlog = obs.slow_queries
        threshold = slowlog.threshold_seconds
        if threshold is not None and seconds >= threshold:
            slowlog.observe(
                text,
                ctx.parameters,
                seconds,
                rows=produced,
                plan=plan.render(),
                snapshot_ts=getattr(getattr(ctx.tx, "_txn", None), "start_ts", None),
                read_only=not plan.has_writes,
            )


__all__ = [
    "Plan",
    "PlannerStatistics",
    "QueryCaches",
    "QueryResult",
    "QueryStatistics",
    "Record",
    "execute",
    "is_read_only_query",
    "parse",
    "plan_query",
]
