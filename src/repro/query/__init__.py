"""Declarative query subsystem: a Cypher-subset compiled per transaction.

Four stages:

* :mod:`repro.query.lexer` + :mod:`repro.query.parser` — tokens and a
  recursive-descent parser producing the typed AST in :mod:`repro.query.ast`,
* :mod:`repro.query.planner` — a cardinality-aware logical planner that picks
  the cheapest start point per ``MATCH`` pattern (property-index seek, label
  scan or all-nodes scan) using the engines' O(1) count fast paths, and
  orders expansions by estimated fan-out,
* :mod:`repro.query.executor` — the one operator runtime: vectorized
  batch-at-a-time operators (columnar
  :class:`~repro.query.executor.RowBatch` pipelines with batched reads and
  optional morsel-parallel scans) over the compiled expressions of
  :mod:`repro.query.expressions`.  All reads flow through one transaction
  (one snapshot under snapshot isolation); write clauses apply to their
  whole input before anything downstream runs,
* :mod:`repro.query.result` — lazily-pulled records, mutation statistics and
  the ``EXPLAIN`` plan with estimated vs. actual rows.

Use it through ``tx.execute(...)`` / ``db.execute(...)``; this module's
:func:`execute` is the engine-level entry point those wrap.
"""

from __future__ import annotations

import functools
from typing import Mapping, Optional

from repro.query import ast
from repro.query.cache import ParseCache, PlanCache, QueryCaches
from repro.query.parser import parse
from repro.query.planner import Plan, PlannerStatistics, plan_query
from repro.query.result import QueryResult, QueryStatistics, Record


@functools.lru_cache(maxsize=512)
def parse_cached(text: str) -> ast.Query:
    """Parse with a process-wide cache (ASTs are immutable and shareable).

    Fallback for engines without a per-database :class:`QueryCaches` bundle
    (bare engine objects constructed in tests); databases opened through
    :class:`repro.api.database.GraphDatabase` use their engine's own
    size-configurable parse cache instead.
    """
    return parse(text)


def is_read_only_query(engine, text: str) -> bool:
    """Whether ``text`` performs no writes (``EXPLAIN`` counts as read-only).

    Used by :meth:`repro.api.database.GraphDatabase.execute` to open
    read-only transactions for pure-read statements — which matters under
    serializable isolation, where read-only transactions skip SIREAD
    registration entirely and can never abort.  Parses through the engine's
    parse cache, so the subsequent execution reuses the cached AST.  A query
    that does not parse is reported read-write: the caller's normal
    execution path then raises the syntax error with its usual semantics.
    """
    from repro.errors import QueryError

    caches: Optional[QueryCaches] = getattr(engine, "query_caches", None)
    try:
        if caches is not None:
            query = caches.parse.parse(text)
        else:
            query = parse_cached(text)
    except QueryError:
        return False
    return query.explain or not query.has_writes


def execute(tx, engine, text: str,
            parameters: Optional[Mapping[str, object]] = None) -> QueryResult:
    """Parse, plan and execute one query inside ``tx``.

    ``tx`` is the user-facing :class:`repro.api.transaction.Transaction`;
    ``engine`` the :class:`repro.engine.GraphEngine` behind it (the planner
    reads its cardinality counters).  Read-only queries return a lazy result;
    write queries and ``PROFILE`` are drained before returning.  ``EXPLAIN``
    only plans — it never executes, so it is always safe on a write query.

    Plans are reused through the engine's plan cache, keyed on ``(query
    text, cardinality epoch, provided parameter names)``: when the engine's
    statistics drift enough to bump the epoch, the stale entries silently
    miss and the query is re-planned against fresh counts.  ``EXPLAIN`` and
    ``PROFILE`` always plan fresh — their per-operator actual/estimated row
    counts must describe exactly this execution, not a cached tree being
    raced by other executions.

    Every execution reports into the engine's observability bundle: wall
    time (parse to last pulled row) and produced rows go to the metrics
    registry, plan-cache hits/misses to first-class counters, and
    executions above the slow-query threshold — statement text, parameters,
    rendered plan, snapshot timestamp — to the slow-query log.  Lazy
    results are finalised when their row stream is exhausted or closed, so
    the recorded duration covers the whole pull, not just planning.
    """
    from time import perf_counter

    from repro.query.executor import ExecutionContext, run_plan

    started = perf_counter()
    obs = getattr(engine, "obs", None)
    params = dict(parameters or {})
    caches: Optional[QueryCaches] = getattr(engine, "query_caches", None)
    if caches is not None:
        query = caches.parse.parse(text)
    else:
        query = parse_cached(text)
    plan_key = None
    plan: Optional[Plan] = None
    if (
        caches is not None
        and not query.explain
        and not query.profile
        and hasattr(engine, "cardinality_epoch")
    ):
        plan_key = PlanCache.key(text, engine.cardinality_epoch(), params)
        plan = caches.plan.get(plan_key)
        if obs is not None:
            (obs.plan_cache_hits if plan is not None else obs.plan_cache_misses).inc()
    if plan is None:
        plan = plan_query(query, PlannerStatistics(engine), params)
        if plan_key is not None:
            caches.plan.put(plan_key, plan)
    context = ExecutionContext(
        tx, params, QueryStatistics(), timed=query.profile,
        batch_size=getattr(engine, "query_batch_size", 1024),
        morsel_workers=getattr(engine, "morsel_workers", 0),
        obs=obs,
    )
    if query.explain:
        return QueryResult(plan.columns, iter(()), context.stats, plan=plan)
    rows = run_plan(plan, context)
    if obs is not None:
        rows = _observed_rows(
            rows, obs, tx, query, text, params, plan, started
        )
    result = QueryResult(
        plan.columns, rows, context.stats,
        plan=plan if query.profile else None,
    )
    if query.has_writes or query.profile:
        # Writes are eager (Cypher semantics: every write clause has been
        # applied to all of its input by the time execute() returns) and
        # PROFILE needs the actual row counts, so both drain the pipeline.
        result.consume()
    return result


def _observed_rows(rows, obs, tx, query, text, params, plan, started):
    """Wrap a row stream so its completion reports to the observability bundle.

    The wall time and row count are recorded when the stream is exhausted,
    closed, or garbage-collected — for eager (write/``PROFILE``) queries
    that happens inside :func:`execute` itself; a lazy read result reports
    when its consumer finishes pulling.  The slow-query plan text is only
    rendered for executions that crossed the threshold.
    """
    from time import perf_counter

    produced = 0
    outcome = "ok"
    try:
        for row in rows:
            produced += 1
            yield row
    except BaseException:
        outcome = "error"
        raise
    finally:
        seconds = perf_counter() - started
        obs.query_seconds.observe(seconds)
        if produced:
            obs.query_rows.inc(produced)
        kind = "write" if query.has_writes else "read"
        obs.queries.labels(kind=kind if outcome == "ok" else "error").inc()
        slowlog = obs.slow_queries
        threshold = slowlog.threshold_seconds
        if threshold is not None and seconds >= threshold:
            inner = getattr(tx, "_txn", None)
            slowlog.observe(
                text,
                params,
                seconds,
                rows=produced,
                plan=plan.render(),
                snapshot_ts=getattr(inner, "start_ts", None),
                read_only=not query.has_writes,
            )


__all__ = [
    "ParseCache",
    "Plan",
    "PlanCache",
    "PlannerStatistics",
    "QueryCaches",
    "QueryResult",
    "QueryStatistics",
    "Record",
    "execute",
    "is_read_only_query",
    "parse",
    "parse_cached",
    "plan_query",
]
