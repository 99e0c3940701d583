"""Observability subsystem: metrics, transaction traces, slow-query log.

One :class:`Observability` bundle per :class:`~repro.api.database.GraphDatabase`
(engines built bare get their own private bundle) wires together:

* a :class:`~repro.obs.registry.MetricsRegistry` of counters / gauges /
  histograms with lock-free per-thread shards,
* a :class:`~repro.obs.tracing.TraceRecorder` sampling transactions into
  timed phase traces (ring buffer + pluggable sinks),
* a :class:`~repro.obs.slowlog.SlowQueryLog` capturing statements above a
  latency threshold,
* Prometheus text rendering (:mod:`repro.obs.prometheus`) and an optional
  stdlib HTTP scrape endpoint (:mod:`repro.obs.exporter`).

The bundle pre-creates the engine-facing instruments so the hot path never
pays registry lookups: transaction outcome counters, labelled abort-reason
counters, phase/commit latency histograms (fed from sampled traces by a
built-in sink), WAL append/fsync instruments and query-layer instruments.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.exporter import MetricsExporter, serve_registry
from repro.obs.prometheus import render as render_prometheus
from repro.obs.prometheus import render_snapshot
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    flatten_statistics,
    sanitize_metric_name,
)
from repro.obs.slowlog import SlowQueryEntry, SlowQueryLog
from repro.obs.tracing import PHASES, JsonLinesSink, TraceRecorder, TxnTrace

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonLinesSink",
    "MetricsExporter",
    "MetricsRegistry",
    "Observability",
    "SlowQueryEntry",
    "SlowQueryLog",
    "TraceRecorder",
    "TxnTrace",
    "default_registry",
    "flatten_statistics",
    "render_prometheus",
    "render_snapshot",
    "sanitize_metric_name",
    "serve_registry",
]


class Observability:
    """Per-database bundle of registry, trace recorder and slow-query log."""

    def __init__(
        self,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracing: bool = False,
        trace_sample_rate: float = 1.0,
        trace_ring_size: int = 256,
        slow_query_seconds: Optional[float] = None,
        slow_query_capacity: int = 128,
        redact_parameters: bool = False,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = TraceRecorder(
            enabled=tracing,
            sample_rate=trace_sample_rate,
            ring_size=trace_ring_size,
        )
        self.slow_queries = SlowQueryLog(
            slow_query_seconds,
            capacity=slow_query_capacity,
            redact_parameters=redact_parameters,
        )
        #: Health view callable backing the exporter's ``/healthz`` endpoint;
        #: the database wires ``store.health.as_dict`` here.  Left ``None``,
        #: ``/healthz`` is a bare liveness probe.
        self.health_source = None

        reg = self.registry
        # -- transaction lifecycle ------------------------------------------
        self.txn_begun = reg.counter(
            "repro_txn_begun_total", "Transactions begun"
        )
        self.txn_committed = reg.counter(
            "repro_txn_committed_total", "Transactions committed"
        )
        self.txn_aborted = reg.counter(
            "repro_txn_aborted_total", "Transactions aborted (any reason)"
        )
        self.txn_abort_reasons = reg.counter(
            "repro_txn_aborts_total",
            "Transactions aborted, by conflict-detection reason",
            labelnames=("reason",),
        )
        # Fed from sampled traces only (see the sink below): latency of the
        # whole transaction and of each lifecycle phase.
        self.txn_seconds = reg.histogram(
            "repro_txn_seconds", "Sampled transaction wall time (seconds)"
        )
        self.txn_phase_seconds = reg.histogram(
            "repro_txn_phase_seconds",
            "Sampled transaction time per lifecycle phase (seconds)",
            labelnames=("phase",),
        )
        # -- WAL / store ----------------------------------------------------
        self.wal_append_seconds = reg.histogram(
            "repro_wal_append_seconds",
            "WAL append (incl. fsync when enabled) latency (seconds)",
        )
        self.store_apply_seconds = reg.histogram(
            "repro_store_apply_seconds",
            "Record-store catch-up: one apply of the queued batches (seconds)",
        )
        self.store_apply_backlog = reg.gauge(
            "repro_store_apply_backlog",
            "Logged batches the record stores have not caught up with",
        )
        self.store_apply_skipped = reg.counter(
            "repro_store_apply_skipped_total",
            "Queued writes not applied: a later queued write of the same key "
            "superseded them",
        )
        self.wal_fsyncs = reg.counter(
            "repro_wal_fsyncs_total", "WAL fsync calls"
        )
        self.wal_bytes = reg.counter(
            "repro_wal_appended_bytes_total", "Bytes appended to the WAL"
        )
        # -- durability / fault tolerance -----------------------------------
        self.io_retries = reg.counter(
            "repro_io_retries_total",
            "Transient IO errors absorbed by the bounded retry loop",
        )
        self.engine_degraded = reg.gauge(
            "repro_engine_degraded",
            "1 when the engine is in degraded read-only mode, else 0",
        )
        self.faults_injected = reg.counter(
            "repro_faults_injected_total",
            "Failpoint firings, by injection site (testing only)",
            labelnames=("site",),
        )
        # -- query layer ----------------------------------------------------
        # A statement updates each of these at most once: the plan-cache
        # counters at its lookup, the rest when it finishes (see
        # repro.query.execute).  The unlabelled ones are held as their only
        # child, so that update skips the family's pass-through.
        self.query_seconds = reg.histogram(
            "repro_query_seconds", "Query wall time, parse to last row (seconds)"
        ).labels()
        self.query_rows = reg.counter(
            "repro_query_rows_total", "Rows produced by queries"
        ).labels()
        self.queries = reg.counter(
            "repro_queries_total",
            "Queries executed, by outcome",
            labelnames=("kind",),
        )
        self._query_kinds: Dict[str, Counter] = {}
        self.query_batches = reg.counter(
            "repro_query_batches_total",
            "Row batches produced by the vectorized executor",
        ).labels()
        self.query_batch_rows = reg.histogram(
            "repro_query_batch_rows",
            "Rows per batch produced by the vectorized executor",
            buckets=(1, 4, 16, 64, 256, 1024, 4096),
        ).labels()
        self.plan_cache_hits = reg.counter(
            "repro_plan_cache_hits_total", "Plan cache hits"
        ).labels()
        self.plan_cache_misses = reg.counter(
            "repro_plan_cache_misses_total", "Plan cache misses"
        ).labels()
        reg.gauge(
            "repro_slow_queries_total",
            "Queries recorded by the slow-query log",
        ).set_function(lambda: self.slow_queries.slow_queries_total)
        reg.gauge(
            "repro_txn_traces_recorded_total",
            "Transaction traces recorded (sampled and finished)",
        ).set_function(lambda: self.tracer.traces_recorded)

        # Hot-path child cache: resolving a labelled child is a dict probe,
        # but the committing thread shouldn't even pay that per phase.  Only
        # an enabled tracer materialises the children — with tracing off the
        # phase histogram must stay visibly empty.
        self._phase_histograms = (
            {phase: self.txn_phase_seconds.labels(phase=phase) for phase in PHASES}
            if self.tracer.enabled
            else {}
        )

        if self.tracer.enabled:
            self.tracer.add_sink(self._observe_trace)

    def query_kind(self, kind: str) -> Counter:
        """The ``repro_queries_total`` child of ``kind`` (``read``, ``write``
        or ``error``), bound on first use — a kind that never occurred is
        not exposed."""
        child = self._query_kinds.get(kind)
        if child is None:
            child = self._query_kinds[kind] = self.queries.labels(kind=kind)
        return child

    # -- trace -> metric bridge ---------------------------------------------

    def _observe_trace(self, trace: TxnTrace) -> None:
        self.txn_seconds.observe(trace.wall_seconds)
        phase_histograms = self._phase_histograms
        for phase, seconds in trace.phases:
            histogram = phase_histograms.get(phase)
            if histogram is None:
                histogram = self.txn_phase_seconds.labels(phase=phase)
            histogram.observe(seconds)

    # -- views ---------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, object]:
        """The registry snapshot (instruments + collector output)."""
        return self.registry.snapshot()

    def prometheus_text(self) -> str:
        """The registry rendered in Prometheus text exposition format."""
        return render_prometheus(self.registry)

    def recent_traces(self, limit: Optional[int] = None):
        """Recent finished transaction traces, oldest first."""
        return self.tracer.recent(limit)

    def serve(self, host: str = "127.0.0.1", port: int = 0) -> MetricsExporter:
        """Start an HTTP scrape endpoint for this bundle's registry."""
        return serve_registry(
            self.registry, host, port, health_source=self.health_source
        )

    def stats(self) -> Dict[str, object]:
        """Bundle counters for ``statistics()`` (tracing + slow-query log)."""
        return {
            "tracing": self.tracer.stats(),
            "slow_query_log": self.slow_queries.stats(),
        }
