"""Turns one measured run into the named metrics of BENCHMARK.json.

:func:`end_to_end` is what a user of the system sees (tracing off);
:func:`per_layer` is the traced run: harness spans, the engine's own phase
marks and counters (read from the Prometheus exposition, embedded and served
alike), and the standalone timings :mod:`benchmarks.suite.layers` took.  A
per-layer metric that does not apply to a workload (wire metrics on an
embedded run, ``query.execute_us_p50.<template>`` for a template the workload
never runs) is reported as 0 and listed in the run's ``not_applicable``.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from benchmarks.suite import dataset
from benchmarks.suite.spans import Span
from benchmarks.suite.workloads import Measured

ENGINE_PHASES = ("begin", "read", "stripe_wait", "validate", "install", "wal", "publish")
ABORT_REASONS = ("ww-conflict", "rw-antidependency", "safe-snapshot", "deadlock")


def percentile(values: Iterable[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def supported(samples: int, share: float) -> bool:
    """Whether at least ten samples lie beyond the percentile."""
    return samples * (1.0 - share) >= 10


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counts(measured: Measured) -> Tuple[int, int]:
    """(attempted, failed): every operation and every end-of-run check."""
    ops = [op for tally in measured.tallies for op in tally.ops]
    attempted = len(ops) + len(measured.checks)
    failed = sum(not op.ok for op in ops) + sum(not ok for _, ok in measured.checks)
    return attempted, failed


#: Measured with tracing off in every run and written to the result file, but
#: not in BENCHMARK.json's gated ``end_to_end`` list: over ten runs on this
#: sandbox their quartile distance passes 25 % of the median, the widest bound
#: the contract allows (README, Repeatability).  name -> (unit, better).  The
#: traced run reports the same quantities as ``tail.<name>``.
UNGATED = {
    "read_p95_ms": ("ms", "lower"),
    "write_p95_ms": ("ms", "lower"),
}


def traffic(measured: Measured) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Throughput and latency of the measured interval, and the sample counts.

    A read is begin -> records drained -> commit; a write is first attempt ->
    ack, retries included.  Only operations that succeeded are timed.
    """
    low, high = measured.interval
    values: Dict[str, float] = {}
    samples: Dict[str, int] = {}
    for kind in ("read", "write"):
        ops = [op for op in measured.ops_in(measured.interval, kind == "write") if op.ok]
        latency_ms = [(op.end - op.start) * 1e3 for op in ops]
        samples[kind] = len(ops)
        values[f"{kind}_ops_per_s"] = len(ops) / (high - low)
        for share in (50, 95, 99):
            values[f"{kind}_p{share}_ms"] = percentile(latency_ms, share / 100.0)
        values[f"{kind}_max_ms"] = max(latency_ms, default=0.0)
    return values, samples


#: The host witness's reading on this sandbox when it is quiet; a run whose
#: witness reads this reports its timings as measured.
REFERENCE_WITNESS_US = 200.0


def host_witness_us(measured: Measured) -> float:
    """Median :func:`workloads.host_witness_seconds` reading of the interval."""
    low, high = measured.interval
    return 1e6 * statistics.median(
        seconds for when, seconds in measured.witness if low <= when < high
    )


def end_to_end(measured: Measured) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Every untraced metric (gated and :data:`UNGATED`) and the sample counts.

    Throughput and the p50s are scaled to a host of reference speed: a p50 by
    ``REFERENCE_WITNESS_US / host_witness_us``, a throughput by the inverse
    (but not a paced thread's, whose rate the pace sets).  ``raw.<name>`` keeps
    each as measured.  The tails stay as measured: on the two-thread OLTP
    workloads the interpreter's 5 ms switch interval sets them, which no host
    speed changes, and they are not gated.
    """
    values, samples = traffic(measured)
    witness_us = host_witness_us(measured)
    slowdown = witness_us / REFERENCE_WITNESS_US
    values["host_witness_us"] = witness_us
    for kind in ("read", "write"):
        for name in (f"{kind}_p50_ms", f"{kind}_ops_per_s"):
            values[f"raw.{name}"] = values[name]
        values[f"{kind}_p50_ms"] /= slowdown
        paced = kind == "write" and measured.workload.write_pace is not None
        if not paced:
            values[f"{kind}_ops_per_s"] *= slowdown
    attempted, failed = counts(measured)
    delta = _Delta(measured)
    values.update({
        "setup_s": measured.setup_seconds,
        "ok_share": 1.0 - _ratio(failed, attempted),
        "wal_bytes_per_commit": _ratio(
            delta("repro_wal_appended_bytes_total"), delta("repro_stat_store_batches_applied")
        ),
        "peak_rss_mb": measured.peak_rss_mb,
    })
    return values, samples


class _Delta:
    """Counter growth over the measured interval (``after - before``)."""

    def __init__(self, measured: Measured) -> None:
        self._before, self._after = measured.before, measured.after

    def __call__(self, name: str) -> float:
        return self._after.get(name, 0.0) - self._before.get(name, 0.0)

    def after(self, name: str) -> float:
        return self._after.get(name, 0.0)

    def summed(self, prefix: str) -> float:
        """Growth of every labelled child of one counter family."""
        return sum(self(name) for name in self._after if name.startswith(prefix + "{"))

    def share(self, hits: str, misses: str) -> float:
        return _ratio(self(hits), self(hits) + self(misses))

    def histogram_p50_us(self, family: str, labels: str) -> float:
        """Median of a Prometheus histogram's growth, interpolated in-bucket."""
        prefix = f"{family}_bucket{{{labels}"
        buckets: List[Tuple[float, float]] = []
        for name in self._after:
            if name.startswith(prefix):
                bound = name.rsplit('le="', 1)[1].rstrip('"}')
                buckets.append((float(bound.replace("+Inf", "inf")), self(name)))
        buckets.sort()
        if not buckets or buckets[-1][1] <= 0:
            return 0.0
        target = buckets[-1][1] / 2.0
        lower_bound, lower_count = 0.0, 0.0
        for bound, cumulative in buckets:
            if cumulative >= target:
                if math.isinf(bound):
                    return lower_bound * 1e6
                inside = cumulative - lower_count
                fraction = _ratio(target - lower_count, inside)
                return (lower_bound + (bound - lower_bound) * fraction) * 1e6
            lower_bound, lower_count = bound, cumulative
        return 0.0


def _span_us(spans: Sequence[Span], name: str) -> List[float]:
    return [span.duration * 1e6 for span in spans if span.name == name]


def per_layer(measured: Measured) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer metric values and the names that do not apply here."""
    workload = measured.workload
    extras = measured.extras
    traces = extras["engine_traces"]
    delta = _Delta(measured)
    low, high = measured.interval
    spans = [span for thread in measured.thread_spans for span in thread.spans]
    templates = {
        template for mix in workload.mixes for template in dataset.MIXES[mix]
    }
    values: Dict[str, float] = {}
    skipped: List[str] = []

    def put(name: str, value: Optional[float]) -> None:
        if value is None:
            skipped.append(name)
            value = 0.0
        values[name] = float(value)

    def p50(sample: Optional[Sequence[float]]) -> Optional[float]:
        return statistics.median(sample) if sample else None

    served = workload.server
    # -- client / server / protocol ------------------------------------------
    put("client.rtt_us_p50", p50(_span_us(spans, "client.execute")) if served else None)
    put("server.ping_rtt_us_p50", p50(extras.get("ping_rtt_us")))
    paired = extras.get("paired_us")
    put("server.overhead_us_p50",
        statistics.median(paired["client"]) - statistics.median(paired["embedded"])
        if paired else None)
    for name in ("encode_request_us", "decode_request_us", "encode_response_us",
                 "decode_response_us", "response_bytes"):
        put(f"protocol.{name}_p50", p50(extras.get(f"protocol.{name}")))
    requests = delta.summed("repro_server_requests_total")
    put("server.cpu_s_per_1k_req",
        _ratio(delta("server_cpu_seconds"), requests) * 1e3 if served else None)
    put("server.requests_total", requests if served else None)
    put("server.errors_total", delta.summed("repro_server_errors_total") if served else None)

    # -- api -------------------------------------------------------------------
    for name in ("begin", "commit_ro", "commit_rw"):
        put(f"api.{name}_us_p50", p50(_span_us(spans, f"api.{name}")))

    # -- query -----------------------------------------------------------------
    put("query.parse_us_p50", p50(extras.get("parse_us")))
    put("query.plan_us_p50", p50(extras.get("plan_us")))
    put("query.parse_cache_hit_share",
        delta.share("repro_stat_query_cache_parse_hits", "repro_stat_query_cache_parse_misses"))
    put("query.plan_cache_hit_share",
        delta.share("repro_stat_query_cache_plan_hits", "repro_stat_query_cache_plan_misses"))
    template_of_op = {
        span.id: span.name[3:] for span in spans if span.name.startswith("op.")
    }
    execute_us: Dict[str, List[float]] = {}
    for span in spans:
        if span.name == "query.execute":
            execute_us.setdefault(template_of_op.get(span.op, ""), []).append(
                span.duration * 1e6
            )
    profiles = extras.get("profiles", {})
    for template in dataset.TEMPLATES:
        put(f"query.execute_us_p50.{template}", p50(execute_us.get(template)))
    for template in dataset.READ_TEMPLATES:
        profile = profiles.get(template) if template in templates else None
        put(f"query.rows_examined_per_row_returned.{template}",
            profile["rows_examined_per_row_returned"] if profile else None)
        put(f"query.batches_per_query.{template}", profile["batches"] if profile else None)

    # -- core ------------------------------------------------------------------
    phase_us: Dict[str, List[float]] = {}
    for trace in traces:
        if low <= trace.started_at < high:
            for phase, seconds in trace.phases:
                phase_us.setdefault(phase, []).append(seconds * 1e6)
    for phase in ENGINE_PHASES:
        if traces:
            put(f"core.{phase}_us_p50", p50(phase_us.get(phase)))
        else:
            # The engine runs in the server process; its phase histogram is
            # all the exposition carries.
            put(f"core.{phase}_us_p50",
                delta.histogram_p50_us("repro_txn_phase_seconds", f'phase="{phase}"'))
    put("core.point_read_us_p50", p50(extras.get("point_read_us")))
    put("core.expand_us_p50", p50(extras.get("expand_us")))
    put("core.abort_share", _ratio(delta("repro_txn_aborted_total"), delta("repro_txn_begun_total")))
    for reason in ABORT_REASONS:
        put(f"core.aborts.{reason}",
            delta("repro_stat_engine_transactions_abort_reasons_" + reason.replace("-", "_")))
    put("core.stripe_wait_share",
        _ratio(delta("repro_stat_engine_commit_pipeline_stripe_waits"),
               delta("repro_stat_engine_commit_pipeline_stripe_acquisitions")))
    put("core.versions_per_chain_mean",
        _ratio(delta.after("repro_stat_engine_versions_total_versions"),
               delta.after("repro_stat_engine_versions_chains")))
    put("core.gc_versions_collected", delta("repro_stat_engine_gc_versions_collected"))
    put("core.gc_duration_s", delta("repro_stat_engine_gc_duration_seconds"))
    put("core.ssi.rw_edges",
        delta("repro_stat_engine_concurrency_control_rw_edges_observed"))
    # The safe-snapshot census runs only for transactions begun read-only
    # under SERIALIZABLE, which no workload does (README, Defects).
    tracked = delta("repro_stat_safe_snapshots_tracked")
    census = tracked + delta("repro_stat_safe_snapshots_immediate")
    put("core.ssi.tracked_share", tracked / census if census else None)
    put("core.ssi.upgrades", delta("repro_stat_safe_snapshots_upgrades") if census else None)
    put("core.ssi.writer_aborts",
        delta("repro_stat_safe_snapshots_writer_aborts") if census else None)
    snapshot_cache = extras.get("snapshot_cache")
    put("core.snapshot_cache_hit_share",
        _ratio(snapshot_cache[0], sum(snapshot_cache)) if snapshot_cache else None)

    # -- graph -----------------------------------------------------------------
    put("graph.object_cache_hit_share",
        delta.share("repro_stat_object_cache_hits", "repro_stat_object_cache_misses"))
    put("graph.object_cache_evictions", delta("repro_stat_object_cache_evictions"))
    put("graph.page_cache_hit_share",
        delta.share("repro_stat_page_cache_hits", "repro_stat_page_cache_misses"))
    put("graph.page_cache_evictions", delta("repro_stat_page_cache_evictions"))
    put("graph.page_writes", delta("repro_stat_page_cache_page_writes"))
    commits = delta("repro_stat_store_batches_applied")
    put("graph.wal_fsyncs_per_commit", _ratio(delta("repro_wal_fsyncs_total"), commits))
    put("graph.group_max_coalesced", delta.after("repro_stat_store_group_max_coalesced"))
    put("graph.wal_io_retries", delta("repro_stat_wal_io_retries"))
    put("graph.wal_append_fsync_us_p50", p50(extras.get("wal_append_fsync_us")))
    put("graph.checkpoint_s", p50(extras.get("checkpoint_seconds")))
    recovered = extras.get("recovery_commits")
    put("graph.recovery_ms_per_1k_commits",
        _ratio(extras["recovery_seconds"] * 1e3, recovered / 1e3) if recovered else None)
    store_bytes = extras.get("store_bytes")
    created = sum(tally.persons * 2 + max(0, tally.knows) for tally in measured.tallies)
    put("graph.store_bytes_per_entity",
        store_bytes / (measured.graph.entities + created) if store_bytes else None)

    # -- obs / tail / process --------------------------------------------------
    def rate(interval) -> float:
        begin, end = interval
        done = len(measured.ops_in(interval, False)) + len(measured.ops_in(interval, True))
        return done / (end - begin)

    untraced, traced = rate(measured.reference), rate(measured.interval)
    put("obs.tracing_overhead_share", _ratio(untraced - traced, untraced))
    observed, samples = traffic(measured)
    for name in UNGATED:
        put(f"tail.{name}", observed[name])
    put("tail.read_p99_ms", observed["read_p99_ms"])
    put("tail.write_p99_ms", observed["write_p99_ms"])
    put("tail.max_ms", max(observed["read_max_ms"], observed["write_max_ms"]))
    put("proc.cpu_s_per_1k_ops",
        _ratio(delta("harness_cpu_seconds"), sum(samples.values())) * 1e3)
    put("proc.gc_gen2_collections", delta("harness_gc_gen2"))
    put("proc.involuntary_ctx_switches", delta("harness_nivcsw"))
    put("proc.host_witness_us_p50", host_witness_us(measured))
    attempted, failed = counts(measured)
    put("failed_share", _ratio(failed, attempted))
    return values, skipped
