"""Standalone layer timings of the traced run, taken after its interval.

Each probe drives one layer alone through its public calls, with the client
threads stopped, and leaves its samples in ``measured.extras``;
:func:`benchmarks.suite.metrics.per_layer` turns them into metrics.  It also
attaches the engine's phase marks to the harness spans of the same
transaction, so a written span file shows them as children of the begin and
commit spans.
"""

from __future__ import annotations

import itertools
import os
import random
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.graph.wal import WriteAheadLog
from repro.query import parser, planner
from repro.server import protocol

from benchmarks.suite import dataset
from benchmarks.suite.workloads import (
    EmbeddedEnv, EmbeddedSession, Measured, ServerEnv, WORKLOADS,
)

COLD_REPEATS = 5
POINT_READS = 500
PAIRED_OPS = 300
WAL_APPENDS = 100


def probe(env, measured: Measured, work_dir: str) -> None:
    """Run every probe that applies to ``env``."""
    extras = measured.extras
    templates = sorted(
        {template for mix in measured.workload.mixes for template in dataset.MIXES[mix]}
    )
    samples = _sample_parameters(measured, templates)
    twin = None
    try:
        if isinstance(env, ServerEnv):
            # The engine lives in the server process; the same dataset in this
            # process gives the embedded half of the paired overhead timing and
            # an engine to plan and PROFILE against.
            twin = EmbeddedEnv(WORKLOADS["oltp_si"], measured.graph, measured.seed, False, work_dir)
            _probe_wire(env, twin, measured, extras)
        db = (twin or env).db
        ids = (twin or env).ids
        _probe_query(db, samples, extras)
        _probe_core_reads(db, ids, measured, extras)
    finally:
        if twin is not None:
            twin.close()
    extras["snapshot_cache"] = _snapshot_cache_totals(env.sessions)
    extras["engine_traces"] = env.traces
    _probe_wal(measured, extras, work_dir)
    _attach_engine_phases(env, measured)


def _sample_parameters(measured: Measured, templates) -> Dict[str, Dict[str, object]]:
    """The first parameters each template gets in this run's streams."""
    wanted = set(templates)
    found: Dict[str, Dict[str, object]] = {}
    for thread, mix in enumerate(measured.workload.mixes):
        stream = dataset.op_stream(measured.graph, mix, measured.seed, thread)
        for template, params in itertools.islice(stream, 10 * dataset.BLOCK):
            found.setdefault(template, params)
    return {template: found[template] for template in wanted}


def _probe_query(db, samples, extras) -> None:
    """Cold parse and plan per template; one PROFILE per read template."""
    parse_us: List[float] = []
    plan_us: List[float] = []
    for template, params in samples.items():
        text = dataset.TEMPLATES[template][0]
        for _ in range(COLD_REPEATS):
            started = perf_counter()
            query = parser.parse(text)
            parsed = perf_counter()
            planner.plan_query(query, planner.PlannerStatistics(db.engine), params)
            parse_us.append((parsed - started) * 1e6)
            plan_us.append((perf_counter() - parsed) * 1e6)
    extras["parse_us"], extras["plan_us"] = parse_us, plan_us
    profiles = {}
    for template, params in samples.items():
        text, writes = dataset.TEMPLATES[template]
        if writes:
            continue
        result = db.execute("PROFILE " + text, params)
        operators = list(result.plan.root.walk())
        returned = operators[0].actual_rows or 0
        profiles[template] = {
            "rows_examined_per_row_returned":
                sum(op.actual_rows or 0 for op in operators[1:]) / max(1, returned),
            "batches": sum(op.actual_batches or 0 for op in operators),
        }
    extras["profiles"] = profiles


def _probe_core_reads(db, ids, measured: Measured, extras) -> None:
    """``tx.get_node`` / ``tx.relationships_of`` on Zipf keys (no query layer)."""
    rng = random.Random(f"{measured.seed}:core-reads")
    keys = dataset.ZipfKeys(measured.graph)
    node_ids = [ids["persons"][int(keys.draw(rng)[1:])] for _ in range(POINT_READS)]
    point_us: List[float] = []
    expand_us: List[float] = []
    with db.begin(read_only=True) as tx:
        for node_id in node_ids:
            started = perf_counter()
            tx.get_node(node_id)
            read = perf_counter()
            tx.relationships_of(node_id)
            point_us.append((read - started) * 1e6)
            expand_us.append((perf_counter() - read) * 1e6)
    extras["point_read_us"], extras["expand_us"] = point_us, expand_us


def _probe_wire(env: ServerEnv, twin: EmbeddedEnv, measured: Measured, extras) -> None:
    """Ping, paired client-vs-embedded reads and codec timings on an idle server."""
    client = env.clients[0]
    ping_us: List[float] = []
    for _ in range(PAIRED_OPS):
        started = perf_counter()
        client.ping()
        ping_us.append((perf_counter() - started) * 1e6)
    extras["ping_rtt_us"] = ping_us
    stream = dataset.op_stream(measured.graph, measured.workload.mixes[0], measured.seed, 0)
    paired = {"client": [], "embedded": []}
    for template, params in itertools.islice(stream, PAIRED_OPS):
        if template == "repeat_read":
            continue  # an explicit transaction, not one request
        text = dataset.TEMPLATES[template][0]
        started = perf_counter()
        client.execute(text, params)
        served = perf_counter()
        twin.db.execute(text, params).records()
        paired["client"].append((served - started) * 1e6)
        paired["embedded"].append((perf_counter() - served) * 1e6)
    extras["paired_us"] = paired

    timings: Dict[str, List[float]] = {
        name: [] for name in ("encode_request_us", "decode_request_us",
                              "encode_response_us", "decode_response_us", "response_bytes")
    }
    captured = [item for session in env.sessions for item in session.captured]
    for text, params, result in captured:
        marks = [perf_counter()]
        request = {"op": "execute", "query": text,
                   "params": {key: protocol.encode_value(value) for key, value in params.items()}}
        request_frame = protocol.encode_frame(request)
        marks.append(perf_counter())
        decoded = protocol.decode_payload(request_frame[4:])
        {key: protocol.decode_value(value) for key, value in decoded["params"].items()}
        marks.append(perf_counter())
        response_frame = protocol.encode_frame({
            "ok": True, "columns": list(result.columns),
            "rows": [[protocol.encode_value(value) for value in row] for row in result.rows],
            "stats": result.stats, "in_transaction": False,
        })
        marks.append(perf_counter())
        response = protocol.decode_payload(response_frame[4:])
        [[protocol.decode_value(value) for value in row] for row in response["rows"]]
        marks.append(perf_counter())
        for name, begin, end in zip(timings, marks, marks[1:]):
            timings[name].append((end - begin) * 1e6)
        timings["response_bytes"].append(len(response_frame))
    for name, sample in timings.items():
        extras[f"protocol.{name}"] = sample


def _snapshot_cache_totals(sessions) -> Optional[List[int]]:
    """Summed snapshot-cache [hits, misses] of the embedded sessions."""
    embedded = [session for session in sessions if isinstance(session, EmbeddedSession)]
    if not embedded:
        return None
    return [sum(session.snapshot_cache[index] for session in embedded) for index in (0, 1)]


def _probe_wal(measured: Measured, extras, work_dir: str) -> None:
    """``append_commits`` + fsync on a scratch file at this run's commit size."""
    grown = {
        name: measured.after.get(name, 0.0) - measured.before.get(name, 0.0)
        for name in ("repro_wal_appended_bytes_total", "repro_stat_store_batches_applied")
    }
    commits = grown["repro_stat_store_batches_applied"]
    if not commits:
        return
    size = int(grown["repro_wal_appended_bytes_total"] / commits)
    payload = [{"op": "probe", "filler": "x" * max(1, size - 80)}]
    path = os.path.join(work_dir, f"wal-probe-{os.getpid()}.log")
    log = WriteAheadLog(path, sync_on_commit=True)
    try:
        sample: List[float] = []
        for txn_id in range(WAL_APPENDS):
            started = perf_counter()
            log.append_commits([(txn_id, payload)])
            sample.append((perf_counter() - started) * 1e6)
        extras["wal_append_fsync_us"] = sample
    finally:
        log.close()
        os.unlink(path)


def _engine_phase_intervals(trace) -> List[Tuple[str, float, float]]:
    """Absolute (phase, start, end) of one engine trace's contiguous marks."""
    cursor = trace.started_at
    intervals = []
    for phase, seconds in trace.phases:
        intervals.append((phase, cursor, cursor + seconds))
        cursor += seconds
    return intervals


def _attach_engine_phases(env, measured: Measured) -> None:
    """Engine phase marks become children of the span of the same transaction."""
    by_txn = {trace.txn_id: trace for trace in env.traces}
    for thread in measured.thread_spans:
        for span in list(thread.spans):
            trace = by_txn.get(span.attrs.get("txn")) if span.attrs else None
            if trace is None:
                continue
            for phase, start, end in _engine_phase_intervals(trace):
                inside = span.start <= start and end <= span.end
                if inside and (phase == "begin") == (span.name == "api.begin"):
                    thread.add_child(span, f"core.{phase}", start, end)
