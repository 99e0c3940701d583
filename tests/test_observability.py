"""End-to-end observability: traces, slow queries, exposition, compat parity."""

import json
import urllib.request

import pytest

from repro import GraphDatabase, IsolationLevel, WriteWriteConflictError
from repro.errors import TransactionAbortedError
from repro.obs import JsonLinesSink, flatten_statistics
from repro.obs.tracing import PHASES

from prometheus_parser import parse_prometheus_text


def traced_db(**options):
    options.setdefault("tracing", True)
    return GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT, **options)


def counter_value(db, name, **labels):
    samples = db.metrics_snapshot()["instruments"][name]["samples"]
    for sample in samples:
        if sample["labels"] == labels:
            return sample["value"]
    return 0.0


class TestTransactionTracing:
    def test_write_commit_marks_every_phase(self):
        db = traced_db()
        with db.transaction() as tx:
            tx.create_node(["Person"], {"name": "a"})
        trace = db.recent_traces()[-1]
        assert trace.outcome == "committed"
        assert [name for name, _ in trace.phases] == list(PHASES)
        assert trace.annotations["stripes"] >= 1
        assert trace.annotations["writes"] >= 1
        # The ``wal`` phase is the log append alone: the record stores catch
        # up later, off the commit path.
        assert dict(trace.phases)["wal"] > 0.0
        assert "apply_us" not in trace.annotations
        assert db.store.backlog_size == 1
        db.close()

    def test_phase_durations_sum_to_wall_time(self):
        db = traced_db()
        with db.transaction() as tx:
            for index in range(20):
                tx.create_node(["Person"], {"n": index})
        trace = db.recent_traces()[-1]
        phase_sum = sum(seconds for _, seconds in trace.phases)
        # Phases cover begin -> publish; finish() adds only the sealing
        # perf_counter call beyond the last mark.
        assert phase_sum <= trace.wall_seconds
        assert trace.wall_seconds - phase_sum < 0.05
        assert all(seconds >= 0.0 for _, seconds in trace.phases)
        db.close()

    def test_disabled_tracing_records_nothing(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
        for _ in range(5):
            with db.transaction() as tx:
                tx.create_node(["Person"])
        assert db.recent_traces() == []
        assert db.observability.tracer.stats()["recorded"] == 0
        # No per-transaction observations leak into the sampled histograms.
        snapshot = db.metrics_snapshot()
        assert snapshot["instruments"]["repro_txn_seconds"]["samples"][0]["count"] == 0
        assert snapshot["instruments"]["repro_txn_phase_seconds"]["samples"] == []
        # The lifecycle counters still work without tracing.
        assert counter_value(db, "repro_txn_committed_total") == 5.0
        db.close()

    def test_sampling_is_deterministic(self):
        db = traced_db(trace_sample_rate=0.5)
        for _ in range(10):
            with db.transaction() as tx:
                tx.create_node(["Person"])
        stats = db.observability.tracer.stats()
        assert stats["sample_every"] == 2
        assert stats["recorded"] == 5
        assert stats["dropped_by_sampling"] == 5
        db.close()

    def test_aborted_transaction_traced_with_reason(self):
        db = traced_db()
        with db.transaction() as tx:
            node = tx.create_node(["Person"], {"v": 0})
        # Write-time conflict (first-updater-wins), surfaced mid-block and
        # classified by the context manager's rollback.
        first = db.begin()
        first.set_node_property(node.id, "v", 1)
        with pytest.raises((WriteWriteConflictError, TransactionAbortedError)):
            with db.transaction() as second:
                first.commit()  # lands after second's snapshot
                second.set_node_property(node.id, "v", 2)
        aborted = [t for t in db.recent_traces() if t.outcome == "aborted"]
        assert aborted
        assert aborted[-1].reason == "ww-conflict"
        assert counter_value(db, "repro_txn_aborts_total", reason="ww-conflict") >= 1.0
        db.close()

    def test_explicit_rollback_traced_as_rollback(self):
        db = traced_db()
        tx = db.begin()
        tx.create_node(["Person"])
        tx.rollback()
        trace = db.recent_traces()[-1]
        assert trace.outcome == "aborted"
        assert trace.reason == "rollback"
        assert counter_value(db, "repro_txn_aborts_total", reason="rollback") == 1.0
        db.close()

    def test_read_only_trace_skips_write_phases(self):
        db = traced_db()
        with db.transaction() as tx:
            tx.create_node(["Person"])
        with db.transaction(read_only=True) as tx:
            list(tx.find_nodes(label="Person"))
        trace = db.recent_traces()[-1]
        assert trace.read_only is True
        names = [name for name, _ in trace.phases]
        assert "wal" not in names and "stripe_wait" not in names
        db.close()

    def test_json_lines_sink(self, tmp_path):
        path = str(tmp_path / "traces.jsonl")
        db = traced_db()
        sink = JsonLinesSink(path)
        db.observability.tracer.add_sink(sink)
        with db.transaction() as tx:
            tx.create_node(["Person"])
        sink.close()
        with open(path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert lines and lines[-1]["outcome"] == "committed"
        assert "wal" in lines[-1]["phases"]
        db.close()


class TestSlowQueryLog:
    def test_threshold_zero_captures_everything(self):
        db = traced_db(slow_query_seconds=0.0)
        with db.transaction() as tx:
            tx.execute("CREATE (:Person {name: $n})", {"n": "a"})
        entries = db.slow_queries()
        assert entries
        entry = entries[-1].as_dict()
        assert entry["text"].startswith("CREATE")
        assert entry["parameters"] == {"n": "a"}
        assert entry["plan"] is not None
        assert entry["snapshot_ts"] is not None
        assert entry["read_only"] is False
        db.close()

    def test_parameters_redacted_but_named(self):
        db = traced_db(slow_query_seconds=0.0, redact_parameters=True)
        with db.transaction() as tx:
            tx.execute("CREATE (:Person {name: $secret})", {"secret": "hunter2"})
        entry = db.slow_queries()[-1].as_dict()
        assert entry["parameters"] == {"secret": "<redacted>"}
        db.close()

    def test_disabled_by_default(self):
        db = traced_db()
        with db.transaction() as tx:
            tx.execute("CREATE (:Person)")
        assert db.slow_queries() == []
        assert db.statistics()["observability"]["slow_query_log"]["enabled"] is False
        db.close()

    def test_capacity_bounds_buffer_not_total(self):
        db = traced_db(slow_query_seconds=0.0, slow_query_capacity=2)
        with db.transaction() as tx:
            for index in range(5):
                tx.execute("CREATE (:Person {i: $i})", {"i": index})
        assert len(db.slow_queries()) == 2
        assert db.statistics()["observability"]["slow_query_log"]["total"] == 5
        db.close()


class TestStatisticsCompat:
    """Exposition must reproduce every counter ``statistics()`` ever had."""

    def workload(self, db):
        with db.transaction() as tx:
            alice = tx.create_node(["Person"], {"name": "a"})
            bob = tx.create_node(["Person"], {"name": "b"})
            tx.create_relationship(alice, bob, "KNOWS")
        with db.transaction(read_only=True) as tx:
            tx.execute("MATCH (n:Person) RETURN n.name").consume()

    def test_every_statistics_leaf_in_snapshot(self):
        db = traced_db()
        self.workload(db)
        flat = flatten_statistics(db.statistics())
        collected = db.metrics_snapshot()["collected"]
        missing = {k for k in flat if k not in collected}
        assert not missing
        db.close()

    def test_every_statistics_leaf_in_prometheus_text(self):
        db = traced_db()
        self.workload(db)
        flat = flatten_statistics(db.statistics())
        parsed = parse_prometheus_text(db.prometheus_metrics())
        exposed = {name for name, _ in parsed}
        missing = {k for k in flat if k not in exposed}
        assert not missing
        # Spot-check one value survives the round trip exactly.
        committed = flat["repro_stat_engine_transactions_committed"]
        assert parsed[("repro_stat_engine_transactions_committed", ())] == committed
        db.close()

    def test_engine_stats_still_integer_properties(self):
        db = traced_db()
        self.workload(db)
        transactions = db.statistics()["engine"]["transactions"]
        assert isinstance(transactions["committed"], int)
        assert transactions["committed"] >= 2
        db.close()


class TestPrometheusExposition:
    def test_renders_parseable_text_with_histograms(self):
        db = traced_db()
        with db.transaction() as tx:
            tx.execute("CREATE (:Person)")
        text = db.prometheus_metrics()
        parsed = parse_prometheus_text(text)
        assert parsed[("repro_txn_committed_total", ())] == 1.0
        inf_key = ("repro_query_seconds_bucket", (("le", "+Inf"),))
        count_key = ("repro_query_seconds_count", ())
        assert parsed[inf_key] == parsed[count_key] >= 1.0
        assert "# TYPE repro_txn_seconds histogram" in text
        # One committed batch: one WAL append, queued for the record stores.
        assert parsed[("repro_wal_append_seconds_count", ())] == 1.0
        assert parsed[("repro_store_apply_seconds_count", ())] == 0.0
        assert parsed[("repro_store_apply_backlog", ())] == 1.0
        # The checkpoint catches up: one apply of the backlog.
        db.checkpoint()
        parsed = parse_prometheus_text(db.prometheus_metrics())
        assert parsed[("repro_store_apply_seconds_count", ())] == 1.0
        assert parsed[("repro_store_apply_backlog", ())] == 0.0
        assert parsed[("repro_store_apply_skipped_total", ())] == 0.0
        db.close()

    def test_bucket_counts_are_cumulative(self):
        db = traced_db()
        with db.transaction() as tx:
            tx.execute("CREATE (:Person)")
        parsed = parse_prometheus_text(db.prometheus_metrics())
        buckets = sorted(
            (float(labels[0][1]) if labels[0][1] != "+Inf" else float("inf"), value)
            for (name, labels), value in parsed.items()
            if name == "repro_query_seconds_bucket"
        )
        values = [value for _, value in buckets]
        assert values == sorted(values)
        db.close()


class TestMetricsExporter:
    def test_scrape_endpoint_serves_metrics(self):
        db = traced_db()
        with db.transaction() as tx:
            tx.execute("CREATE (:Person)")
        exporter = db.serve_metrics()
        try:
            with urllib.request.urlopen(f"{exporter.url}/metrics", timeout=10) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith("text/plain")
                parsed = parse_prometheus_text(resp.read().decode("utf-8"))
            assert parsed[("repro_txn_committed_total", ())] == 1.0
            with urllib.request.urlopen(
                f"{exporter.url}/metrics.json", timeout=10
            ) as resp:
                payload = json.load(resp)
            assert "repro_txn_committed_total" in payload["instruments"]
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{exporter.url}/nope", timeout=10)
        finally:
            exporter.stop()
            db.close()
