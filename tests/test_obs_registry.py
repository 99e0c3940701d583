"""Metrics registry: instruments, labels, sharded merge, flattening."""

import math
import statistics
import threading

import pytest

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    flatten_statistics,
    sanitize_metric_name,
)


class TestCounter:
    def test_increments_and_reads(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "ops")
        counter.inc()
        counter.inc(5)
        assert counter.value() == 6.0

    def test_get_or_create_dedupes_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("c_total") is registry.counter("c_total")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

    def test_labelled_children_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("aborts_total", labelnames=("reason",))
        counter.labels(reason="deadlock").inc()
        counter.labels(reason="deadlock").inc()
        counter.labels(reason="ww").inc()
        assert counter.labels(reason="deadlock").value() == 2.0
        assert counter.labels(reason="ww").value() == 1.0

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c_total").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value() == 7.0

    def test_function_gauge_reads_callback(self):
        registry = MetricsRegistry()
        backing = {"value": 3}
        gauge = registry.gauge("live")
        gauge.set_function(lambda: backing["value"])
        assert gauge.value() == 3.0
        backing["value"] = 9
        assert gauge.value() == 9.0

    def test_failing_callback_reads_nan(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("broken")
        gauge.set_function(lambda: 1 / 0)
        assert math.isnan(gauge.value())


class TestHistogram:
    def test_bucketing_and_totals(self):
        histogram = Histogram(buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count() == 3
        assert histogram.sum() == 55.5
        assert histogram.bucket_counts() == [1, 1, 1]  # <=1, <=10, +Inf

    def test_default_buckets_span_latency_range(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-5)
        assert DEFAULT_LATENCY_BUCKETS[-1] == pytest.approx(100.0)
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)

    def test_exact_mode_percentiles_interpolate(self):
        histogram = Histogram(track_samples=True)
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.percentile(0.50) == pytest.approx(50.5)
        assert histogram.percentile(0.99) == pytest.approx(99.01)
        assert histogram.percentile(1.0) == pytest.approx(100.0)
        assert histogram.percentile(0.0) == pytest.approx(1.0)

    def test_bucket_mode_percentile_is_bounded_by_bucket(self):
        histogram = Histogram(buckets=(0.1, 1.0, 10.0))
        for _ in range(100):
            histogram.observe(0.5)
        p50 = histogram.percentile(0.50)
        assert 0.1 <= p50 <= 1.0

    def test_summary_keys(self):
        histogram = Histogram(track_samples=True)
        histogram.observe(2.0)
        summary = histogram.summary()
        assert set(summary) == {"count", "mean", "p50", "p95", "p99", "max"}
        assert summary["count"] == 1
        assert summary["max"] == 2.0


class TestShardedMerge:
    """The lock-free shard design must never lose increments."""

    def test_concurrent_increments_with_concurrent_reads(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammered_total")
        histogram = registry.histogram("timed_seconds")
        threads_n, per_thread = 8, 5_000
        start = threading.Barrier(threads_n + 2)  # writers + watcher + main
        stop_reading = threading.Event()
        errors = []

        def writer():
            try:
                start.wait()
                for _ in range(per_thread):
                    counter.inc()
                    histogram.observe(0.001)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        def reader():
            try:
                start.wait()
                while not stop_reading.is_set():
                    # Merges must see a monotonically consistent view and
                    # never raise while writers mutate their shards.
                    assert counter.value() >= 0
                    registry.snapshot()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        writers = [threading.Thread(target=writer) for _ in range(threads_n)]
        watcher = threading.Thread(target=reader)
        for thread in writers:
            thread.start()
        watcher.start()
        start.wait()
        for thread in writers:
            thread.join(timeout=60)
        stop_reading.set()
        watcher.join(timeout=60)
        assert not errors
        assert counter.value() == threads_n * per_thread
        assert histogram.count() == threads_n * per_thread

    def test_counts_survive_thread_death(self):
        registry = MetricsRegistry()
        counter = registry.counter("short_lived_total")

        def worker():
            counter.inc(10)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert counter.value() == 10.0

    def test_counts_survive_thread_ident_reuse(self):
        registry = MetricsRegistry()
        counter = registry.counter("sequential_total")
        for _ in range(20):
            thread = threading.Thread(target=counter.inc)
            thread.start()
            thread.join()
        assert counter.value() == 20.0


class TestCollectorsAndSnapshot:
    def test_collector_output_in_snapshot(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: {"extra_metric": 42.0})
        snapshot = registry.snapshot()
        assert snapshot["collected"]["extra_metric"] == 42.0

    def test_failing_collector_skipped(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: 1 / 0)
        registry.register_collector(lambda: {"fine": 1.0})
        assert registry.snapshot()["collected"] == {"fine": 1.0}

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help here").inc(3)
        registry.histogram("h_seconds").observe(0.02)
        snapshot = registry.snapshot()
        counter_info = snapshot["instruments"]["c_total"]
        assert counter_info["type"] == "counter"
        assert counter_info["help"] == "help here"
        assert counter_info["samples"][0]["value"] == 3.0
        histogram_info = snapshot["instruments"]["h_seconds"]
        sample = histogram_info["samples"][0]
        assert sample["count"] == 1
        assert "+Inf" in sample["buckets"]


class TestFlattening:
    def test_numeric_leaves_flattened_with_prefix(self):
        flat = flatten_statistics(
            {"engine": {"transactions": {"committed": 4, "rate": 0.5}},
             "name": "ignored-string"}
        )
        assert flat["repro_stat_engine_transactions_committed"] == 4.0
        assert flat["repro_stat_engine_transactions_rate"] == 0.5
        assert not any("name" in key for key in flat)

    def test_booleans_become_zero_one(self):
        flat = flatten_statistics({"wal": {"enabled": True}})
        assert flat["repro_stat_wal_enabled"] == 1.0

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("a-b.c d") == "a_b_c_d"
        assert sanitize_metric_name("9lives") == "_9lives"


class TestExactSampleHistogram:
    """Exact-sample mode is the interpolated order statistic the E1-E9
    benchmarks report through ``statistics.quantiles``."""

    def test_percentiles_match_statistics_quantiles_inclusive(self):
        samples = [0.003, 0.001, 0.02, 0.0075, 0.5, 0.011, 0.0042, 0.09, 0.013]
        histogram = Histogram(track_samples=True)
        histogram.observe_many(samples)
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        assert histogram.percentile(0.50) == pytest.approx(cuts[49])
        assert histogram.percentile(0.95) == pytest.approx(cuts[94])
        assert histogram.percentile(0.99) == pytest.approx(cuts[98])
        assert histogram.mean() == pytest.approx(statistics.fmean(samples))

    def test_empty_histogram_is_all_zeros(self):
        histogram = Histogram(track_samples=True)
        assert histogram.percentile(0.99) == 0.0
        assert histogram.mean() == 0.0
        assert histogram.samples() == []
        assert set(histogram.summary().values()) == {0}

    def test_observe_many_equals_observe(self):
        values = [0.0004, 0.002, 0.002, 0.3, 7.0, 250.0]
        for track_samples in (False, True):
            one_by_one = Histogram(track_samples=track_samples)
            for value in values:
                one_by_one.observe(value)
            batched = Histogram(track_samples=track_samples)
            batched.observe_many(values)
            assert batched.bucket_counts() == one_by_one.bucket_counts()
            assert batched.count() == one_by_one.count() == len(values)
            assert batched.sum() == pytest.approx(one_by_one.sum())
            assert batched.samples() == one_by_one.samples()
            assert batched.percentile(0.5) == pytest.approx(one_by_one.percentile(0.5))

    def test_samples_merge_across_threads(self):
        histogram = Histogram(track_samples=True)

        def worker(offset):
            for value in range(offset, 100, 4):
                histogram.observe(float(value + 1))

        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(histogram.samples()) == [float(value) for value in range(1, 101)]
        assert histogram.percentile(0.95) == pytest.approx(95.05)
        assert histogram.summary()["max"] == 100.0

    @pytest.mark.parametrize("fraction", [-0.01, 1.01])
    def test_percentile_rejects_fraction_outside_unit_interval(self, fraction):
        histogram = Histogram(track_samples=True)
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(fraction)
