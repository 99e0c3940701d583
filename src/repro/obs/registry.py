"""Metrics registry: named counters, gauges and fixed-bucket histograms.

Design constraints, in order:

1. **The hot path must not take a shared lock.**  Counters and histograms
   are written from every transaction begin/commit and every query; a
   process-wide mutex there would re-serialise exactly the paths the
   sharded commit pipeline and the lock-free read path de-serialised.
   Each instrument therefore keeps *per-thread shard cells*: an increment
   touches only the calling thread's cell (a plain ``+=`` on ints that no
   other thread ever writes), and a read merges all cells.  Merging while
   writers are active can observe a cell mid-update — values may be a few
   increments stale — but an increment is never lost, and once the writing
   threads quiesce the merged totals are exact.

2. **Reads are monitoring-grade, writes are correctness-grade.**  The
   counters feed benchmarks and tests that assert exact totals after
   joining their threads; the stale-read window only matters to a live
   scrape, which tolerates it by definition.

3. **No dependencies.**  Exposition (:mod:`repro.obs.prometheus`) renders
   the :meth:`MetricsRegistry.snapshot` structure; nothing here imports
   outside the standard library.

Instruments are created through the registry (``registry.counter(...)``),
which deduplicates by name so independent subsystems can ask for the same
instrument.  Instruments may be *labelled*: ``counter("x_total",
labelnames=("reason",))`` returns a family whose :meth:`~_Instrument.labels`
method hands out per-label-value children.  An unlabelled instrument is its
own single child, so ``counter("y_total").inc()`` works directly.

Registries also accept *collectors* — callables returning a flat
``name -> number`` mapping evaluated at snapshot time — which is how the
engines' existing structural statistics (version-chain counts, oracle
state, cardinalities) are exposed without migrating every data structure
onto an instrument.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "flatten_statistics",
    "sanitize_metric_name",
]

#: Log-spaced latency buckets (seconds): 10us .. ~100s, 4 buckets per decade.
#: Upper bounds only; the implicit final bucket is +Inf.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    round(10 ** (exponent / 4.0), 10) for exponent in range(-20, 9)
)

_NAME_PATTERN = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(raw: str) -> str:
    """Coerce an arbitrary string into a valid Prometheus metric name."""
    name = _INVALID_CHARS.sub("_", raw)
    if not name or not _NAME_PATTERN.match(name):
        name = "_" + name
    return name


def _validate_name(name: str) -> str:
    if not _NAME_PATTERN.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


# ---------------------------------------------------------------------------
# shard cells
# ---------------------------------------------------------------------------


class _CounterCell:
    """One thread's share of a counter (written only by its owner)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


class _HistogramCell:
    """One thread's share of a histogram (written only by its owner)."""

    __slots__ = ("bucket_counts", "count", "total", "samples")

    def __init__(self, bucket_count: int, track_samples: bool) -> None:
        self.bucket_counts = [0] * bucket_count
        self.count = 0
        self.total = 0.0
        self.samples: Optional[List[float]] = [] if track_samples else None


class _Sharded:
    """Per-thread cell management shared by counters and histograms.

    Cell creation (first touch per thread) takes the instrument lock; every
    later operation is lock-free.  Cells of finished threads are retained —
    counters are cumulative, so their contributions must survive the thread.
    A new thread that reuses a finished thread's ident takes over its cell
    (idents are unique among live threads, so the old owner writes no more).
    """

    def __init__(self) -> None:
        self._cells_lock = threading.Lock()
        self._cells: Dict[int, object] = {}
        self._local = threading.local()

    def _cell(self):
        try:
            return self._local.cell
        except AttributeError:
            with self._cells_lock:
                cell = self._cells.get(threading.get_ident())
                if cell is None:
                    cell = self._cells[threading.get_ident()] = self._new_cell()
            self._local.cell = cell
            return cell

    def _new_cell(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _all_cells(self) -> List[object]:
        with self._cells_lock:
            return list(self._cells.values())


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------


class Counter(_Sharded):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        super().__init__()

    def _new_cell(self) -> _CounterCell:
        return _CounterCell()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters can only increase")
        self._cell().value += amount

    def value(self) -> float:
        """Merged value across every thread's cell."""
        return sum(cell.value for cell in self._all_cells())


class Gauge:
    """A value that can go up and down (or be computed at read time)."""

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        with self._lock:
            self._value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Compute the gauge by calling ``fn`` at read time."""
        with self._lock:
            self._fn = fn

    def value(self) -> float:
        """Current value (calls the function for callback gauges)."""
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        try:
            return float(fn())
        except Exception:
            return float("nan")


class Histogram(_Sharded):
    """Fixed-bucket histogram with per-thread shards.

    ``buckets`` are the upper bounds (sorted ascending); an implicit +Inf
    bucket catches the tail.  With ``track_samples=True`` every observation
    is additionally kept verbatim (per thread, merged on read), giving exact
    interpolated percentiles — the mode the workload benchmarks use; leave
    it off for unbounded-lifetime instruments.
    """

    kind = "histogram"

    def __init__(
        self,
        buckets: Optional[Sequence[float]] = None,
        *,
        track_samples: bool = False,
    ) -> None:
        super().__init__()
        bounds = tuple(sorted(buckets)) if buckets else DEFAULT_LATENCY_BUCKETS
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bounds: Tuple[float, ...] = bounds
        self._track_samples = track_samples

    def _new_cell(self) -> _HistogramCell:
        return _HistogramCell(len(self.bounds) + 1, self._track_samples)

    def observe(self, value: float) -> None:
        """Record one observation."""
        cell = self._cell()
        cell.bucket_counts[bisect_left(self.bounds, value)] += 1
        cell.count += 1
        cell.total += value
        if cell.samples is not None:
            cell.samples.append(value)

    def observe_many(self, values: Sequence[float]) -> None:
        """Record several observations with one cell lookup."""
        cell = self._cell()
        bounds = self.bounds
        bucket_counts = cell.bucket_counts
        for value in values:
            bucket_counts[bisect_left(bounds, value)] += 1
        cell.count += len(values)
        cell.total += sum(values)
        if cell.samples is not None:
            cell.samples.extend(values)

    # -- merged views -------------------------------------------------------

    def count(self) -> int:
        """Total number of observations."""
        return sum(cell.count for cell in self._all_cells())

    def sum(self) -> float:
        """Sum of every observation."""
        return sum(cell.total for cell in self._all_cells())

    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        count = self.count()
        return self.sum() / count if count else 0.0

    def bucket_counts(self) -> List[int]:
        """Per-bucket counts (len(bounds) + 1 entries; the last is +Inf)."""
        merged = [0] * (len(self.bounds) + 1)
        for cell in self._all_cells():
            for index, bucket in enumerate(cell.bucket_counts):
                merged[index] += bucket
        return merged

    def samples(self) -> List[float]:
        """Every recorded sample (exact mode only; [] otherwise)."""
        merged: List[float] = []
        for cell in self._all_cells():
            if cell.samples is not None:
                merged.extend(cell.samples)
        return merged

    def percentile(self, fraction: float) -> float:
        """Value at ``fraction`` (0..1); 0.0 when empty.

        In exact-sample mode this is the linearly-interpolated order
        statistic (the same definition ``statistics.quantiles`` uses with
        ``method='inclusive'``); in bucket mode the estimate interpolates
        within the covering bucket, which is as precise as the bucket
        layout allows.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        samples = self.samples() if self._track_samples else None
        if samples:
            samples.sort()
            rank = fraction * (len(samples) - 1)
            low = math.floor(rank)
            high = math.ceil(rank)
            if low == high:
                return samples[int(rank)]
            weight = rank - low
            return samples[low] * (1.0 - weight) + samples[high] * weight
        counts = self.bucket_counts()
        total = sum(counts)
        if total == 0:
            return 0.0
        target = fraction * total
        cumulative = 0
        for index, bucket in enumerate(counts):
            previous = cumulative
            cumulative += bucket
            if cumulative >= target and bucket:
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.bounds[-1]
                )
                lower = self.bounds[index - 1] if index > 0 else 0.0
                within = (target - previous) / bucket
                return lower + (upper - lower) * min(1.0, max(0.0, within))
        return self.bounds[-1]

    def summary(self) -> Dict[str, float]:
        """count / mean / p50 / p95 / p99 / max in one dictionary."""
        return {
            "count": self.count(),
            "mean": self.mean(),
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "max": self.percentile(1.0),
        }


# ---------------------------------------------------------------------------
# labelled families
# ---------------------------------------------------------------------------


class _Family:
    """A named instrument family: children keyed by label values.

    With no label names the family has exactly one anonymous child and the
    child's methods are exposed on the family itself, so unlabelled
    instruments read naturally (``family.inc()`` / ``family.observe()``).
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        child_factory: Callable[[], object],
    ) -> None:
        self.name = _validate_name(name)
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._factory = child_factory
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            self._children[()] = child_factory()

    @property
    def kind(self) -> str:
        """Instrument kind: counter, gauge or histogram."""
        probe = next(iter(self._children.values()), None)
        if probe is None:
            probe = self._factory()
        return probe.kind

    def labels(self, *values: str, **kv: str) -> object:
        """The child instrument for one combination of label values."""
        if kv:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                values = tuple(str(kv[name]) for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(f"missing label {exc.args[0]!r}") from None
            if len(kv) != len(self.labelnames):
                raise ValueError(f"expected labels {self.labelnames}, got {tuple(kv)}")
        else:
            values = tuple(str(value) for value in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects {len(self.labelnames)} label values, got {len(values)}"
            )
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.get(values)
                if child is None:
                    child = self._factory()
                    self._children[values] = child
        return child

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Every (label values, child) pair created so far."""
        with self._lock:
            return list(self._children.items())

    # -- anonymous-child passthrough (unlabelled families) -------------------

    def _only(self):
        if self.labelnames:
            raise ValueError(f"{self.name} is labelled; call .labels(...) first")
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._only().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._only().dec(amount)

    def set(self, value: float) -> None:
        self._only().set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._only().set_function(fn)

    def observe(self, value: float) -> None:
        self._only().observe(value)

    def value(self) -> float:
        return self._only().value()

    def count(self) -> int:
        return self._only().count()

    def sum(self) -> float:
        return self._only().sum()

    def percentile(self, fraction: float) -> float:
        return self._only().percentile(fraction)

    def summary(self) -> Dict[str, float]:
        return self._only().summary()

    def samples(self) -> List[float]:
        return self._only().samples()

    def bucket_counts(self) -> List[int]:
        return self._only().bucket_counts()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class MetricsRegistry:
    """Holds instrument families by name, plus snapshot-time collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "Dict[str, _Family]" = {}
        self._collectors: List[Callable[[], Mapping[str, float]]] = []

    # -- instrument creation (get-or-create, deduplicated by name) ----------

    def _family(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        kind: str,
        factory: Callable[[], object],
    ) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind}"
                    )
                if family.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{family.labelnames}"
                    )
                return family
            family = _Family(name, help_text, labelnames, factory)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> _Family:
        """Get or create a counter family."""
        return self._family(name, help_text, labelnames, "counter", Counter)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> _Family:
        """Get or create a gauge family."""
        return self._family(name, help_text, labelnames, "gauge", Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        *,
        buckets: Optional[Sequence[float]] = None,
        track_samples: bool = False,
    ) -> _Family:
        """Get or create a histogram family."""
        return self._family(
            name,
            help_text,
            labelnames,
            "histogram",
            lambda: Histogram(buckets, track_samples=track_samples),
        )

    def register_collector(self, fn: Callable[[], Mapping[str, float]]) -> None:
        """Register a snapshot-time collector returning ``name -> number``.

        Collector output is rendered as gauges; a collector that raises is
        skipped for that snapshot (scrapes must not fail because one
        subsystem is mid-teardown).
        """
        with self._lock:
            self._collectors.append(fn)

    def families(self) -> List[_Family]:
        """Every registered instrument family."""
        with self._lock:
            return list(self._families.values())

    def get(self, name: str) -> Optional[_Family]:
        """The family registered under ``name``, or ``None``."""
        with self._lock:
            return self._families.get(name)

    # -- snapshot ------------------------------------------------------------

    def collect_extra(self) -> Dict[str, float]:
        """Merged collector output (later collectors win on name clashes)."""
        with self._lock:
            collectors = list(self._collectors)
        merged: Dict[str, float] = {}
        for collector in collectors:
            try:
                merged.update(collector())
            except Exception:
                continue
        return merged

    def snapshot(self) -> Dict[str, object]:
        """The whole registry as one JSON-able dictionary.

        ``instruments`` maps family name to type/help/samples; ``collected``
        holds the flat collector output.  This is the structure
        ``db.metrics_snapshot()`` returns and the Prometheus renderer
        consumes.
        """
        instruments: Dict[str, object] = {}
        for family in self.families():
            samples = []
            for label_values, child in family.children():
                labels = dict(zip(family.labelnames, label_values))
                if family.kind == "histogram":
                    bounds = list(child.bounds)
                    samples.append(
                        {
                            "labels": labels,
                            "count": child.count(),
                            "sum": child.sum(),
                            "buckets": dict(
                                zip(
                                    [str(bound) for bound in bounds] + ["+Inf"],
                                    child.bucket_counts(),
                                )
                            ),
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value()})
            instruments[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return {"instruments": instruments, "collected": self.collect_extra()}


_default_registry_lock = threading.Lock()
_default_registry: Optional[MetricsRegistry] = None


def default_registry() -> MetricsRegistry:
    """The process-wide default registry (created on first use)."""
    global _default_registry
    with _default_registry_lock:
        if _default_registry is None:
            _default_registry = MetricsRegistry()
        return _default_registry


# ---------------------------------------------------------------------------
# statistics flattening (the compatibility bridge)
# ---------------------------------------------------------------------------


def flatten_statistics(
    nested: Mapping[str, object], prefix: str = "repro_stat"
) -> Dict[str, float]:
    """Flatten a nested statistics dict into metric-name -> number.

    Every numeric leaf of ``db.statistics()`` becomes one flat entry whose
    name is the sanitized path joined with ``_`` — e.g.
    ``engine.transactions.abort_reasons["ww-conflict"]`` becomes
    ``repro_stat_engine_transactions_abort_reasons_ww_conflict``.  Both the
    statistics collector and the compatibility tests use this one function,
    which is what guarantees the exposition reproduces every counter
    ``statistics()`` reports.
    """
    flat: Dict[str, float] = {}

    def walk(value: object, path: str) -> None:
        if isinstance(value, Mapping):
            for key, child in value.items():
                walk(child, f"{path}_{sanitize_metric_name(str(key))}")
        elif isinstance(value, bool):
            flat[path] = float(value)
        elif isinstance(value, (int, float)):
            flat[path] = float(value)
        # strings and other leaves (isolation level, policy names) have no
        # numeric representation; the exposition carries them nowhere and
        # the compatibility contract covers *counters* only.

    walk(dict(nested), sanitize_metric_name(prefix))
    return flat
