"""Engine-neutral statistics containers.

Both transaction engines (the read-committed baseline and the paper's
snapshot-isolation engine) report the same transaction outcome counters, so
the container lives here rather than in either engine's package.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.obs.registry import MetricsRegistry


class EngineStats:
    """Transaction outcome counters shared by both engines.

    Backed by :class:`repro.obs.registry.MetricsRegistry` counters
    (``repro_txn_begun_total`` / ``repro_txn_committed_total`` /
    ``repro_txn_aborted_total``), so the same numbers appear in
    ``statistics()``, ``metrics_snapshot()`` and the Prometheus exposition
    without double bookkeeping.  The registry counters shard per thread, so
    :meth:`record_begin` and friends need no engine-level lock — concurrent
    transactions increment disjoint cells and reads merge them.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        reg = registry if registry is not None else MetricsRegistry()
        self._begun = reg.counter("repro_txn_begun_total", "Transactions begun")
        self._committed = reg.counter(
            "repro_txn_committed_total", "Transactions committed"
        )
        self._aborted = reg.counter(
            "repro_txn_aborted_total", "Transactions aborted (any reason)"
        )

    def record_begin(self) -> None:
        """Count one transaction begin (lock-free)."""
        self._begun.inc()

    def record_commit(self) -> None:
        """Count one transaction commit (lock-free)."""
        self._committed.inc()

    def record_abort(self) -> None:
        """Count one transaction abort (lock-free)."""
        self._aborted.inc()

    @property
    def begun(self) -> int:
        """Transactions begun (merged across threads)."""
        return int(self._begun.value())

    @property
    def committed(self) -> int:
        """Transactions committed (merged across threads)."""
        return int(self._committed.value())

    @property
    def aborted(self) -> int:
        """Transactions aborted (merged across threads)."""
        return int(self._aborted.value())

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view of the counters."""
        return {
            "begun": self.begun,
            "committed": self.committed,
            "aborted": self.aborted,
        }


class CommitPipelineStats:
    """Counters for the sharded commit pipeline (snapshot-isolation engine).

    ``stripe_waits`` counts stripe-lock acquisitions that had to block behind
    another committer — the direct measure of commit-path contention that the
    single global mutex made invisible (every commit waited).  Updates come
    from concurrent committers, so they go through an internal lock: an
    unsynchronised ``+=`` loses increments under exactly the contention these
    counters exist to measure.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.stripe_acquisitions = 0
        self.stripe_waits = 0
        self.max_stripes_per_commit = 0

    def record_commit(self, stripe_count: int, waits: int) -> None:
        """Record one commit's stripe acquisitions in a single locked update.

        One call per commit (not per stripe) keeps this shared lock off the
        hot path the stripes exist to de-serialise.
        """
        with self._lock:
            self.stripe_acquisitions += stripe_count
            self.stripe_waits += waits
            if stripe_count > self.max_stripes_per_commit:
                self.max_stripes_per_commit = stripe_count

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view of the counters."""
        with self._lock:
            return {
                "stripe_acquisitions": self.stripe_acquisitions,
                "stripe_waits": self.stripe_waits,
                "max_stripes_per_commit": self.max_stripes_per_commit,
            }


class CardinalityEpoch:
    """A coarse change counter over an engine's cardinality statistics.

    The query plan cache keys plans on ``(query text, epoch)``: as long as
    the epoch is stable, cached plans were costed against statistics close
    enough to the current ones to stay valid.  The index layer calls
    :meth:`record` once per indexed entity change; when the accumulated
    changes since the last bump exceed a fraction of the indexed population
    (with an absolute floor so small databases re-plan promptly), the epoch
    advances and every cached plan silently expires on its next lookup.

    Each engine owns one instance, which its
    :class:`~repro.core.versioned_index.VersionedIndexSet` records into.
    """

    def __init__(self, *, min_changes: int = 128, drift_fraction: float = 0.125) -> None:
        if min_changes < 1:
            raise ValueError("min_changes must be positive")
        if drift_fraction <= 0:
            raise ValueError("drift_fraction must be positive")
        self._min_changes = min_changes
        self._drift_fraction = drift_fraction
        #: Net indexed population (creates minus deletes), the drift baseline.
        self._population = 0
        self._changes_since_bump = 0
        self.epoch = 0

    def record(self, net_delta: int = 0) -> None:
        """Record one indexed entity change (``net_delta``: +1 create, -1 delete).

        Deliberately lock-free: this sits on the striped commit path, and a
        global mutex here would re-serialise exactly the commits PR 1
        unsharded.  The counters are racy under the GIL's ``+=`` windows —
        a lost increment merely delays (or an extra epoch bump merely
        hastens) a heuristic re-plan, never affects correctness.
        """
        self._population += net_delta
        self._changes_since_bump += 1
        threshold = max(
            self._min_changes, int(self._population * self._drift_fraction)
        )
        if self._changes_since_bump >= threshold:
            self.epoch += 1
            self._changes_since_bump = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (stats surface; racy reads, monitoring only)."""
        return {
            "epoch": self.epoch,
            "population": self._population,
            "changes_since_bump": self._changes_since_bump,
        }
