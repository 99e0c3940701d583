"""Transaction lifecycle tracing: timed phases per transaction.

A :class:`TxnTrace` is a tiny append-only record the engine attaches to a
*sampled* transaction.  The engine calls :meth:`TxnTrace.mark` at each
lifecycle boundary; a mark is **one** ``perf_counter()`` call plus one list
append, which is the entire per-phase hot-path cost.  The phase sequence
under snapshot isolation:

``begin``        timestamp-oracle grant, snapshot census, safe-snapshot
                 census waits/retakes (for deferrable read-only txns)
``read``         everything between begin and entering commit/abort —
                 version-chain resolution, traversals, query execution
``stripe_wait``  blocking on commit-stripe locks held by peers
``validate``     conflict checks (first-committer-wins / SSI dangerous
                 structures) + write-set collection
``install``      version installation + index maintenance
``wal``          store apply incl. WAL append/fsync (group commit means a
                 trace may pay for peers' batches here — that is real wait)
``publish``      commit-timestamp publication + cleanup

Aborted transactions end with whatever phases they reached plus an
``outcome`` of ``"aborted"`` and the abort ``reason``.

Finished traces go to the recorder's ring buffer (recent-traces window for
``db.observability.recent_traces()``) and to any registered sinks.  Sinks
are called synchronously from the committing thread — they are expected to
be cheap (the JSON-lines sink does one ``write`` on an already-open file).

Sampling is deterministic: ``sample_rate=r`` traces every ``round(1/r)``-th
transaction (counter-based, not RNG) so tests can predict exactly which
transactions carry a trace.  At ``sample_rate=0`` / ``enabled=False`` the
engine never constructs a trace and the per-transaction cost is one
attribute check.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from time import perf_counter
from typing import Callable, Deque, Dict, List, Optional, Tuple

__all__ = ["JsonLinesSink", "TraceRecorder", "TxnTrace"]

#: Canonical phase order (traces may omit phases, never reorder them).
PHASES: Tuple[str, ...] = (
    "begin",
    "read",
    "stripe_wait",
    "validate",
    "install",
    "wal",
    "publish",
)


class TxnTrace:
    """Timed phase record for one transaction."""

    __slots__ = (
        "txn_id",
        "read_only",
        "started_at",
        "finished_at",
        "outcome",
        "reason",
        "_last",
        "_phases",
        "annotations",
    )

    def __init__(self, txn_id: int, *, read_only: bool = False) -> None:
        self.txn_id = txn_id
        self.read_only = read_only
        now = perf_counter()
        self.started_at = now
        self.finished_at: Optional[float] = None
        self.outcome: Optional[str] = None
        self.reason: Optional[str] = None
        self._last = now
        self._phases: List[Tuple[str, float]] = []
        self.annotations: Dict[str, object] = {}

    def mark(self, phase: str) -> None:
        """Close ``phase``: its duration is the time since the last mark."""
        now = perf_counter()
        self._phases.append((phase, now - self._last))
        self._last = now

    def annotate(self, key: str, value: object) -> None:
        """Attach one contextual fact (stripe count, rows read, ...)."""
        self.annotations[key] = value

    def finish(self, outcome: str, reason: Optional[str] = None) -> None:
        """Seal the trace with ``outcome`` (committed/aborted/rolled_back)."""
        self.finished_at = perf_counter()
        self.outcome = outcome
        self.reason = reason

    # -- views ---------------------------------------------------------------

    @property
    def phases(self) -> List[Tuple[str, float]]:
        """``(phase, seconds)`` in the order marked (repeats merged)."""
        merged: Dict[str, float] = {}
        order: List[str] = []
        for phase, seconds in self._phases:
            if phase not in merged:
                order.append(phase)
                merged[phase] = 0.0
            merged[phase] += seconds
        return [(phase, merged[phase]) for phase in order]

    @property
    def wall_seconds(self) -> float:
        """Begin-to-finish wall time (0.0 while still open)."""
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    def as_dict(self) -> Dict[str, object]:
        """JSON-able summary of the whole trace."""
        return {
            "txn_id": self.txn_id,
            "read_only": self.read_only,
            "outcome": self.outcome,
            "reason": self.reason,
            "wall_seconds": self.wall_seconds,
            "phases": {phase: seconds for phase, seconds in self.phases},
            "annotations": dict(self.annotations),
        }


class TraceRecorder:
    """Decides which transactions to trace and where finished traces go."""

    def __init__(
        self,
        *,
        enabled: bool = True,
        sample_rate: float = 1.0,
        ring_size: int = 256,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        self.enabled = enabled and sample_rate > 0.0
        #: Trace every Nth transaction — deterministic, so tests can target
        #: exactly the sampled ones.
        self.sample_every = max(1, round(1.0 / sample_rate)) if self.enabled else 0
        self._counter = 0
        self._counter_lock = threading.Lock()
        self._ring: Deque[TxnTrace] = deque(maxlen=max(1, ring_size))
        self._ring_lock = threading.Lock()
        self._sinks: List[Callable[[TxnTrace], None]] = []
        self.traces_recorded = 0
        self.traces_dropped_by_sampling = 0

    def maybe_start(self, txn_id: int, *, read_only: bool = False) -> Optional[TxnTrace]:
        """A new :class:`TxnTrace` if this transaction is sampled, else None."""
        if not self.enabled:
            return None
        if self.sample_every > 1:
            # Only fractional sampling needs the shared counter; the common
            # sample-everything configuration skips the lock entirely.
            with self._counter_lock:
                self._counter += 1
                sampled = self._counter % self.sample_every == 0
                if not sampled:
                    self.traces_dropped_by_sampling += 1
            if not sampled:
                return None
        return TxnTrace(txn_id, read_only=read_only)

    def record(self, trace: TxnTrace) -> None:
        """Accept a finished trace: ring buffer + every sink."""
        with self._ring_lock:
            self._ring.append(trace)
            self.traces_recorded += 1
            sinks = list(self._sinks)
        for sink in sinks:
            try:
                sink(trace)
            except Exception:
                # An observability sink must never fail a commit.
                continue

    def add_sink(self, sink: Callable[[TxnTrace], None]) -> None:
        """Register a callable invoked with every finished trace."""
        with self._ring_lock:
            self._sinks.append(sink)

    def recent(self, limit: Optional[int] = None) -> List[TxnTrace]:
        """The most recent traces, oldest first."""
        with self._ring_lock:
            traces = list(self._ring)
        if limit is not None:
            traces = traces[-limit:]
        return traces

    def stats(self) -> Dict[str, object]:
        """Recorder counters for ``statistics()`` / snapshots."""
        with self._ring_lock:
            ring_len = len(self._ring)
        return {
            "enabled": self.enabled,
            "sample_every": self.sample_every,
            "recorded": self.traces_recorded,
            "dropped_by_sampling": self.traces_dropped_by_sampling,
            "ring_length": ring_len,
        }


class JsonLinesSink:
    """Trace sink appending one JSON object per line to ``path``."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._file = open(path, "a", encoding="utf-8")

    def __call__(self, trace: TxnTrace) -> None:
        line = json.dumps(trace.as_dict(), sort_keys=True)
        with self._lock:
            self._file.write(line + "\n")
            self._file.flush()

    def close(self) -> None:
        """Close the underlying file (further traces are dropped)."""
        with self._lock:
            if not self._file.closed:
                self._file.close()
