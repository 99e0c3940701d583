"""Deterministic concurrency test harness.

Two pieces, usable together or alone:

* :mod:`tests.harness.history` — a thread-safe history recorder plus a
  Direct Serialization Graph (DSG) checker.  Committed transactions are
  recorded with their snapshot and commit timestamps and their read/write
  sets; the checker derives wr- (write-read), ww- (write-write) and rw-
  (antidependency) edges from the MVCC timestamps and asserts the guarantee
  each isolation level promises — full acyclicity under ``SERIALIZABLE``,
  "no cycle with fewer than two rw-antidependency edges" under ``SNAPSHOT``.

* :mod:`tests.harness.stepper` — a schedule-controlled stepper that drives
  N transactions through named interleaving points.  Each transaction is a
  generator that yields at its interleaving points; the schedule is the
  exact global order in which those points execute, which makes anomalies
  like the Fekete read-only-transaction anomaly reproducible on demand
  instead of a flake.

Beside them, imported by module path rather than re-exported here:

* :mod:`tests.harness.graphs` — deterministic graph builders (social
  network, chain, grid, accounts), created through the public API.
* :mod:`tests.harness.anomaly` — in-transaction anomaly checkers and the
  lost-update and write-skew probes.
* :mod:`tests.harness.predicates` — the reference semantics of the SSI
  tracker's predicate reads.
"""

from harness.history import History, RecordedTransaction, Recorder
from harness.stepper import Stepper

__all__ = ["History", "RecordedTransaction", "Recorder", "Stepper"]
