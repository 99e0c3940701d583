"""Lock-based concurrency control.

This package contains the pieces of Neo4j's stock transaction machinery that
the paper starts from and then modifies:

* a lock manager with shared and exclusive locks, deadlock detection and
  timeouts (:mod:`repro.locking.lock_manager`),
* the read-committed engine that uses *short* read locks and *long* write
  locks (:mod:`repro.locking.rc_manager`,
  :mod:`repro.locking.rc_transaction`) — the baseline whose unrepeatable and
  phantom reads motivate the paper.  It shares the MVCC engine's substrate
  (store, versioned indexes, transaction skeleton) and keeps only the
  control layer: short shared guards, long exclusive locks, in-place apply.

The snapshot-isolation engine reuses the same lock manager, but only for its
long write locks (the paper removes the short read locks entirely and turns
the write locks into the first-updater-wins conflict check).
"""

from repro.locking.lock_manager import LockManager, LockMode
from repro.locking.deadlock import WaitForGraph
from repro.locking.rc_manager import ReadCommittedEngine
from repro.locking.rc_transaction import ReadCommittedTransaction

__all__ = [
    "LockManager",
    "LockMode",
    "ReadCommittedEngine",
    "ReadCommittedTransaction",
    "WaitForGraph",
]
