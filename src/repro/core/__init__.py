"""Snapshot isolation for the graph store — the paper's contribution.

The modules in this package implement the multi-version concurrency control
described in Sections 3 and 4 of *"Snapshot Isolation for Neo4j"*:

* :mod:`repro.core.timestamps` — start / commit timestamp oracle and the
  active-transaction watermark used by garbage collection,
* :mod:`repro.core.snapshot` — the snapshot descriptor handed to each
  transaction,
* :mod:`repro.core.version` — versions and per-entity version chains stored
  in the object cache,
* :mod:`repro.core.visibility` — the read rule (latest commit timestamp not
  newer than the reader's start timestamp),
* :mod:`repro.core.conflict` — the write rule's two strategies
  (first-updater-wins, with first-committer-wins available for the
  ablation experiment),
* :mod:`repro.core.cc_policy` — the concurrency-control policies: the SI
  write rule, and Serializable Snapshot Isolation with SIREAD/predicate-read
  tracking as its subclass,
* :mod:`repro.core.versioned_index` — multi-versioned label / property /
  type indexes and the adjacency map (the read-committed engine reads them
  too, at its newest commit),
* :mod:`repro.core.gc` — the timestamp-sorted, doubly-linked garbage
  collection list and the collector that walks only reclaimable versions
  (experiment E5 compares it with a PostgreSQL-style full-scan vacuum that
  lives beside the tests, in ``tests/harness/vacuum.py``),
* :mod:`repro.core.si_transaction` / :mod:`repro.core.si_manager` — the
  transaction object and the engine tying everything together.  The
  paper's enriched store iterator is the shared read path of
  :class:`repro.engine.EngineTransaction`: every read shape overlays the
  transaction's own writes on one snapshot read of committed state, and a
  scan enumerates the cached chains before the store's ids.
"""

from repro.core.cc_policy import SerializableSnapshotPolicy, SnapshotWriteRulePolicy
from repro.core.conflict import ConflictPolicy
from repro.core.gc import GarbageCollector, GcStats, ThreadedVersionList
from repro.core.si_manager import SnapshotIsolationEngine
from repro.core.si_transaction import SnapshotTransaction
from repro.core.snapshot import Snapshot
from repro.core.timestamps import TimestampOracle
from repro.core.version import Version, VersionChain
from repro.core.version_store import VersionStore

__all__ = [
    "ConflictPolicy",
    "GarbageCollector",
    "GcStats",
    "SerializableSnapshotPolicy",
    "SnapshotWriteRulePolicy",
    "Snapshot",
    "SnapshotIsolationEngine",
    "SnapshotTransaction",
    "ThreadedVersionList",
    "TimestampOracle",
    "Version",
    "VersionChain",
    "VersionStore",
]
