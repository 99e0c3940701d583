"""Vacuum-style garbage collection (the comparison baseline of experiment E5).

Section 4 of the paper motivates the threaded GC list by contrast with
PostgreSQL: "in PostgreSQL this process, called vacuum process, stops the
processing for a few seconds periodically.  This happens because it traverses
all the pages in the persistent storage and rewrites them after removing the
obsolete versions."

:class:`VacuumCollector` reproduces that cost model: a collection pass scans
*every* version chain in the cache **and** every record in the persistent
node and relationship stores (touching all pages through the page cache),
deciding for each version whether it is obsolete — instead of visiting only
the versions already known to be reclaimable.  It runs the scan
stop-the-world by holding every commit stripe of the engine, so E5 can
measure both the CPU cost and the induced commit stall.

The engine does not know this collector exists; it reaches into the
snapshot-isolation engine's version store, oracle, indexes, store, policy
and commit stripes.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass

from repro.core.si_manager import SnapshotIsolationEngine
from repro.core.version import Version, VersionChain


@dataclass
class VacuumStats:
    """Outcome of one vacuum pass."""

    watermark: int = 0
    chains_scanned: int = 0
    versions_examined: int = 0
    versions_collected: int = 0
    store_records_scanned: int = 0
    entities_purged: int = 0
    cc_entries_reclaimed: int = 0
    duration_seconds: float = 0.0


class VacuumCollector:
    """Full-scan, stop-the-world garbage collector (PostgreSQL-style baseline)."""

    def __init__(self, engine: SnapshotIsolationEngine) -> None:
        """Bind the collector to a snapshot-isolation engine.

        The engine's concurrency-control policy has its tracking state
        reclaimed with the same watermark, mirroring the threaded collector.
        """
        self.engine = engine
        self.version_store = engine.versions
        self.oracle = engine.oracle
        self.indexes = engine.indexes
        self.store = engine.store
        self.policy = engine.cc
        self._lock = threading.Lock()
        self.collections_run = 0

    def collect(self) -> VacuumStats:
        """Run one full-scan vacuum pass and return its statistics."""
        with self._lock:
            started = time.perf_counter()
            stats = VacuumStats(watermark=self.oracle.watermark())
            with self._commits_paused():
                self._scan_chains(stats)
                self._scan_store(stats)
                self.indexes.purge(stats.watermark)
                stats.cc_entries_reclaimed = self.policy.reclaim(
                    stats.watermark,
                    quiescent=self.oracle.active_count() == 0,
                    oldest_active_txn_id=self.oracle.oldest_active_txn_id(),
                )
            stats.duration_seconds = time.perf_counter() - started
            self.collections_run += 1
            return stats

    # -- internal -----------------------------------------------------------------

    @contextlib.contextmanager
    def _commits_paused(self):
        """Hold every commit stripe, in index order, like a committer would.

        Taking them in the committers' order means the pause queues behind
        in-flight commits instead of deadlocking with them, and then
        excludes every committer whatever stripes it needs.
        """
        with contextlib.ExitStack() as held:
            for stripe in self.engine._commit_stripes:
                held.enter_context(stripe)
            yield

    def _scan_chains(self, stats: VacuumStats) -> None:
        """Examine every version of every chain (the expensive part)."""
        for key, chain in self.version_store.chains():
            stats.chains_scanned += 1
            versions = chain.snapshot()
            stats.versions_examined += len(versions)
            # Examine oldest-first so that superseded versions are judged while
            # the newer version (or tombstone) that obsoletes them is still in
            # the chain.  Each removal publishes a fresh tuple (copy-on-write),
            # so obsolescence is re-judged against the chain's *current*
            # snapshot, not the one captured before this pass started.
            for version in reversed(versions):
                if self._is_obsolete(chain.snapshot(), version, stats.watermark):
                    if chain.remove(version):
                        stats.versions_collected += 1
                        self._maybe_purge(chain, version, stats)
            if chain.is_empty():
                self.version_store.remove_chain(key)

    def _scan_store(self, stats: VacuumStats) -> None:
        """Touch every persistent record, as a vacuum scan of all pages would."""
        for _node_id in self.store.iter_node_ids():
            stats.store_records_scanned += 1
        for _rel_id in self.store.iter_relationship_ids():
            stats.store_records_scanned += 1

    @staticmethod
    def _is_obsolete(versions, version: Version, watermark: int) -> bool:
        """Obsolescence test evaluated from scratch for every version.

        ``versions`` is the chain's current published tuple, newest first.
        """
        if version.is_tombstone:
            newest = versions[0] if versions else None
            return newest is version and version.commit_ts <= watermark
        newer = [v for v in versions if v.commit_ts > version.commit_ts]
        return any(v.commit_ts <= watermark for v in newer)

    def _maybe_purge(self, chain: VersionChain, version: Version, stats: VacuumStats) -> None:
        """Count a deleted entity whose last state goes (its index intervals
        and adjacency entries go with the pass's index purge)."""
        newest = chain.newest()
        if newest is not None and newest.is_tombstone and version.payload is not None:
            stats.entities_purged += 1
