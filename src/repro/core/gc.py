"""Version garbage collection.

Section 4 of the paper: "In order to make the version garbage collection
efficient, they are threaded with a double linked list sorted by timestamp to
enable to perform the garbage collection just traversing those versions that
must be garbage collected.  In this way, the cost of garbage collection is
reduced to the minimum."

Implementation.  A version becomes *reclaimable* at a specific commit
timestamp:

* a version superseded by a newer one is reclaimable once the *superseding*
  commit timestamp falls at or below the watermark (no active snapshot can
  still select the old version), and
* a tombstone is reclaimable once its own commit timestamp falls at or below
  the watermark (no active snapshot can still see the entity at all).

Versions are threaded onto the :class:`ThreadedVersionList` at the moment
that reclaim timestamp becomes known (i.e. when the superseding commit
happens).  Commit timestamps are monotonic but, under the sharded commit
pipeline, installs can *finish* out of timestamp order, so the list inserts
each version in sorted position (a near-tail walk, O(1) amortised) rather
than relying on append order.  A collection pass therefore pops from the
head only while ``reclaim_ts <= watermark`` and never looks at a version
that must be retained — the property the paper claims for its threaded
list, and the property benchmark E5 compares against a full-scan vacuum
(its baseline lives beside the tests, in ``tests/harness/vacuum.py``).

The versioned indexes keep the same promise for their membership intervals:
each shard threads an interval onto a queue ordered by ``removed_ts`` when it
closes, and ``indexes.purge(watermark)`` at the end of a pass pops that queue
the way ``pop_reclaimable`` pops this list, and so does the adjacency
index for its ``[created_ts, removed_ts)`` entries.  A pass therefore costs the
versions and intervals it reclaims — :attr:`GcStats.versions_examined` and
:attr:`GcStats.index_intervals_examined` count exactly those — however many
the store and the indexes hold.  Purging a deleted entity needs no index
sweep either: its intervals closed at the tombstone's timestamp, so the pass
that reclaims the tombstone finds them at the head of the queues.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.timestamps import TimestampOracle
from repro.core.version import Version
from repro.core.version_store import VersionStore
from repro.core.versioned_index import VersionedIndexSet


@dataclass
class GcStats:
    """Outcome of one garbage-collection pass."""

    watermark: int = 0
    versions_examined: int = 0
    versions_collected: int = 0
    entities_purged: int = 0
    #: Closed index intervals popped from the purge queues, and how many of
    #: them were dropped (the rest were already gone).
    index_intervals_examined: int = 0
    index_intervals_purged: int = 0
    cc_entries_reclaimed: int = 0
    duration_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view of the counters."""
        return {
            "watermark": self.watermark,
            "versions_examined": self.versions_examined,
            "versions_collected": self.versions_collected,
            "entities_purged": self.entities_purged,
            "index_intervals_examined": self.index_intervals_examined,
            "index_intervals_purged": self.index_intervals_purged,
            "cc_entries_reclaimed": self.cc_entries_reclaimed,
            "duration_seconds": self.duration_seconds,
        }


class ThreadedVersionList:
    """The paper's doubly-linked version list, sorted by reclaim timestamp."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._head: Optional[Version] = None
        self._tail: Optional[Version] = None
        self._size = 0

    def __len__(self) -> int:
        with self._lock:
            return self._size

    def append(self, version: Version, reclaim_ts: int) -> None:
        """Thread a version into the list, keeping it sorted by reclaim timestamp.

        Commits finish installing out of timestamp order under the sharded
        pipeline, so appends are *nearly* sorted rather than sorted by
        construction: the insertion point is found by walking back from the
        tail, which stays O(1) amortised because the disorder is bounded by
        the number of concurrently installing commits.  Keeping the list
        sorted preserves the pop-from-head-only collection property —
        otherwise one newer version at the head would stall reclamation of
        everything queued behind it.
        """
        with self._lock:
            if version.in_gc_list:
                return
            version.reclaim_ts = reclaim_ts
            predecessor = self._tail
            while predecessor is not None and (predecessor.reclaim_ts or 0) > reclaim_ts:
                predecessor = predecessor.gc_prev
            if predecessor is None:
                version.gc_prev = None
                version.gc_next = self._head
                if self._head is not None:
                    self._head.gc_prev = version
                self._head = version
                if self._tail is None:
                    self._tail = version
            else:
                version.gc_prev = predecessor
                version.gc_next = predecessor.gc_next
                if predecessor.gc_next is not None:
                    predecessor.gc_next.gc_prev = version
                else:
                    self._tail = version
                predecessor.gc_next = version
            version.in_gc_list = True
            self._size += 1

    def remove(self, version: Version) -> None:
        """Unlink a version from the list (no-op if it is not threaded)."""
        with self._lock:
            if not version.in_gc_list:
                return
            if version.gc_prev is not None:
                version.gc_prev.gc_next = version.gc_next
            else:
                self._head = version.gc_next
            if version.gc_next is not None:
                version.gc_next.gc_prev = version.gc_prev
            else:
                self._tail = version.gc_prev
            version.gc_prev = None
            version.gc_next = None
            version.in_gc_list = False
            self._size -= 1

    def pop_reclaimable(self, watermark: int) -> List[Version]:
        """Unlink and return every head version with ``reclaim_ts <= watermark``.

        Because the list is sorted by reclaim timestamp the walk stops at the
        first version that must be retained; versions that cannot be collected
        are never visited.
        """
        popped: List[Version] = []
        with self._lock:
            current = self._head
            while current is not None and (current.reclaim_ts or 0) <= watermark:
                next_version = current.gc_next
                self.remove(current)
                popped.append(current)
                current = next_version
        return popped

    def peek_oldest(self) -> Optional[Version]:
        """The head of the list (oldest reclaim timestamp), if any."""
        with self._lock:
            return self._head


class GarbageCollector:
    """Collects obsolete versions using the threaded list (the paper's design)."""

    def __init__(
        self,
        version_store: VersionStore,
        oracle: TimestampOracle,
        indexes: VersionedIndexSet,
        gc_list: Optional[ThreadedVersionList] = None,
        *,
        policy=None,
    ) -> None:
        """``policy`` (the engine's
        :class:`~repro.core.cc_policy.SnapshotWriteRulePolicy`) gets its
        :meth:`reclaim` hook driven with the same watermark as the version
        reclamation, so SSI read sets and commit-log footprints are dropped
        exactly when the snapshots that could still form edges with them are
        gone."""
        self.version_store = version_store
        self.oracle = oracle
        self.indexes = indexes
        self.policy = policy
        self.gc_list = gc_list if gc_list is not None else ThreadedVersionList()
        self._lock = threading.Lock()
        self.total_stats = GcStats()
        self.collections_run = 0

    # -- commit-side hooks -----------------------------------------------------

    def version_superseded(self, old_version: Version, superseding_commit_ts: int) -> None:
        """Thread a superseded version onto the GC list (called at commit)."""
        self.gc_list.append(old_version, superseding_commit_ts)

    def tombstone_installed(self, tombstone: Version) -> None:
        """Thread a tombstone onto the GC list (called at delete commit)."""
        self.gc_list.append(tombstone, tombstone.commit_ts)

    # -- collection ---------------------------------------------------------------

    def pending_versions(self) -> int:
        """Number of versions currently waiting on the GC list."""
        return len(self.gc_list)

    def collect(self) -> GcStats:
        """Run one garbage-collection pass and return its statistics."""
        with self._lock:
            started = time.perf_counter()
            stats = GcStats(watermark=self.oracle.watermark())
            reclaimable = self.gc_list.pop_reclaimable(stats.watermark)
            stats.versions_examined = len(reclaimable)
            for version in reclaimable:
                stats.versions_collected += self._reclaim(version, stats)
            (
                stats.index_intervals_examined,
                stats.index_intervals_purged,
            ) = self.indexes.purge(stats.watermark)
            if self.policy is not None:
                stats.cc_entries_reclaimed = self.policy.reclaim(
                    stats.watermark,
                    quiescent=self.oracle.active_count() == 0,
                    oldest_active_txn_id=self.oracle.oldest_active_txn_id(),
                )
            stats.duration_seconds = time.perf_counter() - started
            self._accumulate(stats)
            return stats

    # -- internal -------------------------------------------------------------------

    def _reclaim(self, version: Version, stats: GcStats) -> int:
        """Remove one reclaimable version from its chain; purge emptied entities.

        ``chain.remove`` swaps in a fresh immutable tuple rather than mutating
        the published one, so a concurrent reader that already resolved
        against the pre-reclaim chain keeps a consistent view; GC only ever
        removes versions no active snapshot can select (watermark rule), so
        that stale view can never surface a reclaimed version to a reader
        that should not see it.
        """
        chain = self.version_store.get_chain(version.key)
        if chain is None:
            return 0
        newest = chain.newest()
        removed = chain.remove(version)
        if not removed:
            return 0
        if not version.is_tombstone:
            # The entity's last state goes because it was deleted: its index
            # intervals and adjacency entries closed at the tombstone's
            # timestamp, and this pass's index purge pops them.
            if newest is not None and newest.is_tombstone and version.payload is not None:
                stats.entities_purged += 1
        else:
            # The tombstone is the last thing to go; forget the chain.
            if chain.is_empty():
                self.version_store.remove_chain(version.key)
        return 1

    def _accumulate(self, stats: GcStats) -> None:
        self.collections_run += 1
        self.total_stats.versions_examined += stats.versions_examined
        self.total_stats.versions_collected += stats.versions_collected
        self.total_stats.entities_purged += stats.entities_purged
        self.total_stats.index_intervals_examined += stats.index_intervals_examined
        self.total_stats.index_intervals_purged += stats.index_intervals_purged
        self.total_stats.cc_entries_reclaimed += stats.cc_entries_reclaimed
        self.total_stats.duration_seconds += stats.duration_seconds
        self.total_stats.watermark = stats.watermark
