"""Versions and per-entity version chains.

Section 4 of the paper: "each object representing a node or relationship
stores a list of versions.  In that way, when a transaction reads a node, the
right version for the reading transaction can be obtained by traversing the
list of versions."

A :class:`Version` is one committed state of one entity: its full logical
payload (``NodeData`` / ``RelationshipData``), the commit timestamp of the
transaction that produced it, and — for deletes — a tombstone marker (payload
``None``).  A :class:`VersionChain` is the per-entity list, newest first,
living in the object cache.  Versions also carry the intrusive ``gc_prev`` /
``gc_next`` pointers used by the global garbage-collection list
(:class:`repro.core.gc.ThreadedVersionList`), which is the paper's "double
linked list sorted by timestamp".

Concurrency model (the paper's "SI readers never block" promise, taken
literally): the chain is **copy-on-write**.  Mutators — commit installs and
garbage collection — serialise on a per-chain write lock, build a fresh
immutable tuple and publish it with a single reference assignment.  Readers
(:meth:`VersionChain.visible_to`, :meth:`VersionChain.newest`, ...) load that
one reference and work on the immutable snapshot with **zero lock
acquisitions**; a reader racing a writer sees either the old tuple or the new
one, both of which are internally consistent.  Resolution binary-searches the
newest-first tuple by ``commit_ts`` after a head fast path (the common case:
the newest version is already visible).
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple, Union

from repro.graph.entity import EntityKey, NodeData, RelationshipData, format_key

#: Payload type of a version (``None`` marks a tombstone).
VersionPayload = Optional[Union[NodeData, RelationshipData]]

#: The empty published chain (shared; chains are usually born non-empty).
_EMPTY: Tuple["Version", ...] = ()


class Version:
    """One committed version of one entity."""

    __slots__ = (
        "key",
        "payload",
        "commit_ts",
        "reclaim_ts",
        "gc_prev",
        "gc_next",
        "in_gc_list",
    )

    def __init__(self, key: EntityKey, payload: VersionPayload, commit_ts: int) -> None:
        self.key = key
        self.payload = payload
        self.commit_ts = commit_ts
        #: Commit timestamp at which this version becomes reclaimable (set
        #: when the version is threaded onto the garbage-collection list).
        self.reclaim_ts: Optional[int] = None
        self.gc_prev: Optional["Version"] = None
        self.gc_next: Optional["Version"] = None
        self.in_gc_list = False

    @property
    def is_tombstone(self) -> bool:
        """Whether this version records a deletion."""
        return self.payload is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "tombstone" if self.is_tombstone else "data"
        return f"Version({format_key(self.key)}, commit_ts={self.commit_ts}, {kind})"


class VersionChain:
    """The list of versions of one entity, newest first.

    The chain always contains *committed* versions only; a transaction's
    uncommitted writes live in its private write set (the paper: versions of
    uncommitted data items are kept private).

    Reads never take a lock: the versions live in an immutable tuple
    published through ``_published``, swapped atomically by writers holding
    :attr:`write_lock` (see the module docstring).
    """

    __slots__ = ("key", "_write_lock", "_published")

    def __init__(self, key: EntityKey) -> None:
        self.key = key
        self._write_lock = threading.RLock()
        self._published: Tuple[Version, ...] = _EMPTY

    @property
    def write_lock(self) -> threading.RLock:
        """The mutators' lock (exposed so tests can prove reads bypass it)."""
        return self._write_lock

    # -- lock-free reads ---------------------------------------------------------

    def snapshot(self) -> Tuple[Version, ...]:
        """The current immutable version tuple, newest first (no lock, no copy)."""
        return self._published

    def __len__(self) -> int:
        return len(self._published)

    def is_empty(self) -> bool:
        """Whether every version of this entity has been garbage collected."""
        return not self._published

    def versions(self) -> List[Version]:
        """Copy of the chain, newest first (used by GC and tests)."""
        return list(self._published)

    def newest(self) -> Optional[Version]:
        """The most recently committed version (tombstone included), if any."""
        published = self._published
        return published[0] if published else None

    def oldest(self) -> Optional[Version]:
        """The oldest version still kept in memory, if any."""
        published = self._published
        return published[-1] if published else None

    def visible_to(self, start_ts: int) -> Optional[Version]:
        """The newest version with ``commit_ts <= start_ts`` (the read rule).

        Returns ``None`` when the entity did not exist yet at ``start_ts``
        (every version is newer).  The caller is responsible for interpreting
        a returned tombstone as "deleted".  Lock-free: one atomic load of the
        published tuple, a head fast path, then a binary search over the
        descending ``commit_ts`` order.
        """
        published = self._published
        if not published:
            return None
        if published[0].commit_ts <= start_ts:
            return published[0]
        # Binary search for the first (leftmost) index whose commit_ts is at
        # or below start_ts; the tuple is sorted newest-first (descending).
        low, high = 1, len(published)
        while low < high:
            mid = (low + high) // 2
            if published[mid].commit_ts <= start_ts:
                high = mid
            else:
                low = mid + 1
        return published[low] if low < len(published) else None

    def version_count(self) -> int:
        """Number of versions currently retained."""
        return len(self._published)

    def memory_footprint(self) -> int:
        """Rough number of retained payload objects (tombstones count as one)."""
        return len(self._published)

    # -- copy-on-write mutations ---------------------------------------------------

    def add_committed(self, version: Version) -> Optional[Version]:
        """Install a newly committed version at the head of the chain.

        Returns the version it supersedes (the previous newest), which the
        commit path threads onto the garbage-collection list.  Commit
        timestamps are monotonic, so the chain stays sorted by construction;
        an out-of-order insert indicates a logic error and is rejected.
        """
        with self._write_lock:
            published = self._published
            if published and version.commit_ts < published[0].commit_ts:
                raise ValueError(
                    f"version for {self.key} committed at {version.commit_ts} is older "
                    f"than the chain head ({published[0].commit_ts})"
                )
            superseded = published[0] if published else None
            self._published = (version,) + published
            return superseded

    def remove(self, version: Version) -> bool:
        """Remove one version (garbage collection path) by swapping the tuple.

        The old tuple is never mutated, so a reader that already loaded it
        keeps resolving against a consistent — if momentarily stale — chain;
        staleness is safe because GC only removes versions no active snapshot
        can select.
        """
        with self._write_lock:
            published = self._published
            for index, candidate in enumerate(published):
                if candidate is version:
                    self._published = published[:index] + published[index + 1:]
                    return True
            return False
