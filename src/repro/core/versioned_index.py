"""Multi-versioned indexes.

Section 4 of the paper: "Multi-versioning has also been applied to indexes.
Properties and labels are never deleted in Neo4j even if no node/relationship
is using them.  We version them to know whether they should be considered or
not. ... The nodes/relationships are tagged with the commit timestamp of the
transaction that associated the label/property to the node/relationship.  In
this way, it is possible to discard those nodes/relationships that do not
correspond to the snapshot to be observed by the transaction."

Implementation: every index entry (label membership, property value, type
membership) is a set of *intervals* ``[created_ts, removed_ts)`` per entity.
A lookup at start timestamp ``s`` returns the entities with an interval
containing ``s``.  Each index key (the label or property itself) additionally
records its creation timestamp so a whole key created after the reader's
snapshot can be discarded without touching its entry list — exactly the
shortcut the paper describes.

Every operation costs what it touches, not what the index holds:

* **Lookup.**  Visibility is a test applied to the members of *one* entry.
  A conjunctive lookup (label + property, type + property) reads only the
  smaller entry and checks the other conjunct on the entity states it
  resolves anyway (:meth:`SnapshotTransaction.node_seek_candidates
  <repro.core.si_transaction.SnapshotTransaction.node_seek_candidates>`), so
  a large label set is materialised for label *scans* only.
* **Garbage collection.**  The paper threads versions onto a list sorted by
  timestamp so collection traverses "just those versions that must be garbage
  collected"; index intervals get the same treatment.  Closing an interval
  threads ``(removed_ts, index_key, entity_id)`` onto its shard's queue,
  ordered by ``removed_ts``, and :meth:`_VersionedKeyedIndex.purge` pops only
  the head entries at or below the watermark — an interval that must be
  retained, and every open one, is never visited.  A deleted entity needs no
  separate sweep: the delete closes all of its intervals at the tombstone's
  timestamp, so the pass that reclaims the tombstone pops them too.

The adjacency index (:class:`AdjacencyIndex`) versions the relation the same
way: one ``[created_ts, removed_ts)`` entry per relationship endpoint, so an
expand that reads no relationship property answers from it alone.
"""

from __future__ import annotations

import bisect
import sys
import threading
from collections import deque
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.graph.entity import REL_TAG, Direction, EntityKey, NodeData, RelationshipData
from repro.graph.properties import PropertyValue, hashable_value, split_commit_ts

#: One membership interval: a bare ``created_ts`` while it is open,
#: ``(created_ts, removed_ts)`` once closed.
_Interval = Union[int, Tuple[int, int]]

#: ``removed_ts`` of an entry no delete has closed: past every timestamp.
_OPEN = sys.maxsize
#: Entry flags: the relationship leaves the node (it is the start node),
#: enters it (the end node), or both (a self-loop).
_OUT, _IN = 1, 2
_BOTH = _OUT | _IN
#: Ints per adjacency entry in a bucket's flat ``data`` tuple.
_STRIDE = 5
_DIRECTION_FLAGS = {
    Direction.OUTGOING: _OUT,
    Direction.INCOMING: _IN,
    Direction.BOTH: _BOTH,
}


def _thread_closed(closed: Deque[tuple], item: tuple) -> None:
    """Thread a closed interval onto a purge queue in ``removed_ts`` order.

    Commits finish installing out of timestamp order under the sharded
    pipeline, so the queue is nearly sorted rather than sorted by
    construction; walking back from the tail finds the slot in O(1)
    amortised (the disorder is bounded by the number of concurrently
    installing commits), as ``ThreadedVersionList.append`` does.
    """
    position = len(closed)
    while position and closed[position - 1][0] > item[0]:
        position -= 1
    closed.insert(position, item)


def _covers(held: Union[Tuple[int, int], List[_Interval]], start_ts: int) -> bool:
    """Whether a closed interval, or any of a list of intervals, contains ``start_ts``."""
    if type(held) is tuple:
        return held[0] <= start_ts < held[1]
    return any(
        interval <= start_ts if type(interval) is int else _covers(interval, start_ts)
        for interval in held
    )


class VersionedEntrySet:
    """Per-index-key membership with ``[created_ts, removed_ts)`` intervals."""

    __slots__ = ("_intervals", "_open_count", "_visible_cache", "_change_ts")

    def __init__(self) -> None:
        #: entity id -> what it holds.  Nearly every entity has exactly one
        #: interval, so that case is stored flat — the interval itself — and
        #: only an entity re-added after a removal gets a list of intervals
        #: (oldest first; only the last can be open).
        self._intervals: Dict[int, Union[_Interval, List[_Interval]]] = {}
        #: Number of entities whose newest interval is still open.  Maintained
        #: incrementally so current-cardinality reads are O(1) (no set copy) —
        #: the query planner's cost estimates and the conjunctive seek's
        #: choice of driving entry hit this on every MATCH.
        self._open_count = 0
        #: Memoised interval scan: ``(built_ts, members)`` — the result of
        #: ``visible(built_ts)``.  Valid for a snapshot ``S`` iff
        #: ``built_ts <= S`` and no interval changed since ``built_ts``
        #: (``_change_ts``, bumped by every add/remove before the owning
        #: commit publishes — so a snapshot that can see a change never
        #: validates an entry predating it).  Turns a label or type scan's
        #: O(members) interval tests into a set copy; an entry set with a
        #: single member is cheaper to scan than to memoise and keeps none.
        self._visible_cache: Optional[Tuple[int, frozenset]] = None
        self._change_ts = 0

    def __len__(self) -> int:
        """Number of entities holding at least one interval."""
        return len(self._intervals)

    def add(self, entity_id: int, commit_ts: int) -> None:
        """Record that the entity acquired this index key at ``commit_ts``.

        Adding an entity that is already a member (its latest interval is
        still open) is a no-op, so membership semantics hold even if a caller
        reports the same association twice.
        """
        held = self._intervals.get(entity_id)
        if held is None:
            self._intervals[entity_id] = commit_ts
        elif type(held) is tuple:
            self._intervals[entity_id] = [held, commit_ts]
        elif type(held) is list and type(held[-1]) is tuple:
            held.append(commit_ts)
        else:
            return
        if commit_ts > self._change_ts:
            self._change_ts = commit_ts
        self._open_count += 1

    def mark_removed(self, entity_id: int, commit_ts: int) -> bool:
        """Record that the entity lost this index key at ``commit_ts``.

        Returns whether an open interval was closed (the caller threads it
        onto the purge queue).
        """
        held = self._intervals.get(entity_id)
        if type(held) is int:
            self._intervals[entity_id] = (held, commit_ts)
        elif type(held) is list and type(held[-1]) is int:
            held[-1] = (held[-1], commit_ts)
        else:
            return False
        if commit_ts > self._change_ts:
            self._change_ts = commit_ts
        self._open_count -= 1
        return True

    def visible(self, start_ts: int) -> Set[int]:
        """Entities whose membership interval contains ``start_ts``."""
        cached = self._visible_cache
        if cached is not None:
            built_ts, cached_members = cached
            if built_ts <= start_ts and self._change_ts <= built_ts:
                return set(cached_members)
        members = {
            entity_id
            for entity_id, held in self._intervals.items()
            if (held <= start_ts if type(held) is int else _covers(held, start_ts))
        }
        if len(self._intervals) > 1 and self._change_ts <= start_ts:
            self._visible_cache = (start_ts, frozenset(members))
        return members

    @property
    def open_count(self) -> int:
        """Number of current members, without materialising the set (O(1))."""
        return self._open_count

    def reclaim(self, entity_id: int, removed_ts: int) -> bool:
        """Drop the entity's interval closed at ``removed_ts``; whether one was held."""
        held = self._intervals.get(entity_id)
        if type(held) is tuple:
            if held[1] != removed_ts:
                return False
            del self._intervals[entity_id]
            return True
        if type(held) is not list:
            return False
        for position, interval in enumerate(held):
            if type(interval) is tuple and interval[1] == removed_ts:
                del held[position]
                if len(held) == 1:
                    self._intervals[entity_id] = held[0]
                return True
        return False

    def interval_count(self) -> int:
        """Total number of stored intervals (memory metric for experiments)."""
        return sum(
            len(held) if type(held) is list else 1 for held in self._intervals.values()
        )


class _IndexShard:
    """One lock stripe of a keyed index: its own lock, entries, key table and
    purge queue."""

    __slots__ = ("lock", "entries", "key_created_ts", "closed")

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.entries: Dict[Hashable, VersionedEntrySet] = {}
        #: Commit timestamp at which each index key first appeared.
        self.key_created_ts: Dict[Hashable, int] = {}
        #: Closed intervals awaiting reclamation, ``(removed_ts, index_key,
        #: entity_id)`` ordered by ``removed_ts`` — the index-side counterpart
        #: of :class:`~repro.core.gc.ThreadedVersionList`.
        self.closed: Deque[Tuple[int, Hashable, int]] = deque()


class _VersionedKeyedIndex:
    """Shared machinery: a map from index key to a versioned entry set.

    The map is partitioned into lock stripes by index key, so committers
    tagging disjoint labels/properties/types never serialise on one index
    lock.  ``stripes=1`` restores the seed's single-lock behaviour.
    """

    def __init__(self, stripes: int = 16) -> None:
        if stripes < 1:
            raise ValueError("a versioned index needs at least one lock stripe")
        self._shards = [_IndexShard() for _ in range(stripes)]

    def _shard_of(self, index_key: Hashable) -> _IndexShard:
        return self._shards[hash(index_key) % len(self._shards)]

    def _add(self, index_key: Hashable, entity_id: int, commit_ts: int) -> None:
        shard = self._shard_of(index_key)
        with shard.lock:
            # Keep the *smallest* commit timestamp ever seen for the key:
            # under the sharded pipeline two committers can tag the same key
            # out of commit-timestamp order, and first-writer-wins would
            # permanently hide the older committer's entries from snapshots
            # between the two timestamps.
            created = shard.key_created_ts.get(index_key)
            if created is None or commit_ts < created:
                shard.key_created_ts[index_key] = commit_ts
            entry = shard.entries.get(index_key)
            if entry is None:
                entry = shard.entries[index_key] = VersionedEntrySet()
            entry.add(entity_id, commit_ts)

    def _remove(self, index_key: Hashable, entity_id: int, commit_ts: int) -> None:
        shard = self._shard_of(index_key)
        with shard.lock:
            entry = shard.entries.get(index_key)
            if entry is None or not entry.mark_removed(entity_id, commit_ts):
                return
            _thread_closed(shard.closed, (commit_ts, index_key, entity_id))

    def _visible(self, index_key: Hashable, start_ts: int) -> Set[int]:
        shard = self._shard_of(index_key)
        with shard.lock:
            created_ts = shard.key_created_ts.get(index_key)
            if created_ts is None or created_ts > start_ts:
                # The label/property itself appeared after the snapshot: the
                # whole entry list can be discarded without traversal.
                return set()
            entry = shard.entries.get(index_key)
            return entry.visible(start_ts) if entry is not None else set()

    def purge(self, watermark: int) -> Tuple[int, int]:
        """Drop intervals invisible to every snapshot at or above ``watermark``.

        Pops each shard's queue while its head closed at or below the
        watermark, so the pass visits exactly the reclaimable intervals.  An
        entry set emptied by the pass is dropped together with its key's
        creation timestamp.  Returns ``(examined, purged)``; the two differ
        only by queue entries whose interval is already gone.
        """
        examined = purged = 0
        for shard in self._shards:
            closed = shard.closed
            with shard.lock:
                while closed and closed[0][0] <= watermark:
                    removed_ts, index_key, entity_id = closed.popleft()
                    examined += 1
                    entry = shard.entries.get(index_key)
                    if entry is None or not entry.reclaim(entity_id, removed_ts):
                        continue
                    purged += 1
                    if not entry:
                        del shard.entries[index_key]
                        del shard.key_created_ts[index_key]
        return examined, purged

    def count_current(self, index_key: Hashable) -> int:
        """Current cardinality of one index key in O(1) (no set copy).

        This is the planner's cardinality-estimate fast path: it reads the
        entry's incrementally-maintained open-interval counter instead of
        materialising the membership set.  The count reflects the *latest*
        committed state rather than any particular snapshot, which is exactly
        what a cost estimate needs.
        """
        shard = self._shard_of(index_key)
        with shard.lock:
            entry = shard.entries.get(index_key)
            return entry.open_count if entry is not None else 0

    def current_cardinalities(self) -> Dict[Hashable, int]:
        """Current cardinality of every non-empty key (stats/EXPLAIN surface)."""
        result: Dict[Hashable, int] = {}
        for shard in self._shards:
            with shard.lock:
                for index_key, entry in shard.entries.items():
                    if entry.open_count:
                        result[index_key] = entry.open_count
        return result

    def key_creation_ts(self, index_key: Hashable) -> Optional[int]:
        """When ``index_key`` was first used (``None`` if never, or if every
        interval under it has since been purged)."""
        shard = self._shard_of(index_key)
        with shard.lock:
            return shard.key_created_ts.get(index_key)

    def interval_count(self) -> int:
        """Total intervals across all keys (memory metric)."""
        total = 0
        for shard in self._shards:
            with shard.lock:
                total += sum(
                    entry.interval_count() for entry in shard.entries.values()
                )
        return total


class VersionedLabelIndex(_VersionedKeyedIndex):
    """label -> versioned set of node ids."""

    def apply_node_change(
        self, old: Optional[NodeData], new: Optional[NodeData], commit_ts: int
    ) -> None:
        """Record label additions/removals implied by one committed node change."""
        node_id = (old or new).node_id  # type: ignore[union-attr]
        old_labels = old.labels if old is not None else frozenset()
        new_labels = new.labels if new is not None else frozenset()
        for label in new_labels - old_labels:
            self._add(label, node_id, commit_ts)
        for label in old_labels - new_labels:
            self._remove(label, node_id, commit_ts)

    def visible(self, label: str, start_ts: int) -> Set[int]:
        """Node ids carrying ``label`` in the snapshot at ``start_ts``."""
        return self._visible(label, start_ts)

    def count(self, label: str) -> int:
        """Number of nodes currently carrying ``label`` (O(1), no set copy)."""
        return self.count_current(label)


class VersionedPropertyIndex(_VersionedKeyedIndex):
    """(property key, value) -> versioned set of entity ids.

    Used twice: once for nodes and once for relationships.
    """

    def apply_change(
        self,
        entity_id: int,
        old_properties: Mapping[str, PropertyValue],
        new_properties: Mapping[str, PropertyValue],
        commit_ts: int,
    ) -> None:
        """Record property additions/changes/removals for one committed change."""
        for key, value in new_properties.items():
            if key not in old_properties or old_properties[key] != value:
                self._add((key, hashable_value(value)), entity_id, commit_ts)
        for key, value in old_properties.items():
            if key not in new_properties or new_properties[key] != value:
                self._remove((key, hashable_value(value)), entity_id, commit_ts)

    def visible(self, key: str, value: PropertyValue, start_ts: int) -> Set[int]:
        """Entity ids with ``key`` = ``value`` in the snapshot at ``start_ts``."""
        return self._visible((key, hashable_value(value)), start_ts)

    def count(self, key: str, value: PropertyValue) -> int:
        """Number of entities currently holding ``key`` = ``value`` (O(1))."""
        return self.count_current((key, hashable_value(value)))


class VersionedRelationshipTypeIndex(_VersionedKeyedIndex):
    """relationship type -> versioned set of relationship ids."""

    def apply_relationship_change(
        self,
        old: Optional[RelationshipData],
        new: Optional[RelationshipData],
        commit_ts: int,
    ) -> None:
        """Record type membership for a committed relationship create/delete."""
        if old is None and new is not None:
            self._add(new.rel_type, new.rel_id, commit_ts)
        elif old is not None and new is None:
            self._remove(old.rel_type, old.rel_id, commit_ts)

    def visible(self, rel_type: str, start_ts: int) -> Set[int]:
        """Relationship ids of ``rel_type`` in the snapshot at ``start_ts``."""
        return self._visible(rel_type, start_ts)

    def count(self, rel_type: str) -> int:
        """Number of relationships currently of ``rel_type`` (O(1))."""
        return self.count_current(rel_type)


#: One node's entries of one relationship type, in rel-id order: the tuple
#: ``(data, settled_ts, pairs)``.  ``data`` holds the entries flat,
#: :data:`_STRIDE` ints each — ``rel_id, other, flags, created_ts,
#: removed_ts`` — so storing an entry allocates nothing the cyclic garbage
#: collector keeps counting (a bulk load is all appends).  ``settled_ts`` is
#: the newest ``created_ts`` while no entry is closed and :data:`_OPEN`
#: otherwise: a snapshot at or past it sees every entry without a
#: visibility test.  ``pairs`` is every entry's ``(rel_id, other)``, built
#: by the first read that needs it (``None`` until then) and kept up by
#: later appends: what a settled undirected read returns.
_Bucket = Tuple[Tuple[int, ...], int, Optional[Tuple[Tuple[int, int], ...]]]


def _settled_ts(data: Tuple[int, ...]) -> int:
    """``settled_ts`` of a bucket holding ``data``."""
    if min(data[4::_STRIDE]) < _OPEN:
        return _OPEN
    return max(data[3::_STRIDE])


def _bucket_visible(bucket: _Bucket, start_ts: int, wanted: int) -> List[Tuple[int, int]]:
    """The ``(rel_id, other)`` pairs of ``bucket`` visible at ``start_ts``
    that leave the node ``wanted``."""
    data, settled_ts, pairs = bucket
    if settled_ts <= start_ts:
        if wanted == _BOTH:
            return list(pairs or zip(data[0::_STRIDE], data[1::_STRIDE]))
        return [
            (rel_id, other)
            for rel_id, other, flags in zip(
                data[0::_STRIDE], data[1::_STRIDE], data[2::_STRIDE]
            )
            if flags & wanted
        ]
    return [
        (rel_id, other)
        for rel_id, other, flags, created, removed in zip(
            data[0::_STRIDE], data[1::_STRIDE], data[2::_STRIDE],
            data[3::_STRIDE], data[4::_STRIDE],
        )
        if created <= start_ts < removed and flags & wanted
    ]


def _bucket_find(data: Tuple[int, ...], rel_id: int, removed_ts: int) -> int:
    """Offset in ``data`` of ``rel_id``'s entry closed at ``removed_ts`` (or
    open, with :data:`_OPEN`); -1 if there is none."""
    at = bisect.bisect_left(data[0::_STRIDE], rel_id) * _STRIDE
    while at < len(data) and data[at] == rel_id:
        if data[at + 4] == removed_ts:
            return at
        at += _STRIDE
    return -1


class AdjacencyIndex:
    """node id -> the relationships attached to it, versioned.

    Relationship topology never changes after a create — only properties
    are versioned — so one entry per ``(node, relationship)`` answers an
    expand at any snapshot without resolving a relationship version.  An
    entry holds the relationship's id, its far endpoint (the node itself
    for a self-loop), flags for which way it leaves the node (:data:`_OUT`,
    :data:`_IN`, both for a self-loop, which has one entry) and the interval
    ``[created_ts, removed_ts)`` of its lifetime, ``removed_ts`` being
    :data:`_OPEN` until a delete closes it — PostgreSQL's xmin/xmax.  A
    node's entries are grouped by relationship type into buckets
    (:data:`_Bucket`), each in rel-id order, so a typed expand touches only
    its types' entries.

    Buckets are immutable tuples: a change builds a new one under the
    node's stripe lock and swaps it into the node's ``type -> bucket`` map
    in one assignment (a change that adds or drops a type swaps in a new
    map instead), so a read takes no lock — save the first undirected read
    of a settled bucket, which stores the bucket's ``pairs`` under the
    stripe lock (:meth:`_pairs_of`).  A snapshot never sees an entry
    a commit it cannot see is adding, since that commit's timestamp lies
    past the snapshot.  Closing an entry threads ``(removed_ts, node_id,
    rel_type, rel_id)`` onto its stripe's queue, ordered by ``removed_ts``,
    and :meth:`purge` pops only the head entries at or below the watermark —
    the keyed indexes' purge, for the relation.
    """

    def __init__(self, stripes: int = 16) -> None:
        if stripes < 1:
            raise ValueError("the adjacency index needs at least one lock stripe")
        self._locks = [threading.Lock() for _ in range(stripes)]
        self._shards: List[Dict[int, Dict[str, _Bucket]]] = [{} for _ in range(stripes)]
        self._closed: List[Deque[Tuple[int, int, str, int]]] = [
            deque() for _ in range(stripes)
        ]

    def add(self, relationship: RelationshipData, commit_ts: int) -> None:
        """Open an entry under each endpoint for a relationship created at
        ``commit_ts``: the commit path's one adjacency cost per endpoint."""
        start, end = relationship.start_node, relationship.end_node
        if start == end:
            self._open(start, relationship, start, _BOTH, commit_ts)
        else:
            self._open(start, relationship, end, _OUT, commit_ts)
            self._open(end, relationship, start, _IN, commit_ts)

    def _open(self, node_id: int, relationship: RelationshipData, other: int,
              flags: int, commit_ts: int, stride: int = _STRIDE) -> None:
        rel_id, rel_type = relationship.rel_id, relationship.rel_type
        entry = (rel_id, other, flags, commit_ts, _OPEN)
        index = node_id % len(self._shards)
        shard = self._shards[index]
        with self._locks[index]:
            buckets = shard.get(node_id)
            bucket = None if buckets is None else buckets.get(rel_type)
            if bucket is None:
                # Adding a key to a map a reader may be iterating is not
                # safe; swapping a value (below) is.
                buckets = dict(buckets or ())
                buckets[rel_type] = (entry, commit_ts, None)
                shard[node_id] = buckets
                return
            data, settled_ts, pairs = bucket
            if data[-stride] <= rel_id:
                data += entry
                if pairs is not None:
                    pairs += ((rel_id, other),)
            else:
                at = bisect.bisect_right(data[0::stride], rel_id) * stride
                data = data[:at] + entry + data[at:]
                pairs = None
            # settled_ts stays _OPEN while an entry is closed.
            buckets[rel_type] = (
                data, commit_ts if commit_ts > settled_ts else settled_ts, pairs
            )

    def remove(self, relationship: RelationshipData, commit_ts: int) -> None:
        """Close the open entries of a relationship deleted at ``commit_ts``."""
        rel_id, rel_type = relationship.rel_id, relationship.rel_type
        for node_id in {relationship.start_node, relationship.end_node}:
            index = node_id % len(self._shards)
            shard = self._shards[index]
            with self._locks[index]:
                buckets = shard.get(node_id)
                bucket = buckets.get(rel_type) if buckets else None
                if bucket is None:
                    continue
                data = bucket[0]
                at = _bucket_find(data, rel_id, _OPEN)
                if at < 0:
                    continue
                data = data[:at + 4] + (commit_ts,) + data[at + _STRIDE:]
                buckets[rel_type] = (data, _OPEN, bucket[2])
                _thread_closed(self._closed[index], (commit_ts, node_id, rel_type, rel_id))

    def purge(self, watermark: int) -> Tuple[int, int]:
        """Drop the entries closed at or below ``watermark``; returns
        ``(examined, purged)`` as the keyed indexes' purge does."""
        examined = purged = 0
        for index, queue in enumerate(self._closed):
            shard = self._shards[index]
            with self._locks[index]:
                while queue and queue[0][0] <= watermark:
                    removed_ts, node_id, rel_type, rel_id = queue.popleft()
                    examined += 1
                    buckets = shard.get(node_id)
                    bucket = buckets.get(rel_type) if buckets else None
                    if bucket is None:
                        continue
                    data = bucket[0]
                    at = _bucket_find(data, rel_id, removed_ts)
                    if at < 0:
                        continue
                    purged += 1
                    if len(data) > _STRIDE:
                        data = data[:at] + data[at + _STRIDE:]
                        buckets[rel_type] = (data, _settled_ts(data), None)
                    elif len(buckets) > 1:
                        buckets = dict(buckets)
                        del buckets[rel_type]
                        shard[node_id] = buckets
                    else:
                        del shard[node_id]
        return examined, purged

    def visible_many(
        self,
        node_ids: Sequence[int],
        start_ts: int,
        direction: Direction,
        rel_types: Optional[FrozenSet[str]],
    ) -> List[List[Tuple[int, int]]]:
        """The ``(rel_id, other)`` pairs of each node visible at ``start_ts``,
        in rel-id order, leaving the node in ``direction`` with a type in
        ``rel_types`` (any type when ``None``).  See the class docstring for
        the one lock a read may take."""
        shards = self._shards
        stripes = len(shards)
        wanted = _DIRECTION_FLAGS[direction]
        only = next(iter(rel_types)) if rel_types is not None and len(rel_types) == 1 else None
        result: List[List[Tuple[int, int]]] = []
        append = result.append
        for node_id in node_ids:
            buckets = shards[node_id % stripes].get(node_id)
            if not buckets:
                append([])
            elif only is not None:
                bucket = buckets.get(only)
                if bucket is None:
                    append([])
                elif wanted == _BOTH and bucket[1] <= start_ts:
                    # Settled: every entry is visible.
                    pairs = bucket[2]
                    if pairs is None:
                        pairs = self._pairs_of(node_id, only, bucket)
                    append(list(pairs))
                else:
                    append(_bucket_visible(bucket, start_ts, wanted))
            else:
                parts = [
                    _bucket_visible(bucket, start_ts, wanted)
                    for rel_type, bucket in buckets.items()
                    if rel_types is None or rel_type in rel_types
                ]
                if len(parts) == 1:
                    append(parts[0])
                else:
                    append(sorted(pair for part in parts for pair in part))
        return result

    def _pairs_of(self, node_id: int, rel_type: str, bucket: _Bucket) -> Tuple[Tuple[int, int], ...]:
        """Build ``bucket``'s ``pairs`` and keep them in it, unless a writer
        has replaced the bucket meanwhile."""
        data = bucket[0]
        pairs = tuple(zip(data[0::_STRIDE], data[1::_STRIDE]))
        index = node_id % len(self._shards)
        with self._locks[index]:
            buckets = self._shards[index].get(node_id)
            if buckets is not None and buckets.get(rel_type) is bucket:
                buckets[rel_type] = (data, bucket[1], pairs)
        return pairs

    def candidate_rel_ids(self, node_id: int) -> List[int]:
        """Ids of every relationship with an entry under ``node_id``, open or
        not yet purged, in id order: what the read-committed engine reads
        under short locks and what commit validation checks."""
        buckets = self._shards[node_id % len(self._shards)].get(node_id, {})
        return sorted({
            rel_id for bucket in buckets.values() for rel_id in bucket[0][0::_STRIDE]
        })

    def node_count(self) -> int:
        """Number of nodes holding at least one entry."""
        return sum(len(shard) for shard in self._shards)

    def entry_count(self) -> int:
        """Total number of (node, relationship) entries, closed ones included."""
        return sum(
            len(bucket[0]) // _STRIDE
            for shard in self._shards
            for buckets in list(shard.values())
            for bucket in list(buckets.values())
        )


class VersionedIndexSet:
    """All multi-versioned indexes bundled together (what the engine owns).

    ``stripes`` controls the lock striping of every member index; the engine
    passes its commit-stripe count through so ``commit_stripes=1`` degenerates
    the whole pipeline to the seed's fully-serialised behaviour.

    ``stats_epoch`` is the engine's :class:`~repro.stats.CardinalityEpoch`:
    every committed entity change is recorded into it, so the query plan
    cache expires once the cardinalities these indexes feed the planner have
    drifted significantly.
    """

    def __init__(self, stripes: int = 16, *, stats_epoch=None) -> None:
        self.node_labels = VersionedLabelIndex(stripes)
        self.node_properties = VersionedPropertyIndex(stripes)
        self.relationship_properties = VersionedPropertyIndex(stripes)
        self.relationship_types = VersionedRelationshipTypeIndex(stripes)
        self.adjacency = AdjacencyIndex(stripes)
        self.stats_epoch = stats_epoch

    def apply_node_change(
        self, old: Optional[NodeData], new: Optional[NodeData], commit_ts: int
    ) -> None:
        """Index maintenance for one committed node create/update/delete."""
        if old is None and new is None:
            return
        node_id = (old or new).node_id  # type: ignore[union-attr]
        self.node_labels.apply_node_change(old, new, commit_ts)
        self.node_properties.apply_change(
            node_id,
            old.properties if old is not None else {},
            new.properties if new is not None else {},
            commit_ts,
        )
        if self.stats_epoch is not None:
            self.stats_epoch.record((old is None) - (new is None))

    def apply_relationship_change(
        self,
        old: Optional[RelationshipData],
        new: Optional[RelationshipData],
        commit_ts: int,
    ) -> None:
        """Index maintenance for one committed relationship create/update/delete."""
        if old is None and new is None:
            return
        rel_id = (old or new).rel_id  # type: ignore[union-attr]
        self.relationship_properties.apply_change(
            rel_id,
            old.properties if old is not None else {},
            new.properties if new is not None else {},
            commit_ts,
        )
        self.relationship_types.apply_relationship_change(old, new, commit_ts)
        if old is None and new is not None:
            self.adjacency.add(new, commit_ts)
        elif old is not None and new is None:
            self.adjacency.remove(old, commit_ts)
        if self.stats_epoch is not None:
            self.stats_epoch.record((old is None) - (new is None))

    def apply_change(
        self, key: EntityKey, old: Optional[object], new: Optional[object], commit_ts: int
    ) -> None:
        """Index maintenance for one committed change of either entity kind."""
        if key < REL_TAG:
            self.apply_node_change(old, new, commit_ts)  # type: ignore[arg-type]
        else:
            self.apply_relationship_change(old, new, commit_ts)  # type: ignore[arg-type]

    def bootstrap(self, store) -> int:
        """Index every persisted entity at the commit timestamp persisted with
        it (zero for state written outside the MVCC engine); returns the
        largest such timestamp, from which the owning engine's reads start."""
        newest = 0
        for node in store.iter_nodes():
            clean, commit_ts = split_commit_ts(node)
            newest = max(newest, commit_ts)
            self.apply_node_change(None, clean, commit_ts)
        for relationship in store.iter_relationships():
            clean, commit_ts = split_commit_ts(relationship)
            newest = max(newest, commit_ts)
            self.apply_relationship_change(None, clean, commit_ts)
        return newest

    def purge(self, watermark: int) -> Tuple[int, int]:
        """Purge every index, the adjacency index included; returns
        ``(examined, purged)`` interval counts.

        A deleted entity needs nothing more: its delete closed every
        interval and adjacency entry it held at the tombstone's timestamp,
        so the pass that reclaims the tombstone pops them all.
        """
        examined = purged = 0
        for index in (
            self.node_labels,
            self.node_properties,
            self.relationship_properties,
            self.relationship_types,
            self.adjacency,
        ):
            index_examined, index_purged = index.purge(watermark)
            examined += index_examined
            purged += index_purged
        return examined, purged

    def interval_count(self) -> int:
        """Total intervals across the keyed indexes (memory metric for E6;
        the adjacency index counts its entries in ``entry_count``)."""
        return (
            self.node_labels.interval_count()
            + self.node_properties.interval_count()
            + self.relationship_properties.interval_count()
            + self.relationship_types.interval_count()
        )
