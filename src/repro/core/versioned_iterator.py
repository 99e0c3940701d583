"""The enriched store iterator.

Section 4 of the paper: "Neo4j uses an iterator to traverse the persistent
state when needed to answer queries.  We have enriched this iterator to take
into account the versions kept in the cache in order to guarantee
read-your-own-writes behaviour."

:class:`SnapshotIterator` merges three sources when scanning all nodes or all
relationships:

1. the transaction's own uncommitted writes (highest priority — read your own
   writes),
2. the version chains cached in the object cache (committed history), and
3. the persistent store (entities with no cached chain — their single
   persisted version carries its commit timestamp).

Each candidate id is resolved exactly once and yielded only if the resolved
state is visible and not deleted in the reader's snapshot.  Resolution goes
through the transaction's read path, which after the copy-on-write chain
rework is lock-free on every cached chain: a scan racing concurrent
committers never blocks on (or is blocked by) a chain lock.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Set

from repro.core.version_store import VersionStore
from repro.core.visibility import resolve_payload
from repro.graph.entity import (
    EntityKey,
    EntityKind,
    NodeData,
    RelationshipData,
)
from repro.graph.store_manager import StoreManager

#: Resolver signature: given an entity key, return the state visible to the
#: transaction (or ``None``).  Provided by the SI transaction so that the
#: iterator shares its read path (own writes, chains, persistent fallback).
EntityResolver = Callable[[EntityKey], Optional[object]]


class SnapshotIterator:
    """Whole-store iteration under a snapshot, honouring the reader's own writes."""

    def __init__(
        self,
        store: StoreManager,
        version_store: VersionStore,
        *,
        resolver: EntityResolver,
        own_writes: Dict[EntityKey, Optional[object]],
    ) -> None:
        self._store = store
        self._versions = version_store
        self._resolver = resolver
        self._own_writes = own_writes

    # -- public ------------------------------------------------------------------

    def nodes(self) -> Iterator[NodeData]:
        """Every node visible to the snapshot, own writes included."""
        for key in self._candidate_keys(EntityKind.NODE):
            resolved = self._resolver(key)
            if isinstance(resolved, NodeData):
                yield resolved

    def relationships(self) -> Iterator[RelationshipData]:
        """Every relationship visible to the snapshot, own writes included."""
        for key in self._candidate_keys(EntityKind.RELATIONSHIP):
            resolved = self._resolver(key)
            if isinstance(resolved, RelationshipData):
                yield resolved

    # -- internal -------------------------------------------------------------------

    def _candidate_keys(self, kind: EntityKind) -> Iterator[EntityKey]:
        """Union of ids from own writes, cached chains and the persistent store."""
        seen: Set[int] = set()
        for key in list(self._own_writes):
            if key.kind is kind and key.entity_id not in seen:
                seen.add(key.entity_id)
                yield key
        for key in self._versions.keys():
            if key.kind is kind and key.entity_id not in seen:
                seen.add(key.entity_id)
                yield key
        if kind is EntityKind.NODE:
            persistent_ids = self._store.iter_node_ids()
        else:
            persistent_ids = self._store.iter_relationship_ids()
        for entity_id in persistent_ids:
            if entity_id not in seen:
                seen.add(entity_id)
                yield EntityKey(kind, entity_id)
