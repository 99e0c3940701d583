"""Version store: the object cache's view of version chains.

The paper keeps versions "in the Object Cache of Neo4j"; accordingly this
module is a thin layer over :class:`repro.graph.object_cache.ObjectCache`
mapping entity keys to :class:`~repro.core.version.VersionChain` objects.

Eviction policy: a chain is only evictable when it holds exactly one
non-tombstone version, because that single version is guaranteed to be the
one the store holds (the store keeps only the newest committed version;
when that version is still queued for the record files, the store catches
up before it answers the reload) and can therefore be reloaded on demand.
Chains with history — the versions the persistent store does *not* have —
are pinned in memory until garbage collection shrinks them back to one
version.

Locking: the get-or-load path needs a lock only to keep two concurrent
loaders of the *same* key from installing two chains.  The lock is therefore
striped by entity key, so concurrent committers installing versions for
disjoint keys never contend here (the cache itself is internally
thread-safe).  ``stripes=1`` restores the seed's single global lock.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core.version import Version, VersionChain, VersionPayload
from repro.graph.entity import REL_TAG, EntityKey, key_id
from repro.graph.object_cache import ObjectCache

#: A loader returns the persisted state and its commit timestamp, or ``None``.
ChainLoader = Callable[[], Optional[Tuple[VersionPayload, int]]]


def _chain_evictable(_key: EntityKey, chain: VersionChain) -> bool:
    """Eviction predicate handed to the object cache (see module docstring)."""
    published = chain.snapshot()
    return len(published) == 1 and not published[0].is_tombstone


def stripe_of(key: EntityKey, stripes: int) -> int:
    """Deterministic stripe index of an entity key.

    Consecutive entity ids land on distinct stripes, so disjoint working sets
    spread across the stripe space instead of hashing together, and each
    entity kind can occupy *every* stripe (relationship ids are an
    independent sequence, rotated half a ring so node i and relationship i
    usually differ).
    """
    if key >= REL_TAG:
        return (key_id(key) + stripes // 2) % stripes
    return key % stripes


class VersionStore:
    """All in-memory version chains, keyed by entity."""

    def __init__(self, *, cache_capacity: int = 100_000, stripes: int = 16) -> None:
        if stripes < 1:
            raise ValueError("version store needs at least one lock stripe")
        self._cache = ObjectCache(cache_capacity, evictable=_chain_evictable)
        self._locks = [threading.RLock() for _ in range(stripes)]

    def _lock_for(self, key: EntityKey) -> threading.RLock:
        return self._locks[stripe_of(key, len(self._locks))]

    @property
    def cache(self) -> ObjectCache:
        """The underlying object cache (exposed for statistics)."""
        return self._cache

    # -- lookup ------------------------------------------------------------------

    def get_chain(self, key: EntityKey) -> Optional[VersionChain]:
        """The chain for ``key`` if it is currently cached, else ``None``."""
        return self._cache.get(key)

    def get_or_load(self, key: EntityKey, loader: ChainLoader) -> Optional[VersionChain]:
        """The chain for ``key``, loading the persisted version on a miss.

        ``loader`` reads the persistent store; when it returns ``None`` the
        entity does not exist anywhere and no chain is created.

        The hit path is lock-free: a cached chain is returned from a plain
        dict probe without touching the stripe lock or the cache's LRU lock
        (chains read often but written rarely may therefore age out under
        pressure — harmless, because only single-version chains whose state
        the persistent store also holds are evictable).  Only a miss takes
        the stripe lock, re-checks, and runs the loader.
        """
        chain = self._cache.peek(key)
        if chain is not None:
            return chain
        with self._lock_for(key):
            chain = self._cache.get(key)
            if chain is not None:
                return chain
            loaded = loader()
            if loaded is None:
                return None
            payload, commit_ts = loaded
            chain = VersionChain(key)
            chain.add_committed(Version(key, payload, commit_ts))
            self._cache.put(key, chain)
            return chain

    def get_many(
        self,
        keys: Sequence[EntityKey],
        loader_for: Callable[[EntityKey], ChainLoader],
    ) -> List[Optional[VersionChain]]:
        """The chains for ``keys``, in order (``None`` for absent entities).

        The batch companion of :meth:`get_or_load`: every cached chain is
        collected through the lock-free ``peek`` fast path first, and only
        the misses fall back to the locking get-or-load — so a batch that is
        fully resident never touches a stripe lock at all.  ``loader_for``
        maps a missed key to its persistent-store loader.
        """
        peek = self._cache.peek
        chains: List[Optional[VersionChain]] = []
        append = chains.append
        misses: List[int] = []
        for index, key in enumerate(keys):
            chain = peek(key)
            if chain is None:
                misses.append(index)
            append(chain)
        for index in misses:
            key = keys[index]
            chains[index] = self.get_or_load(key, loader_for(key))
        return chains

    def ensure_chain(self, key: EntityKey) -> VersionChain:
        """The chain for ``key``, creating an empty one if none is cached."""
        with self._lock_for(key):
            chain = self._cache.get(key)
            if chain is None:
                chain = VersionChain(key)
                self._cache.put(key, chain)
            return chain

    # -- commit path ------------------------------------------------------------

    def install_committed(
        self, key: EntityKey, version: Version, loader: ChainLoader
    ) -> Optional[Version]:
        """Install a committed version into the resident chain; returns the
        superseded version (the previous newest), if any.

        Runs entirely under the key's stripe lock — the same lock the
        miss-path loader takes — so the install always lands in the chain
        the cache actually holds.  The lock-free :meth:`get_or_load` hit
        path must NOT be used for installs: a peeked chain carries no LRU
        protection and can be concurrently evicted, and a version added to
        an evicted (orphaned) chain would be silently lost when a reader's
        loader rebuilds the chain from the not-yet-persisted store state.
        The closing ``put`` re-inserts the chain (it may have been evicted
        between a reader's probe and this commit) and refreshes its LRU
        position in one step.
        """
        with self._lock_for(key):
            chain = self._cache.get(key)
            if chain is None:
                chain = VersionChain(key)
                loaded = loader()
                if loaded is not None:
                    payload, commit_ts = loaded
                    chain.add_committed(Version(key, payload, commit_ts))
            superseded = chain.add_committed(version)
            self._cache.put(key, chain)
            return superseded

    # -- maintenance ----------------------------------------------------------------

    def remove_chain(self, key: EntityKey) -> None:
        """Forget the chain for ``key`` entirely (full purge of a deleted entity)."""
        self._cache.invalidate(key)

    def chains(self) -> Iterator[Tuple[EntityKey, VersionChain]]:
        """Snapshot of every cached ``(key, chain)`` pair."""
        return self._cache.items()

    def keys(self) -> List[EntityKey]:
        """Keys of every cached chain."""
        return list(self._cache.keys())

    def chain_count(self) -> int:
        """Number of cached chains."""
        return len(self._cache)

    def total_versions(self) -> int:
        """Total number of retained versions across all chains."""
        return sum(len(chain) for _key, chain in self._cache.items())

    def multi_version_chains(self) -> int:
        """Number of chains holding more than one version (history in memory)."""
        return sum(1 for _key, chain in self._cache.items() if len(chain) > 1)

    def clear(self) -> None:
        """Drop every chain (only used by tests)."""
        self._cache.clear()
