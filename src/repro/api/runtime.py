"""The engine layer, separated from the session layer.

:class:`EngineRuntime` owns everything below the user-facing API: the
storage substrate (:class:`~repro.graph.store_manager.StoreManager`), one
concurrency-control engine, the observability bundle and the failpoint
registry.  It knows nothing about sessions, transactions handed to users,
drain order or exporters — that is :class:`~repro.api.database.GraphDatabase`'s
job (and, one level up, the network server's).

The split exists so the two layers can evolve independently: the network
service layer hosts one runtime behind many sessions, while the embedded
``GraphDatabase`` facade is now a thin session manager over the same class.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union

from repro.core.conflict import ConflictPolicy
from repro.core.si_manager import DEFAULT_COMMIT_STRIPES, SnapshotIsolationEngine
from repro.engine import GraphEngine, IsolationLevel
from repro.fault import FailpointRegistry
from repro.graph.store_manager import StoreManager
from repro.health import EngineHealth
from repro.locking.lock_manager import LockManager
from repro.locking.rc_manager import ReadCommittedEngine
from repro.obs import Observability
from repro.query.cache import DEFAULT_QUERY_BATCH_SIZE, DEFAULT_QUERY_CACHE_SIZE

__all__ = ["EngineRuntime", "coerce_isolation", "coerce_policy"]


def coerce_isolation(isolation: Union[IsolationLevel, str]) -> IsolationLevel:
    """Accept an :class:`IsolationLevel` or its string value."""
    if isinstance(isolation, IsolationLevel):
        return isolation
    try:
        return IsolationLevel(isolation)
    except ValueError as exc:
        valid = ", ".join(level.value for level in IsolationLevel)
        raise ValueError(
            f"unknown isolation level {isolation!r}; expected one of: {valid}"
        ) from exc


def coerce_policy(policy: Union[ConflictPolicy, str]) -> ConflictPolicy:
    """Accept a :class:`ConflictPolicy` or its string value."""
    if isinstance(policy, ConflictPolicy):
        return policy
    try:
        return ConflictPolicy(policy)
    except ValueError as exc:
        valid = ", ".join(choice.value for choice in ConflictPolicy)
        raise ValueError(
            f"unknown conflict policy {policy!r}; expected one of: {valid}"
        ) from exc


class EngineRuntime:
    """Storage substrate + one transaction engine + observability, as a unit.

    Construction wires the same graph the former ``GraphDatabase.__init__``
    built: failpoints into the store, the observability bundle into store
    and WAL, the degraded-mode gauge onto the health switch, and the engine
    onto all of it.  ``close()`` tears down engine then store; admission
    control and drain ordering live a layer up.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        isolation: Union[IsolationLevel, str] = IsolationLevel.SNAPSHOT,
        conflict_policy: Union[ConflictPolicy, str] = ConflictPolicy.FIRST_UPDATER_WINS,
        page_cache_pages: int = 4096,
        wal_sync: bool = False,
        version_cache_capacity: int = 200_000,
        gc_every_n_commits: int = 0,
        commit_stripes: int = DEFAULT_COMMIT_STRIPES,
        group_commit: bool = False,
        query_cache_size: int = DEFAULT_QUERY_CACHE_SIZE,
        query_batch_size: int = DEFAULT_QUERY_BATCH_SIZE,
        tracing: bool = False,
        trace_sample_rate: float = 1.0,
        slow_query_seconds: Optional[float] = None,
        slow_query_capacity: int = 128,
        redact_parameters: bool = False,
        failpoints: Union[FailpointRegistry, Mapping[str, str], str, None] = None,
    ) -> None:
        self.isolation = coerce_isolation(isolation)
        self.failpoints = FailpointRegistry.from_config(failpoints)
        self.observability = Observability(
            tracing=tracing,
            trace_sample_rate=trace_sample_rate,
            slow_query_seconds=slow_query_seconds,
            slow_query_capacity=slow_query_capacity,
            redact_parameters=redact_parameters,
        )
        self.store = StoreManager(
            path,
            page_cache_pages=page_cache_pages,
            wal_sync=wal_sync,
            # Never recycle entity ids under MVCC: old versions of a deleted
            # entity may still be readable by open snapshots.
            reuse_entity_ids=(self.isolation is IsolationLevel.READ_COMMITTED),
            group_commit=group_commit,
            failpoints=self.failpoints,
        )
        self.store.obs = self.observability
        self.store.wal.obs = self.observability
        if self.failpoints is not None and self.failpoints.on_fire is None:
            faults_injected = self.observability.faults_injected
            self.failpoints.on_fire = lambda fault: faults_injected.labels(
                site=fault.site
            ).inc()
        # The degraded gauge is computed at scrape time from the health
        # switch (the store also pushes 1 eagerly when it degrades, which
        # set_function supersedes — both views agree by construction).
        health = self.store.health
        self.observability.engine_degraded.set_function(
            lambda: 1 if health.is_degraded else 0
        )
        self.observability.health_source = health.as_dict
        locks = LockManager()
        if self.isolation is not IsolationLevel.READ_COMMITTED:
            # SNAPSHOT and SERIALIZABLE share the MVCC engine; the isolation
            # level selects the concurrency-control policy (plain write rule
            # vs. SSI rw-antidependency tracking).
            self.engine: GraphEngine = SnapshotIsolationEngine(
                self.store,
                lock_manager=locks,
                conflict_policy=coerce_policy(conflict_policy),
                isolation=self.isolation,
                version_cache_capacity=version_cache_capacity,
                gc_every_n_commits=gc_every_n_commits,
                commit_stripes=commit_stripes,
                query_cache_size=query_cache_size,
                query_batch_size=query_batch_size,
                obs=self.observability,
            )
        else:
            self.engine = ReadCommittedEngine(
                self.store,
                lock_manager=locks,
                query_cache_size=query_cache_size,
                query_batch_size=query_batch_size,
                obs=self.observability,
            )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    @property
    def health(self) -> EngineHealth:
        """The health switch shared by store, engine and exporter."""
        return self.store.health

    @property
    def is_snapshot_isolation(self) -> bool:
        """Whether this runtime runs the paper's MVCC engine (SI or SSI)."""
        return self.isolation is not IsolationLevel.READ_COMMITTED

    def statistics(self) -> Dict[str, object]:
        """Engine-layer statistics (the session layer adds its own on top)."""
        stats: Dict[str, object] = {
            "isolation": self.isolation.value,
            "health": self.store.health.as_dict(),
            "store": self.store.stats.as_dict(),
            "page_cache": self.store.page_cache.stats.as_dict(),
            "wal": self.store.wal_stats(),
            "query_cache": dict(
                self.engine.query_caches.stats(),
                stats_epoch=self.engine.stats_epoch.as_dict(),
            ),
            "observability": self.observability.stats(),
        }
        if self.failpoints is not None:
            stats["failpoints"] = self.failpoints.stats()
        stats["engine"] = self.engine.statistics()
        if isinstance(self.engine, SnapshotIsolationEngine):
            stats["object_cache"] = self.engine.versions.cache.stats.as_dict()
            # Safe-snapshot counters are load-bearing for benchmarks (retry
            # attribution), so they get a top-level alias too.
            stats["safe_snapshots"] = stats["engine"]["safe_snapshots"]
        else:
            stats["locks"] = self.engine.locks.stats.as_dict()
        return stats

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush dirty pages and truncate the write-ahead log."""
        self.store.checkpoint()

    def close(self) -> None:
        """Close engine then store (the caller drains transactions first)."""
        self.engine.close()
        self.store.close()
