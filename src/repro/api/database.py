"""The database facade: the session/transaction layer.

:class:`GraphDatabase` used to build the whole stack inline; the engine
layer (store + engine + observability wiring) now lives in
:class:`~repro.api.runtime.EngineRuntime`, and this class is the session
layer on top of it: it admits transactions through a
:class:`~repro.api.lifecycle.TransactionGate`, retries conflict aborts,
hands out :class:`~repro.api.session.Session` objects (the unit the network
server maps connections onto), tracks metrics exporters, and owns the
graceful close/drain ordering.  The isolation level is chosen at open time:

>>> from repro import GraphDatabase, IsolationLevel
>>> db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
>>> with db.transaction() as tx:
...     alice = tx.create_node(labels=["Person"], properties={"name": "Alice"})

Opening one database per isolation level over identical transaction bodies
is how the tests and benchmarks compare the engines' anomalies and
throughput.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from typing import (
    TYPE_CHECKING,
    Callable,
    ContextManager,
    Dict,
    List,
    Mapping,
    Optional,
    TypeVar,
)

from repro.api.lifecycle import TransactionGate
from repro.api.runtime import EngineRuntime
from repro.api.transaction import Transaction
from repro.core.gc import GcStats
from repro.core.si_manager import SnapshotIsolationEngine
from repro.core.vacuum import VacuumCollector
from repro.engine import IsolationLevel
from repro.errors import ReproError, TransactionAbortedError
from repro.query import is_read_only_query
from repro.retry import jittered_backoff

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.session import Session
    from repro.obs import MetricsExporter

T = TypeVar("T")

#: How long ``close()`` waits for in-flight transactions before fencing them.
DEFAULT_DRAIN_TIMEOUT = 5.0


class GraphDatabase:
    """A graph database instance: one engine runtime plus the session layer."""

    def __init__(self, path: Optional[str] = None, **options) -> None:
        """Open (or create) a database.

        ``path`` is a directory for the store files; ``None`` keeps the whole
        database in memory.  Every keyword option is forwarded to
        :class:`~repro.api.runtime.EngineRuntime`, which documents the full
        knob catalog (isolation and conflict policy, commit pipeline, read
        path, executor, serializable-only, observability and fault-injection
        options); the signatures are one-to-one with previous releases.
        """
        self._runtime = EngineRuntime(path, **options)
        self._gate = TransactionGate()
        self._exporters: List["MetricsExporter"] = []
        self._exporters_lock = threading.Lock()
        self._closed = False
        self._close_lock = threading.Lock()
        # Exposition-side bridge: every numeric leaf of ``statistics()``
        # becomes a ``repro_stat_*`` entry in snapshots and the Prometheus
        # text, so the registry reproduces the whole legacy counter surface
        # by construction (asserted equal in tests).
        from repro.obs import flatten_statistics

        self.observability.registry.register_collector(
            lambda: flatten_statistics(self.statistics())
        )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def in_memory(cls, **options) -> "GraphDatabase":
        """Open a database that never touches disk (tests, benchmarks, examples)."""
        return cls(path=None, **options)

    @classmethod
    def open(cls, path: str, **options) -> "GraphDatabase":
        """Open (or create) an on-disk database at ``path``."""
        return cls(path=path, **options)

    # ------------------------------------------------------------------
    # layer accessors (engine layer lives on the runtime)
    # ------------------------------------------------------------------

    @property
    def runtime(self) -> EngineRuntime:
        """The engine layer: store, engine, observability, failpoints."""
        return self._runtime

    @property
    def store(self):
        """The storage substrate (engine layer)."""
        return self._runtime.store

    @property
    def engine(self):
        """The concurrency-control engine (engine layer)."""
        return self._runtime.engine

    @property
    def observability(self):
        """The observability bundle (engine layer)."""
        return self._runtime.observability

    @property
    def failpoints(self):
        """The failpoint registry, or ``None`` when fault injection is off."""
        return self._runtime.failpoints

    @property
    def isolation_level(self) -> IsolationLevel:
        """The isolation level this database was opened with."""
        return self._runtime.isolation

    @property
    def is_snapshot_isolation(self) -> bool:
        """Whether this database runs the paper's MVCC engine (SI or SSI)."""
        return self._runtime.is_snapshot_isolation

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def begin(
        self, *, read_only: bool = False, deferrable: Optional[bool] = None
    ) -> Transaction:
        """Start a transaction (the caller commits or rolls back explicitly).

        ``deferrable`` (read-only serializable transactions only): ``True``
        blocks until a safe snapshot is available and then runs fully
        untracked; ``False`` or ``None`` starts immediately under retroactive
        safe-snapshot validation.

        The transaction is registered with the database's drain gate: once
        ``close()`` has begun, new ``begin()`` calls raise
        :class:`~repro.errors.DatabaseClosedError` while in-flight
        transactions get a grace period to finish.
        """
        gate = self._gate
        gate.ensure_open()
        engine = self._runtime.engine
        transaction = Transaction(
            engine,
            engine.begin(read_only=read_only, deferrable=deferrable),
            on_close=gate.deregister,
        )
        try:
            gate.register(transaction)
        except BaseException:
            transaction.rollback()
            raise
        return transaction

    def transaction(
        self, *, read_only: bool = False, deferrable: Optional[bool] = None
    ) -> Transaction:
        """Alias of :meth:`begin`, reads naturally in ``with`` statements."""
        return self.begin(read_only=read_only, deferrable=deferrable)

    def session(self, **defaults) -> "Session":
        """A session: the unit of conversation the network server speaks.

        A session owns at most one open transaction at a time and carries
        per-session defaults (``read_only``, ``deferrable``); see
        :class:`~repro.api.session.Session`.
        """
        from repro.api.session import Session

        return Session(self, **defaults)

    def run_transaction(
        self,
        fn: Callable[[Transaction], T],
        *,
        retries: int = 5,
        read_only: bool = False,
        deferrable: Optional[bool] = None,
        base_backoff_seconds: float = 0.002,
        max_backoff_seconds: float = 0.25,
        rng: Optional[random.Random] = None,
        on_retry: Optional[Callable[[int, TransactionAbortedError], None]] = None,
    ) -> T:
        """Run ``fn(tx)`` in a transaction, retrying conflict aborts.

        Every isolation level in this system aborts transactions it cannot
        serialise — write-write conflicts under snapshot isolation,
        rw-antidependency (dangerous structure) aborts under serializable,
        deadlock victims under read committed — and the application contract
        for all of them is "retry".  This helper owns that contract: it
        re-runs ``fn`` in a fresh transaction on every *retryable*
        :class:`~repro.errors.TransactionAbortedError`, sleeping a jittered
        exponential backoff between attempts, up to ``retries`` retries
        (``retries + 1`` attempts in total) before re-raising the last abort.
        Aborts that cannot succeed on retry in this process —
        :class:`~repro.errors.DegradedModeError` and its subclasses, whose
        ``retryable`` flag is ``False`` because degraded mode is one-way —
        are re-raised immediately instead of burning the backoff budget.

        ``fn`` receives the open transaction and may return any value, which
        becomes the return value of this call; the transaction commits after
        ``fn`` returns (unless ``fn`` already closed it).  Because ``fn`` can
        run more than once it must not carry side effects outside the
        transaction.  ``on_retry(attempt, error)`` is invoked before each
        backoff sleep (callers count retries through it).
        """
        if retries < 0:
            raise ValueError("retries must be >= 0")
        attempt = 0
        while True:
            tx = self.begin(read_only=read_only, deferrable=deferrable)
            try:
                result = fn(tx)
                if tx.is_open:
                    tx.commit()
                return result
            except TransactionAbortedError as exc:
                tx.rollback()
                if not getattr(exc, "retryable", True) or attempt >= retries:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                time.sleep(
                    jittered_backoff(
                        attempt,
                        base_seconds=base_backoff_seconds,
                        max_seconds=max_backoff_seconds,
                        rng=rng,
                    )
                )
                attempt += 1
            except BaseException:
                tx.rollback()
                raise

    # ------------------------------------------------------------------
    # declarative queries (Cypher subset)
    # ------------------------------------------------------------------

    def execute(
        self,
        query: str,
        parameters: Optional[Mapping[str, object]] = None,
        **params: object,
    ):
        """Run one query in its own transaction and return the drained result.

        Commits on success, rolls back on error.  The result is fully
        materialised (the transaction is closed by the time it returns); use
        ``tx.execute(...)`` to stream a large result from a live snapshot.

        A statement with no write clauses runs in a *read-only* transaction,
        which under serializable isolation is the free path: no SIREAD or
        predicate registration, no chance of a serialization abort, and no
        retained tracking record.
        """
        if params:
            parameters = {**(parameters or {}), **params}
        tx = self.begin(read_only=is_read_only_query(self.engine, query, parameters))
        try:
            result = tx.execute(query, parameters)
            result.consume()
            tx.commit()
        except BaseException:
            tx.rollback()
            raise
        return result

    # ------------------------------------------------------------------
    # convenience reads
    # ------------------------------------------------------------------

    def node_count(self) -> int:
        """Number of nodes visible to a fresh read-only transaction."""
        with self.begin(read_only=True) as tx:
            return tx.node_count()

    def relationship_count(self) -> int:
        """Number of relationships visible to a fresh read-only transaction."""
        with self.begin(read_only=True) as tx:
            return tx.relationship_count()

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def run_gc(self) -> Optional[GcStats]:
        """Run one pass of version garbage collection (SI engines only)."""
        if isinstance(self.engine, SnapshotIsolationEngine):
            return self.engine.run_gc()
        return None

    def create_vacuum_collector(self) -> VacuumCollector:
        """A PostgreSQL-style vacuum bound to this database (SI engines only)."""
        if not isinstance(self.engine, SnapshotIsolationEngine):
            raise ReproError("vacuum collection only applies to snapshot isolation")
        return self.engine.create_vacuum_collector()

    def pause_commits(self) -> ContextManager[None]:
        """Block every committer while the returned context manager is held.

        Under snapshot isolation this acquires all commit stripes (what the
        stop-the-world vacuum uses); the read-committed engine has no sharded
        pipeline, so pausing is a no-op there.
        """
        self._ensure_open()
        if isinstance(self.engine, SnapshotIsolationEngine):
            return self.engine.pause_commits()
        return contextlib.nullcontext()

    def checkpoint(self) -> None:
        """Flush dirty pages and truncate the write-ahead log."""
        self._ensure_open()
        self._runtime.checkpoint()

    def health(self) -> Dict[str, object]:
        """The engine health view: ``{"status": "ok"|"draining"|"degraded", ...}``.

        A degraded engine rejects write transactions with
        :class:`~repro.errors.DatabaseReadOnlyError` (a non-retryable abort
        in this process; the recovery story is reopening the database, which
        replays the WAL) while snapshot reads keep working.  A draining
        engine is healthy but shutting down — ``/healthz`` answers 503 so
        load balancers route new sessions elsewhere while in-flight
        transactions finish.  The same view backs the exporter's
        ``/healthz`` endpoint and the ``repro_engine_degraded`` gauge.
        """
        return self.store.health.as_dict()

    def statistics(self) -> Dict[str, object]:
        """Aggregated statistics from the engine, stores and caches."""
        stats = self._runtime.statistics()
        stats["lifecycle"] = dict(self._gate.stats(), closed=int(self._closed))
        return stats

    # ------------------------------------------------------------------
    # observability exposition
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, object]:
        """The metrics registry as one JSON-able dictionary.

        ``instruments`` holds every registered counter/gauge/histogram with
        its samples; ``collected`` holds the flattened ``statistics()``
        surface (``repro_stat_*``), so every legacy counter appears here too.
        """
        return self.observability.metrics_snapshot()

    def prometheus_metrics(self) -> str:
        """The metrics registry in Prometheus text exposition format."""
        return self.observability.prometheus_text()

    def serve_metrics(self, host: str = "127.0.0.1", port: int = 0):
        """Start an HTTP scrape endpoint (``/metrics``) for this database.

        Returns the running :class:`~repro.obs.exporter.MetricsExporter`
        (``exporter.url`` is the scrape URL; ``port=0`` picks a free port).
        The server runs on a daemon thread; call ``exporter.stop()`` or use
        it as a context manager.  Every exporter started here is tracked and
        stopped by :meth:`close`, so no scrape endpoint outlives the engine
        it reports on.
        """
        self._ensure_open()
        exporter = self.observability.serve(host, port)
        with self._exporters_lock:
            self._exporters.append(exporter)
        return exporter

    def slow_queries(self, limit: Optional[int] = None):
        """Entries of the slow-query log, oldest first."""
        return self.observability.slow_queries.entries(limit)

    def recent_traces(self, limit: Optional[int] = None):
        """Recent finished transaction traces, oldest first."""
        return self.observability.recent_traces(limit)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def is_closed(self) -> bool:
        """Whether :meth:`close` has completed."""
        return self._closed

    def close(self, *, drain_timeout: float = DEFAULT_DRAIN_TIMEOUT) -> None:
        """Drain transactions, stop exporters, close engine and store files.

        Shutdown order (idempotent):

        1. the health view flips to ``draining`` (``/healthz`` → 503),
        2. new transactions are fenced with
           :class:`~repro.errors.DatabaseClosedError` while in-flight ones
           get up to ``drain_timeout`` seconds to finish — a commit that
           completes in the window is fully durable; stragglers are rolled
           back so their owners see a clean ``TransactionClosedError``,
        3. every metrics exporter started by :meth:`serve_metrics` is
           stopped (a scrape endpoint must not keep answering for a closed
           engine), and
        4. the engine and the store files are closed.

        The network server reuses steps 1–2 through the same gate for its
        graceful drain, then calls ``close()`` which finds nothing left.
        """
        with self._close_lock:
            if self._closed:
                return
            self.store.health.mark_draining("database close")
            self._gate.close_and_drain(drain_timeout)
            with self._exporters_lock:
                exporters, self._exporters = self._exporters, []
            for exporter in exporters:
                exporter.stop()
            self._runtime.close()
            self._closed = True

    def __enter__(self) -> "GraphDatabase":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internal
    # ------------------------------------------------------------------

    def _ensure_open(self) -> None:
        self._gate.ensure_open()
