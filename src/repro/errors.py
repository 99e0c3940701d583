"""Exception hierarchy shared by every subsystem of the reproduction.

The hierarchy mirrors the places where things can go wrong in the system the
paper describes:

* storage-level failures (corrupt records, failed recovery),
* transaction-level failures (conflicts, deadlocks, use-after-close),
* graph-model failures (missing entities, constraint violations), and
* query-language failures (syntax and execution errors in Cypher-lite).

Catching :class:`ReproError` catches everything raised by this package.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for errors raised by the record stores and page cache."""


class StoreClosedError(StorageError):
    """An operation was attempted on a store that has been closed."""


class StoreCorruptionError(StorageError):
    """A record or page could not be decoded (unexpected bytes on disk)."""


class RecordNotInUseError(StorageError):
    """A record id referenced a slot that is not marked in use."""


class RecoveryError(StorageError):
    """The write-ahead log could not be replayed on startup."""


class WalError(StorageError):
    """The write-ahead log could not be appended to or read."""


class IdSpaceExhaustedError(StorageError):
    """An id allocator reached its bound and cannot hand out another id."""


class InjectedFaultError(StorageError, OSError):
    """An IO error raised by an armed failpoint (see :mod:`repro.fault`).

    Subclasses :class:`OSError` on purpose: the durability hardening treats
    injected faults exactly like real IO errors — same retry loop, same
    degradation policy — so a test that arms a failpoint exercises precisely
    the code paths a failing disk would.
    """

    def __init__(self, message: str, *, site: str = "", hit: int = 0) -> None:
        super().__init__(message)
        self.site = site
        self.hit = hit


class SimulatedCrashError(InjectedFaultError):
    """A failpoint's ``crash`` action fired: the process "died" at this point.

    Unlike a plain injected error this is never retried and never repaired —
    the durability machinery re-raises it immediately, leaving the on-disk
    state exactly as a power cut at that instant would.  Tests catch it, copy
    the store directory as a crash image, and reopen the copy to exercise
    recovery.
    """


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

class TransactionError(ReproError):
    """Base class for transaction lifecycle and isolation errors."""


class TransactionClosedError(TransactionError):
    """The transaction has already committed or rolled back."""


class TransactionAbortedError(TransactionError):
    """The transaction was aborted by the engine and must be retried.

    ``retryable`` tells retry loops (``GraphDatabase.run_transaction``, the
    client library) whether re-running the transaction in the same process
    can ever succeed.  Conflict-class aborts are retryable; subclasses whose
    cause is permanent for the life of the process (degraded read-only mode)
    override it to ``False`` and are re-raised immediately instead of
    burning the backoff budget.
    """

    retryable = True


class WriteWriteConflictError(TransactionAbortedError):
    """Two concurrent transactions updated the same entity.

    Under snapshot isolation the paper's write rule ("no two concurrent
    transactions can update the same data item") is enforced with a
    first-updater-wins policy: the transaction that is not the first to
    update the entity receives this error and must roll back.
    """


class SerializationError(TransactionAbortedError):
    """A serializable transaction sat on a dangerous structure and was aborted.

    Raised only under :attr:`~repro.engine.IsolationLevel.SERIALIZABLE`: the
    SSI policy detected two consecutive rw-antidependency edges (Fekete's
    dangerous structure) that this transaction would complete.  The
    transaction must be retried — ``db.run_transaction`` does so
    automatically.
    """


class UnsafeSnapshotError(SerializationError):
    """A committing writer would have exposed the read-only-transaction anomaly.

    Raised only under :attr:`~repro.engine.IsolationLevel.SERIALIZABLE` with
    safe-snapshot gating enabled: the committer carries an rw-antidependency
    out to a transaction that committed *before* the snapshot of a concurrent
    read-only transaction whose snapshot is not yet safe — the exact
    precondition of the Fekete read-only-transaction anomaly.  The writer is
    aborted (and must retry) so the reader never has to be; the retried
    writer starts after the reader's snapshot and can no longer threaten it.
    """


class DeadlockError(TransactionAbortedError):
    """A lock-wait cycle was detected; this transaction was chosen as victim."""


class LockTimeoutError(TransactionAbortedError):
    """A lock could not be acquired within the configured timeout."""


class ReadOnlyTransactionError(TransactionError):
    """A write was attempted inside a transaction opened as read-only."""


class SessionStateError(TransactionError):
    """A session operation that does not fit the session's transaction state.

    Raised by :class:`~repro.api.session.Session` — ``begin()`` while the
    session already holds an open transaction, ``commit()``/``rollback()``
    with none, or any use of a closed session.  The network server maps this
    onto protocol errors for misbehaving clients.
    """


class DegradedModeError(TransactionAbortedError):
    """The engine entered degraded read-only mode while this write was in flight.

    Raised when an unrecoverable IO error (a failed fsync after retries, a
    torn append that could not be repaired, a broken checkpoint) flipped the
    engine into degraded mode during the transaction's commit.  Snapshot
    readers keep working; the write was **not** made durable.  Degradation
    is one-way for the life of the process (the recovery story is reopening
    the database, which replays the WAL), so retrying against the same
    process can never succeed — the error is marked ``retryable = False``
    and ``run_transaction`` re-raises it immediately instead of sleeping
    through its backoff budget.
    """

    retryable = False


class DatabaseReadOnlyError(DegradedModeError):
    """A write transaction was attempted while the engine is degraded.

    The fence raised at ``begin``/``commit`` once degraded mode is already
    established (as opposed to :class:`DegradedModeError`, which reports the
    commit that *hit* the IO failure).  Read-only transactions are unaffected.
    """


class DatabaseClosedError(ReproError):
    """An operation was attempted on a database that is closed (or draining).

    Raised by ``GraphDatabase`` once ``close()`` has begun: new transactions
    are fenced here while the drain step waits for in-flight transactions to
    finish, and every later API call gets the same clean error instead of an
    OS-level failure against released file descriptors.
    """


# ---------------------------------------------------------------------------
# Network service layer (see repro.server / repro.client)
# ---------------------------------------------------------------------------

class ServerError(ReproError):
    """Base class for errors raised by the network service layer."""


class ProtocolError(ServerError):
    """A wire frame or message could not be decoded (or broke the protocol)."""


class AuthenticationError(ServerError):
    """The server rejected the session's credentials at HELLO time."""


class ConnectionLimitError(ServerError):
    """The server is at its connection limit; retry against another node."""


class ServerDrainingError(ServerError):
    """The server is draining for shutdown and accepts no new work.

    In-flight requests complete and their commits are durable; anything
    arriving after the drain began — new connections and new requests alike —
    gets this error and should be retried against another node.
    """

    retryable = True


class IsolationNegotiationError(ServerError):
    """The session demanded an isolation level the server cannot provide.

    Raised only when the client sets ``require_isolation``: the server's
    database runs one concurrency-control policy, and a request for a
    *stronger* level than it provides cannot be granted (weaker requests are
    served at the database's level, which is strictly more isolated, and the
    granted level is reported back in the HELLO response).
    """


class SessionExpiredError(ServerError):
    """The server-side session is gone (evicted, timed out, or server restart)."""


def classify_abort(exc: BaseException) -> str:
    """Map an abort-raising exception to the abort-reason vocabulary.

    The labels match the engines' ``abort_reasons()`` breakdown so the
    observability layer's labelled abort counter and the statistics surface
    agree: ``safe-snapshot``, ``rw-antidependency``, ``ww-conflict``,
    ``deadlock``, ``degraded-mode`` (writes fenced or failed because the
    engine is in degraded read-only mode), ``io-error`` (a storage/OS-level
    IO failure aborted the commit, injected faults included), or ``error``
    for anything outside the taxonomy.  Order matters — the safe-snapshot
    and serialization classes subclass the broader abort classes they
    refine, and degraded-mode errors subclass the abort base class.
    """
    if isinstance(exc, DegradedModeError):
        return "degraded-mode"
    if isinstance(exc, UnsafeSnapshotError):
        return "safe-snapshot"
    if isinstance(exc, SerializationError):
        return "rw-antidependency"
    if isinstance(exc, WriteWriteConflictError):
        return "ww-conflict"
    if isinstance(exc, (DeadlockError, LockTimeoutError)):
        return "deadlock"
    if isinstance(exc, (StorageError, OSError)):
        return "io-error"
    return "error"


# ---------------------------------------------------------------------------
# Graph model
# ---------------------------------------------------------------------------

class GraphModelError(ReproError):
    """Base class for errors in the logical graph model."""


class EntityNotFoundError(GraphModelError):
    """A node or relationship id does not exist (or is not visible)."""

    def __init__(self, entity_kind: str, entity_id: int) -> None:
        super().__init__(f"{entity_kind} {entity_id} not found")
        self.entity_kind = entity_kind
        self.entity_id = entity_id


class NodeNotFoundError(EntityNotFoundError):
    """A node id does not exist in the visible snapshot."""

    def __init__(self, node_id: int) -> None:
        super().__init__("node", node_id)


class RelationshipNotFoundError(EntityNotFoundError):
    """A relationship id does not exist in the visible snapshot."""

    def __init__(self, rel_id: int) -> None:
        super().__init__("relationship", rel_id)


class ConstraintViolationError(GraphModelError):
    """An operation would violate a structural constraint.

    The main example is deleting a node that still has relationships without
    asking for a detach-delete, which matches Neo4j's behaviour.
    """


class InvalidPropertyValueError(GraphModelError):
    """A property value has a type the store cannot represent."""


class ReservedNameError(GraphModelError):
    """A label or property key collides with an internal reserved name."""


# ---------------------------------------------------------------------------
# Query language (Cypher-lite)
# ---------------------------------------------------------------------------

class QueryError(ReproError):
    """Base class for query-language errors (see :mod:`repro.query`)."""


class QuerySyntaxError(QueryError):
    """The query text could not be tokenised or parsed."""

    def __init__(self, message: str, position: int = -1) -> None:
        if position >= 0:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class QueryExecutionError(QueryError):
    """The query parsed but failed while executing."""
