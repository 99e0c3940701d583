"""Sessions: one conversation's worth of transactions against a database.

A :class:`Session` is the unit the network service layer maps connections
onto, usable embedded too.  It differs from calling
:meth:`~repro.api.database.GraphDatabase.begin` directly in three ways:

* **at most one open transaction** — ``begin()`` while a transaction is
  open is a :class:`~repro.errors.SessionStateError`, matching the wire
  protocol's explicit BEGIN/COMMIT/ROLLBACK state machine;
* **session defaults** — ``read_only`` and ``deferrable`` are negotiated
  once (per connection, on the server) and applied to every transaction the
  session starts;
* **read-your-writes token** — the session records the commit timestamp of
  its last versioned commit (``last_commit_ts``), which a client can carry
  to a read replica as a "wait until your watermark covers this" token.

``execute()`` outside an explicit transaction auto-commits (one transaction
per statement, read-only when the statement has no write clauses), which is
what the server does for clients that never send BEGIN.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Callable, Mapping, Optional, TypeVar

from repro.api.transaction import Transaction
from repro.errors import SessionStateError
from repro.query import is_read_only_query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.database import GraphDatabase
    from repro.query.result import QueryResult

T = TypeVar("T")

__all__ = ["Session"]

_session_ids = itertools.count(1)


class Session:
    """A session-scoped transaction holder over one database."""

    def __init__(
        self,
        db: "GraphDatabase",
        *,
        read_only: bool = False,
        deferrable: Optional[bool] = None,
    ) -> None:
        """``read_only`` and ``deferrable`` are the defaults of every
        transaction the session starts, auto-commits included.
        ``deferrable=True`` makes read-only serializable transactions wait
        for a safe snapshot; ``None`` (the default) is ``False``.
        """
        self._db = db
        self._read_only = bool(read_only)
        self._deferrable = deferrable
        self._tx: Optional[Transaction] = None
        self._closed = False
        self._lock = threading.Lock()
        self.session_id = next(_session_ids)
        #: Commit timestamp of this session's newest versioned commit
        #: (``None`` until one happens; writeless commits keep the previous
        #: token).  See the module docstring for the read-your-writes use.
        self.last_commit_ts: Optional[int] = None

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def database(self) -> "GraphDatabase":
        """The database this session talks to."""
        return self._db

    @property
    def read_only(self) -> bool:
        """Whether this session's transactions default to read-only."""
        return self._read_only

    @property
    def is_closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    @property
    def transaction(self) -> Optional[Transaction]:
        """The session's open transaction, or ``None``."""
        tx = self._tx
        return tx if tx is not None and tx.is_open else None

    @property
    def in_transaction(self) -> bool:
        """Whether an explicit transaction is open."""
        return self.transaction is not None

    # ------------------------------------------------------------------
    # explicit transaction control (the wire protocol's BEGIN/COMMIT/ROLLBACK)
    # ------------------------------------------------------------------

    def begin(
        self,
        *,
        read_only: Optional[bool] = None,
        deferrable: Optional[bool] = None,
    ) -> Transaction:
        """Open the session's transaction (errors if one is already open)."""
        with self._lock:
            self._ensure_usable()
            if self.transaction is not None:
                raise SessionStateError(
                    "the session already has an open transaction; "
                    "commit or roll it back first"
                )
            tx = self._db.begin(
                read_only=self._read_only if read_only is None else read_only,
                deferrable=self._deferrable if deferrable is None else deferrable,
            )
            self._tx = tx
            return tx

    def commit(self) -> Optional[int]:
        """Commit the open transaction; returns the commit timestamp (if any)."""
        with self._lock:
            tx = self._require_transaction()
            self._tx = None
            tx.commit()
            return self._record_commit(tx)

    def rollback(self) -> None:
        """Roll the open transaction back."""
        with self._lock:
            tx = self._require_transaction()
            self._tx = None
            tx.rollback()

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def execute(
        self,
        query: str,
        parameters: Optional[Mapping[str, object]] = None,
        **params: object,
    ) -> "QueryResult":
        """Run a query in the open transaction, or auto-commit one.

        Inside an explicit transaction the result is live (lazy reads pull
        from the transaction's snapshot).  Outside one, the statement runs
        in its own transaction — read-only when it has no write clauses —
        and the result is drained before the transaction commits, exactly
        like :meth:`GraphDatabase.execute`.
        """
        with self._lock:
            self._ensure_usable()
            tx = self.transaction
            if tx is not None:
                return tx.execute(query, parameters, **params)
        # Auto-commit path outside the lock: the statement may be slow and
        # the session serialises its own callers anyway on the server side.
        if params:
            parameters = {**(parameters or {}), **params}
        read_only = self._read_only or is_read_only_query(
            self._db.engine, query, parameters
        )
        tx = self._db.begin(read_only=read_only, deferrable=self._deferrable)
        try:
            result = tx.execute(query, parameters)
            result.consume()
            tx.commit()
        except BaseException:
            tx.rollback()
            raise
        self._record_commit(tx)
        return result

    def run(self, fn: Callable[[Transaction], T], **retry_options) -> T:
        """Run ``fn`` via :meth:`GraphDatabase.run_transaction` with session defaults.

        Not allowed while an explicit transaction is open (the retry loop
        needs to own transaction boundaries).
        """
        with self._lock:
            self._ensure_usable()
            if self.transaction is not None:
                raise SessionStateError(
                    "run() cannot be used while an explicit transaction is open"
                )
        retry_options.setdefault("read_only", self._read_only)
        retry_options.setdefault("deferrable", self._deferrable)
        return self._db.run_transaction(fn, **retry_options)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Roll back any open transaction and retire the session (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            tx, self._tx = self._tx, None
        if tx is not None:
            tx.rollback()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internal
    # ------------------------------------------------------------------

    def _record_commit(self, tx: Transaction) -> Optional[int]:
        commit_ts = getattr(tx.engine_transaction, "commit_ts", None)
        if commit_ts is not None:
            self.last_commit_ts = commit_ts
        return commit_ts

    def _require_transaction(self) -> Transaction:
        self._ensure_usable()
        tx = self.transaction
        if tx is None:
            raise SessionStateError("the session has no open transaction")
        self._tx = tx
        return tx

    def _ensure_usable(self) -> None:
        if self._closed:
            raise SessionStateError("the session is closed")
