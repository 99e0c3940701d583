"""Server-side sessions: connection state, negotiation, request dispatch.

Each accepted connection gets one :class:`ServerSession` wrapping an
API-level :class:`~repro.api.session.Session`.  The HELLO exchange
negotiates the session's parameters:

* **isolation** — the database runs one concurrency-control policy, chosen
  at open time, so negotiation is grant-based: a request for the database's
  level (or a *weaker* one) is served at the database's level — strictly
  stronger isolation is always a correct answer to a weaker request — and
  the granted level is reported back.  A request for a *stronger* level than
  the database provides is granted-down the same way unless the client sets
  ``require_isolation``, in which case HELLO fails with
  :class:`~repro.errors.IsolationNegotiationError`.
* **read_only** — a read-only session begins every transaction read-only
  (the free path under serializable isolation) and rejects write statements.
* **deferrable** — forwarded to the safe-snapshot machinery for read-only
  serializable transactions.

Request handling is synchronous by design: the engine is thread-based, and
each connection's own thread runs :meth:`ServerSession.handle`, one request
at a time (the protocol is strictly request/response, which is what makes
session-scoped transactions safe).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from repro.api.runtime import coerce_isolation
from repro.engine import IsolationLevel
from repro.errors import (
    AuthenticationError,
    ConnectionLimitError,
    IsolationNegotiationError,
    ProtocolError,
    ServerDrainingError,
)
from repro.server import protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.database import GraphDatabase
    from repro.api.session import Session

__all__ = ["ServerSession", "SessionManager", "negotiate_isolation"]

#: Strength order used by the negotiation grant rule.
_STRENGTH = {
    IsolationLevel.READ_COMMITTED: 0,
    IsolationLevel.SNAPSHOT: 1,
    IsolationLevel.SERIALIZABLE: 2,
}

#: HELLO ``auth`` hook: token and client-info dict in, verdict out.
AuthHook = Callable[[Optional[str], dict], bool]


def negotiate_isolation(
    db_level: IsolationLevel,
    requested: Union[IsolationLevel, str, None],
    *,
    require: bool = False,
) -> IsolationLevel:
    """Grant an isolation level for a session (see the module docstring)."""
    if requested is None:
        return db_level
    req = coerce_isolation(requested)
    if _STRENGTH[req] > _STRENGTH[db_level] and require:
        raise IsolationNegotiationError(
            f"session requires {req.value} but the database provides "
            f"{db_level.value}; reopen the database at the stronger level "
            "or drop require_isolation"
        )
    return db_level


class ServerSession:
    """One connection's session: negotiated parameters plus dispatch."""

    def __init__(
        self,
        manager: "SessionManager",
        session: "Session",
        *,
        requested_isolation: Optional[str],
        client: str,
    ) -> None:
        self._manager = manager
        self._session = session
        self.session_id = session.session_id
        self.requested_isolation = requested_isolation
        self.isolation = manager.db.isolation_level
        self.client = client
        self._closed = False

    # -- views ---------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """Whether the session holds an open explicit transaction."""
        return self._session.in_transaction

    def hello_response(self) -> dict:
        """The successful HELLO payload (negotiation outcome included)."""
        return {
            "ok": True,
            "server": "repro",
            "protocol": protocol.PROTOCOL_VERSION,
            "session_id": self.session_id,
            "isolation": self.isolation.value,
            "requested_isolation": self.requested_isolation,
            "read_only": self._session.read_only,
        }

    # -- dispatch ------------------------------------------------------------

    def handle(self, request: dict) -> dict:
        """Serve one request; never raises (errors become error responses)."""
        op = request.get("op")
        self._manager.record_request(op)
        try:
            handler = self._HANDLERS.get(op)
            if handler is None:
                raise ProtocolError(f"unknown op {op!r}")
            return handler(self, request)
        except BaseException as exc:  # noqa: BLE001 - must answer the client
            self._manager.record_error(exc)
            return protocol.error_response(exc)

    def _handle_execute(self, request: dict) -> dict:
        query = request.get("query")
        if not isinstance(query, str):
            raise ProtocolError("execute requires a string 'query'")
        parameters = request.get("params") or {}
        if not isinstance(parameters, dict):
            raise ProtocolError("'params' must be an object")
        parameters = {
            key: protocol.decode_value(value) for key, value in parameters.items()
        }
        in_transaction = self._session.in_transaction
        result = self._session.execute(query, parameters)
        rows = [
            [protocol.encode_value(value) for value in record.values()]
            for record in result.records()
        ]
        response: Dict[str, object] = {
            "ok": True,
            "columns": result.columns,
            "rows": rows,
            "stats": result.stats.as_dict(),
            "in_transaction": in_transaction,
        }
        if not in_transaction and result.stats.contains_updates:
            response["commit_ts"] = self._session.last_commit_ts
        if result.plan is not None:
            response["plan"] = result.render_plan()
        return response

    def _handle_begin(self, request: dict) -> dict:
        tx = self._session.begin(
            read_only=request.get("read_only"),
            deferrable=request.get("deferrable"),
        )
        return {"ok": True, "txn_id": tx.id}

    def _handle_commit(self, request: dict) -> dict:
        commit_ts = self._session.commit()
        return {"ok": True, "commit_ts": commit_ts}

    def _handle_rollback(self, request: dict) -> dict:
        self._session.rollback()
        return {"ok": True}

    def _handle_ping(self, request: dict) -> dict:
        return {"ok": True, "health": self._manager.db.health()}

    def _handle_stats(self, request: dict) -> dict:
        return {"ok": True, "server": self._manager.stats()}

    def _handle_goodbye(self, request: dict) -> dict:
        # The connection loop closes the session after sending the response.
        return {"ok": True}

    _HANDLERS = {
        "execute": _handle_execute,
        "begin": _handle_begin,
        "commit": _handle_commit,
        "rollback": _handle_rollback,
        "ping": _handle_ping,
        "stats": _handle_stats,
        "goodbye": _handle_goodbye,
    }

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Roll back any open transaction and deregister (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._session.close()
        finally:
            self._manager.forget(self)


class SessionManager:
    """Owns every live server session; enforces auth and admission limits."""

    def __init__(
        self,
        db: "GraphDatabase",
        *,
        auth: Union[AuthHook, str, None] = None,
        max_sessions: int = 64,
    ) -> None:
        """``auth`` may be a shared-secret string (compared against the
        HELLO token) or a callable ``(token, hello) -> bool``; ``None``
        disables authentication."""
        self.db = db
        self._auth = auth
        self._max_sessions = max_sessions
        self._lock = threading.Lock()
        self._sessions: Dict[int, ServerSession] = {}
        self._draining = False
        # Service-level instruments on the database's registry, as promised
        # by the observability docs: session gauge + request/error counters.
        registry = db.observability.registry
        registry.gauge(
            "repro_server_sessions",
            "Live server sessions (connections past HELLO)",
        ).set_function(self.active_count)
        self._requests = registry.counter(
            "repro_server_requests_total",
            "Requests served by the network layer, by op",
            labelnames=("op",),
        )
        self._errors = registry.counter(
            "repro_server_errors_total",
            "Error responses sent by the network layer, by error code",
            labelnames=("code",),
        )
        self._opened = registry.counter(
            "repro_server_sessions_opened_total",
            "Sessions opened since the server started",
        )
        self._rejected = registry.counter(
            "repro_server_rejections_total",
            "Connections rejected before a session opened, by cause",
            labelnames=("cause",),
        )

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def open_session(self, hello: dict) -> ServerSession:
        """Admit one HELLO: auth, limits, negotiation; returns the session."""
        if hello.get("op") != "hello":
            self._rejected.labels(cause="protocol").inc()
            raise ProtocolError("the first message must be 'hello'")
        client = str(hello.get("client", ""))
        self._authenticate(hello)
        requested = hello.get("isolation")
        negotiate_isolation(
            self.db.isolation_level,
            requested,
            require=bool(hello.get("require_isolation")),
        )
        session = self.db.session(
            read_only=bool(hello.get("read_only")),
            deferrable=hello.get("deferrable"),
        )
        server_session = ServerSession(
            self,
            session,
            requested_isolation=requested,
            client=client,
        )
        with self._lock:
            if self._draining:
                session.close()
                self._rejected.labels(cause="draining").inc()
                raise ServerDrainingError(
                    "the server is draining for shutdown; connect elsewhere"
                )
            if len(self._sessions) >= self._max_sessions:
                session.close()
                self._rejected.labels(cause="connection-limit").inc()
                raise ConnectionLimitError(
                    f"the server is at its limit of {self._max_sessions} sessions"
                )
            self._sessions[server_session.session_id] = server_session
        self._opened.inc()
        return server_session

    def _authenticate(self, hello: dict) -> None:
        if self._auth is None:
            return
        token = hello.get("auth_token")
        if isinstance(self._auth, str):
            granted = isinstance(token, str) and token == self._auth
        else:
            granted = bool(self._auth(token, hello))
        if not granted:
            self._rejected.labels(cause="auth").inc()
            raise AuthenticationError("the server rejected the session credentials")

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def forget(self, server_session: ServerSession) -> None:
        """Drop a closed session from the live set."""
        with self._lock:
            self._sessions.pop(server_session.session_id, None)

    def active_count(self) -> int:
        """Number of live sessions."""
        with self._lock:
            return len(self._sessions)

    def record_request(self, op: object) -> None:
        """Count one request (unknown ops land in the 'invalid' bucket)."""
        label = op if isinstance(op, str) and op.isidentifier() else "invalid"
        self._requests.labels(op=label).inc()

    def record_error(self, exc: BaseException) -> None:
        """Count one error response by wire code."""
        self._errors.labels(code=protocol.error_payload(exc)["code"]).inc()

    def stats(self) -> dict:
        """The 'stats' op payload (also useful for tests and the demo)."""
        with self._lock:
            sessions: List[dict] = [
                {
                    "session_id": s.session_id,
                    "client": s.client,
                    "isolation": s.isolation.value,
                    "in_transaction": s.in_transaction,
                }
                for s in self._sessions.values()
            ]
        return {
            "sessions": sessions,
            "session_count": len(sessions),
            "draining": self._draining,
            "isolation": self.db.isolation_level.value,
            "health": self.db.health(),
        }

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------

    def start_draining(self) -> None:
        """Refuse new sessions from now on (existing ones finish up)."""
        with self._lock:
            self._draining = True

    @property
    def is_draining(self) -> bool:
        """Whether :meth:`start_draining` has run."""
        return self._draining

    def close_all(self) -> None:
        """Close every live session (open transactions roll back)."""
        with self._lock:
            sessions = list(self._sessions.values())
        for server_session in sessions:
            server_session.close()
