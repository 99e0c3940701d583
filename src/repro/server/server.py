"""The network front end: a thread-per-connection socket server over one database.

Architecture
------------

The engine is synchronous and thread-based, and so is the front end:

* one **acceptor thread** owns the listening socket and starts a thread for
  each accepted connection;
* each **connection thread** reads a frame, runs
  :meth:`~repro.server.session.ServerSession.handle` and writes the answer,
  all inline on blocking sockets.  The protocol is strictly
  request/response, so a session's transactions are only ever touched from
  its own connection thread and need no extra locking, and a request
  crosses no thread on its way through the server.

Connection threads are bounded: at most ``max_connections + 1`` are live
(the one beyond the session limit is there to answer an over-limit HELLO
with :class:`~repro.errors.ConnectionLimitError`); while every slot is
taken the acceptor stops accepting and new peers wait in the listen
backlog.  A peer that does not complete HELLO within
:data:`HANDSHAKE_TIMEOUT` seconds is disconnected, so silent sockets cannot
hold slots for long.

Graceful drain (``shutdown()``, or SIGTERM under ``serve_forever()``):

1. the session manager rejects new HELLOs with
   :class:`~repro.errors.ServerDrainingError` (retryable — clients can
   reconnect elsewhere), the health view flips to ``draining`` so
   ``/healthz`` answers 503, and the listener is closed;
2. the read side of every live connection is shut down: an idle connection
   wakes at once with EOF, while an in-flight request runs to completion
   and its response is written — an acked commit is always durable; each
   connection then gets one final ``ServerDrainingError`` frame and is
   closed (open explicit transactions roll back: they were never acked);
3. connections still busy when ``drain_timeout`` expires are cut off,
   leftover sessions are force-closed, and (by default) the database
   itself is drained and closed through the same transaction gate.
"""

from __future__ import annotations

import contextlib
import signal
import socket
import threading
import time
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.errors import ProtocolError, ReproError, ServerDrainingError
from repro.server import protocol
from repro.server.session import AuthHook, ServerSession, SessionManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.database import GraphDatabase

__all__ = ["GraphServer", "HANDSHAKE_TIMEOUT"]

#: Seconds a new connection gets to deliver its HELLO before it is closed.
HANDSHAKE_TIMEOUT = 10.0

#: Pause after a failed ``accept`` (out of file descriptors, say) before
#: the acceptor tries again.
_ACCEPT_RETRY_DELAY = 0.1


class GraphServer:
    """A multi-client socket server over one :class:`GraphDatabase`."""

    def __init__(
        self,
        db: "GraphDatabase",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        auth: Union[AuthHook, str, None] = None,
        max_connections: int = 64,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
        drain_timeout: float = 5.0,
    ) -> None:
        """``port=0`` binds an ephemeral port (read it from :attr:`address`
        after :meth:`start`).  ``auth`` is a shared-secret string or a
        ``(token, hello) -> bool`` callable; see :class:`SessionManager`."""
        self._db = db
        self._host = host
        self._port = port
        self._max_connections = max_connections
        self._max_frame_bytes = max_frame_bytes
        self._drain_timeout = drain_timeout
        self.sessions = SessionManager(db, auth=auth, max_sessions=max_connections)
        self._listener: Optional[socket.socket] = None
        self._address: Optional[Tuple[str, int]] = None
        self._acceptor: Optional[threading.Thread] = None
        # Guards the live-connection map and the drain flag; the acceptor
        # waits on it for a free slot.
        self._lock = threading.Condition()
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._draining = False
        self._stop_serving = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "GraphServer":
        """Bind and start serving on a background thread; returns ``self``.

        Raises the bind error (port in use, bad host) in the calling thread.
        """
        if self._acceptor is not None:
            raise ReproError("the server has already been started")
        family, _, _, _, address = socket.getaddrinfo(
            self._host, self._port, type=socket.SOCK_STREAM
        )[0]
        self._listener = socket.create_server(address, family=family)
        self._address = self._listener.getsockname()[:2]
        self._acceptor = threading.Thread(
            target=self._accept_loop,
            args=(self._listener,),
            name="repro-server-accept",
            daemon=True,
        )
        self._acceptor.start()
        return self

    def shutdown(
        self,
        *,
        close_database: bool = True,
        drain_timeout: Optional[float] = None,
    ) -> None:
        """Drain and stop (idempotent); see the module docstring for the order.

        With ``close_database=False`` the database stays open for embedded
        use after the network layer is gone (and its health view is left
        alone — only a database on its way out should report ``draining``).
        """
        timeout = self._drain_timeout if drain_timeout is None else drain_timeout
        with self._lock:
            first = not self._draining
            self._draining = True
            self._lock.notify_all()
        if first:
            self.sessions.start_draining()
            if close_database:
                self._db.store.health.mark_draining("server drain")
            self._drain(timeout)
            self._stop_serving.set()
        if close_database and not self._db.is_closed:
            self._db.close()

    def serve_forever(self) -> None:
        """Block until SIGTERM/SIGINT (or :meth:`shutdown`), then drain.

        Installs signal handlers, so it must run on the main thread; this is
        what ``python -m repro.server`` sits in.
        """
        if self._acceptor is None:
            self.start()

        def _request_stop(signum, frame):  # noqa: ARG001 - signal signature
            self._stop_serving.set()

        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _request_stop)
        try:
            self._stop_serving.wait()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        self.shutdown()

    def __enter__(self) -> "GraphServer":
        return self.start() if self._acceptor is None else self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    @property
    def database(self) -> "GraphDatabase":
        """The database this server fronts."""
        return self._db

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._address is None:
            raise ReproError("the server is not listening")
        return self._address

    @property
    def port(self) -> int:
        """The bound port."""
        return self.address[1]

    @property
    def is_running(self) -> bool:
        """Whether the acceptor thread is alive."""
        return self._acceptor is not None and self._acceptor.is_alive()

    @property
    def is_draining(self) -> bool:
        """Whether :meth:`shutdown` has begun."""
        return self.sessions.is_draining

    # ------------------------------------------------------------------
    # acceptor and drain
    # ------------------------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        with listener:
            while True:
                with self._lock:
                    while (
                        len(self._connections) > self._max_connections
                        and not self._draining
                    ):
                        self._lock.wait()
                    if self._draining:
                        return
                try:
                    conn, _ = listener.accept()
                except OSError:
                    # The drain shut the listener down, or the process is
                    # short of descriptors and the next accept may succeed.
                    if self._draining:
                        return
                    time.sleep(_ACCEPT_RETRY_DELAY)
                    continue
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name="repro-server-conn",
                    daemon=True,
                )
                with self._lock:
                    self._connections[conn] = thread
                    thread.start()

    def _drain(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        if self._listener is not None and self._acceptor is not None:
            _shutdown_socket(self._listener, socket.SHUT_RDWR)
            self._acceptor.join()
        # The acceptor is gone, so this is every connection there will be.
        with self._lock:
            live = list(self._connections.items())
        for conn, _ in live:
            _shutdown_socket(conn, socket.SHUT_RD)
        for _, thread in live:
            thread.join(max(0.0, deadline - time.monotonic()))
        stragglers = [(conn, thread) for conn, thread in live if thread.is_alive()]
        for conn, _ in stragglers:
            _shutdown_socket(conn, socket.SHUT_RDWR)
        for _, thread in stragglers:
            thread.join(max(0.0, deadline + 1.0 - time.monotonic()))
        self.sessions.close_all()

    # ------------------------------------------------------------------
    # connection threads
    # ------------------------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        session: Optional[ServerSession] = None
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(HANDSHAKE_TIMEOUT)
            hello = protocol.read_frame(conn, self._max_frame_bytes)
            if hello is None:
                self._hang_up(conn)
                return
            conn.settimeout(None)
            try:
                session = self.sessions.open_session(hello)
            except ReproError as exc:
                _try_send(conn, protocol.error_response(exc))
                return
            protocol.write_frame(conn, session.hello_response())
            while True:
                # Once the drain has begun, answer nothing new.
                request = (
                    None
                    if self._draining
                    else protocol.read_frame(conn, self._max_frame_bytes)
                )
                if request is None:
                    self._hang_up(conn)
                    return
                protocol.write_frame(conn, session.handle(request))
                if request.get("op") == "goodbye":
                    return
        except ProtocolError as exc:
            _try_send(conn, protocol.error_response(exc))
        except OSError:
            # Peer vanished, the handshake timed out, or the drain deadline
            # cut the connection off; the finally-block still retires the
            # session (open transactions roll back — they were never acked).
            pass
        finally:
            try:
                if session is not None:
                    session.close()
            finally:
                # Free the slot even if the rollback failed, or the acceptor
                # could wait for it forever.
                conn.close()
                with self._lock:
                    del self._connections[conn]
                    self._lock.notify_all()

    def _hang_up(self, conn: socket.socket) -> None:
        """End a connection at EOF: a drain owes the peer one last frame."""
        if self._draining:
            _try_send(
                conn,
                protocol.error_response(
                    ServerDrainingError(
                        "the server is draining for shutdown; no further "
                        "requests will be served on this connection"
                    )
                ),
            )


def _try_send(conn: socket.socket, payload: dict) -> None:
    with contextlib.suppress(OSError):
        protocol.write_frame(conn, payload)


def _shutdown_socket(conn: socket.socket, how: int) -> None:
    with contextlib.suppress(OSError):
        conn.shutdown(how)
