"""The network service layer: serve one database to many clients.

* :mod:`repro.server.protocol` — the wire format: length-prefixed JSON
  frames, the value codec for graph entities, and the error mapping.
* :mod:`repro.server.session` — server-side sessions: HELLO negotiation
  (auth, isolation, read-only), admission limits, request dispatch.
* :mod:`repro.server.server` — :class:`GraphServer`: an acceptor thread and
  one thread per connection that reads, runs and answers each request
  inline, with a graceful drain that never drops an acked commit.

Serve a database embedded::

    from repro import GraphDatabase
    from repro.server import GraphServer

    db = GraphDatabase("/data/graph")
    with GraphServer(db, port=7688) as server:
        print("listening on", server.address)
        server.serve_forever()

or from the command line: ``python -m repro.server --path /data/graph``.
The matching synchronous client lives in :mod:`repro.client`.
"""

from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_PORT,
    PROTOCOL_VERSION,
    RemoteNode,
    RemotePath,
    RemoteRelationship,
)
from repro.server.server import GraphServer
from repro.server.session import ServerSession, SessionManager, negotiate_isolation

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "GraphServer",
    "RemoteNode",
    "RemotePath",
    "RemoteRelationship",
    "ServerSession",
    "SessionManager",
    "negotiate_isolation",
]
