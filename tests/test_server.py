"""The network service layer end to end: server, client, wire protocol.

Every test runs a real :class:`~repro.server.GraphServer` on an ephemeral
port and talks to it through :class:`~repro.client.GraphClient` (or a raw
socket where the point is protocol-level behaviour).  The drain test is the
acceptance criterion for the layer: shutdown under concurrent write load
loses zero *acked* commits — every response the server sent for a write is
backed by a durable commit after reopening the store.
"""

import socket
import threading
import time

import pytest

import repro.server.server as server_module
from repro import GraphDatabase, IsolationLevel
from repro.client import GraphClient, RemoteNode, RemotePath, RemoteRelationship
from repro.errors import (
    AuthenticationError,
    ConnectionLimitError,
    IsolationNegotiationError,
    ProtocolError,
    QuerySyntaxError,
    ReproError,
    ServerDrainingError,
    ServerError,
    SessionStateError,
    WriteWriteConflictError,
)
from repro.server import GraphServer, negotiate_isolation, protocol


@pytest.fixture
def server():
    db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
    srv = GraphServer(db, port=0).start()
    yield srv
    srv.shutdown()


def connect(server, **kwargs):
    host, port = server.address
    return GraphClient(host, port, **kwargs)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


# ---------------------------------------------------------------------------
# wire protocol units
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip(self):
        payload = {"op": "execute", "query": "RETURN 1", "params": {"x": [1, 2]}}
        frame = protocol.encode_frame(payload)
        assert protocol.decode_payload(frame[4:]) == payload

    def test_oversized_frame_is_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_payload(b"not json")

    def test_value_codec_roundtrips_entities(self):
        node = RemoteNode(id=7, labels=("Person",), properties={"name": "Ada"})
        rel = RemoteRelationship(
            id=3, type="KNOWS", start_node_id=7, end_node_id=9, properties={}
        )
        path = RemotePath(nodes=(node,), relationships=(rel,))
        for value in (node, rel, path, {"k": [node, 1, None]}, "plain", 4.5):
            assert protocol.decode_value(protocol.encode_value(value)) == value

    def test_reserved_entity_key_is_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.encode_value({"~entity": "node"})

    def test_unencodable_value_is_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.encode_value(object())


# ---------------------------------------------------------------------------
# hello: negotiation, auth, admission
# ---------------------------------------------------------------------------


class TestNegotiation:
    def test_grant_rule(self):
        si = IsolationLevel.SNAPSHOT
        assert negotiate_isolation(si, None) is si
        assert negotiate_isolation(si, "read_committed") is si
        assert negotiate_isolation(si, "serializable") is si  # granted down
        with pytest.raises(IsolationNegotiationError):
            negotiate_isolation(si, "serializable", require=True)
        assert (
            negotiate_isolation(si, "serializable", require=False) is si
        )

    def test_weaker_request_is_served_at_the_database_level(self, server):
        with connect(server, isolation="read_committed") as client:
            assert client.isolation == "snapshot"

    def test_required_stronger_isolation_fails_hello(self, server):
        with pytest.raises(IsolationNegotiationError) as excinfo:
            connect(server, isolation="serializable", require_isolation=True)
        assert excinfo.value.remote_code == "IsolationNegotiationError"

    def test_serializable_database_satisfies_requirements(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
        with GraphServer(db, port=0) as srv:
            with connect(srv, isolation="serializable", require_isolation=True) as c:
                assert c.isolation == "serializable"


class TestAuth:
    def test_shared_secret(self):
        db = GraphDatabase.in_memory()
        with GraphServer(db, port=0, auth="s3cret") as srv:
            with pytest.raises(AuthenticationError):
                connect(srv)
            with pytest.raises(AuthenticationError):
                connect(srv, auth_token="wrong")
            with connect(srv, auth_token="s3cret") as client:
                client.execute("RETURN 1")

    def test_callable_hook_sees_token_and_hello(self):
        seen = []

        def hook(token, hello):
            seen.append((token, hello.get("client")))
            return token == "ok"

        db = GraphDatabase.in_memory()
        with GraphServer(db, port=0, auth=hook) as srv:
            with pytest.raises(AuthenticationError):
                connect(srv, auth_token="nope", client_name="bad-client")
            with connect(srv, auth_token="ok", client_name="good-client"):
                pass
        assert seen == [("nope", "bad-client"), ("ok", "good-client")]


class TestAdmission:
    def test_connection_limit(self):
        db = GraphDatabase.in_memory()
        with GraphServer(db, port=0, max_connections=1) as srv:
            first = connect(srv)
            with pytest.raises(ConnectionLimitError) as excinfo:
                connect(srv)
            assert excinfo.value.retryable is False
            first.close()
            # The slot frees once the server retires the session.
            assert wait_until(lambda: srv.sessions.active_count() == 0)
            with connect(srv) as second:
                second.execute("RETURN 1")

    def test_connection_threads_are_bounded(self, monkeypatch):
        monkeypatch.setattr(server_module, "HANDSHAKE_TIMEOUT", 0.3)
        max_connections = 2

        def connection_threads():
            return sum(
                thread.name.startswith("repro-server-conn")
                for thread in threading.enumerate()
            )

        db = GraphDatabase.in_memory()
        with GraphServer(db, port=0, max_connections=max_connections) as srv:
            # Peers that connect and never say HELLO.
            silent = [
                socket.create_connection(srv.address, timeout=5) for _ in range(6)
            ]
            try:
                peak = 0
                deadline = time.monotonic() + 1.5
                while time.monotonic() < deadline:
                    peak = max(peak, connection_threads())
                    time.sleep(0.01)
                assert 0 < peak <= max_connections + 1
                # Every silent peer has been timed out by now.
                assert wait_until(lambda: connection_threads() == 0)
                with connect(srv, timeout=5) as client:
                    assert client.execute("RETURN 1").single() == [1]
            finally:
                for sock in silent:
                    sock.close()

    def test_first_message_must_be_hello(self, server):
        raw = socket.create_connection(server.address, timeout=5)
        try:
            protocol.write_frame(raw, {"op": "execute", "query": "RETURN 1"})
            response = protocol.read_frame(raw)
            assert response["ok"] is False
            assert response["error"]["code"] == "ProtocolError"
            # The server hangs up after rejecting the handshake.
            assert protocol.read_frame(raw) is None
        finally:
            raw.close()

    def test_garbage_frame_gets_a_protocol_error(self, server):
        raw = socket.create_connection(server.address, timeout=5)
        try:
            body = b"\x00not json"
            raw.sendall(len(body).to_bytes(4, "big") + body)
            response = protocol.read_frame(raw)
            assert response["error"]["code"] == "ProtocolError"
        finally:
            raw.close()


# ---------------------------------------------------------------------------
# statements and transactions over the wire
# ---------------------------------------------------------------------------


class TestExecute:
    def test_autocommit_roundtrip_with_entities(self, server):
        with connect(server) as client:
            result = client.execute(
                "CREATE (a:Person {name: $n})-[r:KNOWS {since: 2016}]->"
                "(b:Person {name: 'Bob'}) RETURN a, r",
                n="Alice",
            )
            assert result.commit_ts is not None
            assert client.last_commit_ts == result.commit_ts
            node, rel = result.single()
            assert isinstance(node, RemoteNode)
            assert node.properties["name"] == "Alice"
            assert isinstance(rel, RemoteRelationship)
            assert rel.type == "KNOWS"
            assert rel["since"] == 2016
            stats = client.execute("MATCH (n) RETURN count(n) AS c")
            assert stats.single() == [2]
            assert stats.commit_ts is None  # pure read: token untouched

    def test_parameters_cross_the_wire(self, server):
        with connect(server) as client:
            client.execute(
                "CREATE (:Doc {tags: $tags, depth: $depth})",
                tags=["a", "b"],
                depth=3,
            )
            rows = client.execute("MATCH (d:Doc) RETURN d.tags, d.depth").single()
            assert rows == [["a", "b"], 3]

    def test_explicit_transaction_visibility(self, server):
        with connect(server) as writer, connect(server) as reader:
            writer.begin()
            writer.execute("CREATE (:Person {name: 'Hidden'})")
            assert reader.execute("MATCH (n:Person) RETURN n").rows == []
            commit_ts = writer.commit()
            assert commit_ts is not None
            assert writer.last_commit_ts == commit_ts
            assert len(reader.execute("MATCH (n:Person) RETURN n").rows) == 1

    def test_rollback_discards(self, server):
        with connect(server) as client:
            client.begin()
            client.execute("CREATE (:Person {name: 'Ghost'})")
            client.rollback()
            assert client.execute("MATCH (n:Person) RETURN n").rows == []

    def test_session_state_errors_cross_the_wire(self, server):
        with connect(server) as client:
            client.begin()
            with pytest.raises(SessionStateError) as excinfo:
                client.begin()
            assert excinfo.value.remote is True
            client.rollback()
            with pytest.raises(SessionStateError):
                client.commit()

    def test_syntax_error_maps_to_the_local_class(self, server):
        with connect(server) as client:
            with pytest.raises(QuerySyntaxError) as excinfo:
                client.execute("MATCH (n RETURN n")
            assert excinfo.value.remote_code == "QuerySyntaxError"
            assert excinfo.value.retryable is False
            client.execute("RETURN 1")  # the connection survives the error

    def test_write_conflict_maps_retryable(self, server):
        with connect(server) as a, connect(server) as b:
            node_id = a.execute(
                "CREATE (n:Counter {value: 0}) RETURN n"
            ).single()[0].id
            a.begin()
            a.execute("MATCH (n:Counter) SET n.value = 1")
            b.begin()
            with pytest.raises(WriteWriteConflictError) as excinfo:
                b.execute("MATCH (n:Counter) SET n.value = 2")
            assert excinfo.value.retryable is True
            assert excinfo.value.remote_reason == "ww-conflict"
            b.rollback()
            a.commit()
            assert a.execute(
                "MATCH (n:Counter) RETURN n.value"
            ).single() == [1]
            assert node_id == 0

    def test_read_only_session_rejects_writes(self, server):
        with connect(server, read_only=True) as client:
            assert client.read_only
            with pytest.raises(ReproError):
                client.execute("CREATE (:Nope)")


# ---------------------------------------------------------------------------
# service surface
# ---------------------------------------------------------------------------


class TestService:
    def test_ping_and_stats(self, server):
        with connect(server, client_name="stats-test") as client:
            assert client.ping()["status"] == "ok"
            client.begin()
            stats = client.server_stats()
            mine = [
                s
                for s in stats["sessions"]
                if s["session_id"] == client.session_id
            ]
            assert mine and mine[0]["client"] == "stats-test"
            assert mine[0]["in_transaction"] is True
            assert stats["isolation"] == "snapshot"
            assert stats["draining"] is False
            client.rollback()

    def test_server_metrics_are_registered(self, server):
        with connect(server) as client:
            client.execute("RETURN 1")
            client.ping()
        text = server.database.prometheus_metrics()
        assert "repro_server_sessions" in text
        assert 'repro_server_requests_total{op="execute"}' in text
        assert "repro_server_sessions_opened_total" in text

    def test_closing_client_retires_the_session(self, server):
        client = connect(server)
        assert server.sessions.active_count() == 1
        client.close()
        assert wait_until(lambda: server.sessions.active_count() == 0)

    def test_dropped_connection_rolls_back_and_retires(self, server):
        client = connect(server)
        client.begin()
        client.execute("CREATE (:Person {name: 'Orphan'})")
        client._sock.close()  # die without goodbye
        client._closed = True
        assert wait_until(lambda: server.sessions.active_count() == 0)
        with connect(server) as checker:
            assert checker.execute("MATCH (n:Person) RETURN n").rows == []


# ---------------------------------------------------------------------------
# concurrency and drain
# ---------------------------------------------------------------------------


class TestConcurrentClients:
    def test_concurrent_writers_all_commit(self, server):
        clients, writers, errors = 6, 5, []

        def worker(tid):
            try:
                with connect(server, client_name=f"worker-{tid}") as client:
                    for i in range(writers):
                        while True:
                            try:
                                client.execute(
                                    "CREATE (:Entry {owner: $o, seq: $i})",
                                    o=tid,
                                    i=i,
                                )
                                break
                            except ReproError as exc:
                                if not getattr(exc, "retryable", False):
                                    raise
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tid,)) for tid in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        with connect(server) as client:
            total = client.execute("MATCH (e:Entry) RETURN count(e) AS c").single()[0]
        assert total == clients * writers

    def test_drain_loses_zero_acked_commits(self, tmp_path):
        path = str(tmp_path / "db")
        db = GraphDatabase.open(path)
        srv = GraphServer(db, port=0, drain_timeout=5.0).start()
        host, port = srv.address
        acked = []
        acked_lock = threading.Lock()
        running = threading.Event()

        def worker(tid):
            seq = 0
            try:
                client = GraphClient(host, port, client_name=f"drain-{tid}")
            except (ReproError, OSError):
                return
            with client:
                while True:
                    name = f"{tid}-{seq}"
                    try:
                        client.execute("CREATE (:Acked {name: $n})", n=name)
                    except (ServerDrainingError, ServerError, ProtocolError, OSError):
                        return
                    except ReproError as exc:
                        if getattr(exc, "retryable", False):
                            continue
                        return
                    # The response arrived: this commit is acked.
                    with acked_lock:
                        acked.append(name)
                    running.set()
                    seq += 1

        threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(4)]
        for t in threads:
            t.start()
        assert running.wait(timeout=10)  # mixed load is in flight
        time.sleep(0.3)
        srv.shutdown()  # drains sessions, then drains and closes the db
        for t in threads:
            t.join(timeout=10)
        assert db.is_closed
        assert acked  # the test exercised actual commits
        # New connections are refused once the listener is gone.
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1)
        reopened = GraphDatabase.open(path)
        try:
            with reopened.begin(read_only=True) as tx:
                durable = {node["name"] for node in tx.find_nodes(label="Acked")}
        finally:
            reopened.close()
        missing = set(acked) - durable
        assert not missing, f"acked commits lost in drain: {sorted(missing)}"

    def test_drain_answers_an_idle_connection_and_rolls_it_back(self, tmp_path):
        path = str(tmp_path / "db")
        db = GraphDatabase.open(path)
        drain_timeout = 2.0
        srv = GraphServer(db, port=0, drain_timeout=drain_timeout).start()
        raw = socket.create_connection(srv.address, timeout=10)
        try:
            for request in (
                {"op": "hello", "protocol": protocol.PROTOCOL_VERSION},
                {"op": "begin"},
                {"op": "execute", "query": "CREATE (:Uncommitted)"},
            ):
                protocol.write_frame(raw, request)
                assert protocol.read_frame(raw)["ok"] is True
            # The client now sits idle inside its open transaction, and the
            # server side is back in its blocking read.
            time.sleep(0.2)
            started = time.monotonic()
            srv.shutdown()
            assert time.monotonic() - started < drain_timeout + 1.0
            final = protocol.read_frame(raw)
            assert final["ok"] is False
            assert final["error"]["code"] == "ServerDrainingError"
            assert protocol.read_frame(raw) is None
        finally:
            raw.close()
        assert db.is_closed
        reopened = GraphDatabase.open(path)
        try:
            with reopened.begin(read_only=True) as tx:
                assert list(tx.find_nodes(label="Uncommitted")) == []
        finally:
            reopened.close()

    def test_draining_server_rejects_new_sessions(self, tmp_path):
        db = GraphDatabase.open(str(tmp_path / "db"))
        srv = GraphServer(db, port=0).start()
        holder = connect(srv)
        srv.sessions.start_draining()
        with pytest.raises(ServerDrainingError) as excinfo:
            connect(srv)
        assert excinfo.value.retryable is True
        holder.close()
        srv.shutdown()

    def test_shutdown_is_idempotent_and_contextual(self):
        db = GraphDatabase.in_memory()
        srv = GraphServer(db, port=0)
        with srv:
            with connect(srv) as client:
                client.execute("RETURN 1")
        srv.shutdown()  # second call is a no-op
        assert db.is_closed
        assert not srv.is_running

    def test_shutdown_can_keep_the_database_open(self):
        db = GraphDatabase.in_memory()
        srv = GraphServer(db, port=0).start()
        with connect(srv) as client:
            client.execute("CREATE (:Kept)")
        srv.shutdown(close_database=False)
        assert not db.is_closed
        assert db.health()["status"] == "ok"  # embedded use continues
        with db.begin(read_only=True) as tx:
            assert len(list(tx.find_nodes(label="Kept"))) == 1
        db.close()
