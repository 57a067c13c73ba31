"""Wire compatibility of the error taxonomy: one stable code per failure.

Every taxonomy class serialises to the same ``{"code", "message", "reason",
"details"}`` shape the client keys its retry policy on, and the codes that
can surface over TCP actually do — through a real server, not a mock.
"""

import socket

import pytest

from repro import Database, DurabilityConfig
from repro.analyses.micro import build_transitive_closure_program
from repro.resilience.errors import TAXONOMY
from repro.resilience.faults import fault_scope
from repro.server import BlockingClient, ServerThread
from repro.server.client import ServerError
from repro.server.protocol import MAX_FRAME, decode_payload, encode_frame

EDGES = [(1, 2), (2, 3), (3, 4)]


class TestClientContract:
    @pytest.mark.parametrize("code", sorted(TAXONOMY))
    def test_every_taxonomy_code_reaches_the_client_intact(self, code):
        """The client must expose exactly the server's stable code — the
        retry policy and every caller dispatch on this string."""
        cls = TAXONOMY[code]
        wire = cls("boom", reason="why", details={"k": 1}).to_wire()
        error = ServerError(wire)
        assert error.code == code
        assert error.error["reason"] == "why"
        assert error.error["details"] == {"k": 1}
        assert str(error) == "boom"

    def test_enqueued_flag_defaults_to_unknown(self):
        wire = TAXONOMY["resource_exhausted"]("full").to_wire()
        assert ServerError(wire).enqueued is None
        assert ServerError(wire, enqueued=False).enqueued is False


class TestWireReachability:
    @pytest.fixture()
    def served(self):
        database = Database(build_transitive_closure_program(EDGES))
        with ServerThread(database) as thread:
            with BlockingClient(thread.host, thread.port) as client:
                yield thread, client
        database.close()

    def test_deadline_exceeded_over_the_wire(self, served):
        _, client = served
        with pytest.raises(ServerError) as excinfo:
            # One microsecond: expired before the first cooperative check.
            client.request({
                "op": "query", "relation": "path", "deadline_ms": 0.001,
            })
        assert excinfo.value.code == "deadline_exceeded"
        assert client.ping()  # the connection survives a typed abort

    def test_resource_exhausted_for_an_oversized_frame(self, served):
        thread, client = served
        raw = socket.create_connection((thread.host, thread.port), timeout=5)
        try:
            # A framed-mode hello followed by a declared length beyond
            # MAX_FRAME: the server answers with one typed error and
            # closes, instead of buffering an unbounded payload.
            raw.sendall(encode_frame({"op": "ping"}))
            assert _recv_frame(raw)["pong"] is True
            raw.sendall((MAX_FRAME + 1).to_bytes(4, "big"))
            response = _recv_frame(raw)
        finally:
            raw.close()
        assert response["ok"] is False
        assert response["error"]["code"] == "resource_exhausted"
        assert client.ping()  # other connections are unaffected

    def test_resource_exhausted_for_an_oversized_response(
        self, served, monkeypatch
    ):
        """A response past MAX_FRAME is refused before a byte is written:
        the client gets the typed error on a connection that stays usable,
        and the advice in it (page the read) works."""
        import repro.server.protocol as protocol

        _, client = served
        client.insert("edge", [(i, i + 1) for i in range(4, 40)])
        monkeypatch.setattr(protocol, "MAX_FRAME", 2000)
        with pytest.raises(ServerError) as excinfo:
            client.query("path")
        assert excinfo.value.code == "resource_exhausted"
        assert excinfo.value.error["reason"] == "oversize"
        assert excinfo.value.error["limit"] == 2000
        assert "offset" in str(excinfo.value) and "limit" in str(excinfo.value)
        assert client.ping()  # same connection, still in sync
        paged = client.query("path", offset=0, limit=100)
        assert len(paged) == 100
        assert client.metrics()[
            "server_query_aborts_total{code=resource_exhausted}"
        ] == 1

    def test_durability_error_over_the_wire_and_recovery(self, tmp_path):
        durability = DurabilityConfig(dir=str(tmp_path), fsync="always")
        database = Database(
            build_transitive_closure_program(EDGES), durability=durability
        )
        with ServerThread(database) as thread:
            with BlockingClient(thread.host, thread.port) as client:
                with fault_scope("wal.fsync:fail_nth=1"):
                    with pytest.raises(ServerError) as excinfo:
                        client.insert("edge", [(4, 5)])
                    assert excinfo.value.code == "durability_error"
                    # The schedule recovered: the same write goes through
                    # and is actually durable.
                    client.insert("edge", [(4, 5)])
                    assert (1, 5) in set(client.query("path"))
        database.close()
        reopened = Database(
            build_transitive_closure_program(EDGES), durability=durability
        )
        try:
            # Recovery runs when the durable-writer connection opens.
            with reopened.connect() as conn:
                assert (1, 5) in set(conn.query("path").rows())
        finally:
            reopened.close()


def _recv_exact(sock, n):
    buffer = b""
    while len(buffer) < n:
        chunk = sock.recv(n - len(buffer))
        if not chunk:
            raise AssertionError("server closed before a full frame arrived")
        buffer += chunk
    return buffer


def _recv_frame(sock):
    length = int.from_bytes(_recv_exact(sock, 4), "big")
    return decode_payload(_recv_exact(sock, length))
