"""Client-disconnect behaviour: cancel reads, never lose enqueued writes.

Two halves of the same contract:

* a governed (deadline-carrying) read whose client vanishes mid-query is
  cancelled cooperatively — the server stops computing for a dead socket,
  counts the cancel and emits one structured log line;
* a mutation that was already admitted to the write queue is applied even
  if the client disconnects before reading the response — exactly-once
  admission means a vanished client never silently loses a write.
"""

import logging
import socket
import threading
import time

import pytest

from repro.analyses.micro import build_transitive_closure_program
from repro.api.database import Database
from repro.server import BlockingClient, ServerThread
from repro.server.protocol import encode_frame

EDGES = [(1, 2), (2, 3), (3, 4)]


@pytest.fixture()
def served():
    database = Database(build_transitive_closure_program(EDGES))
    with ServerThread(database) as thread:
        with BlockingClient(thread.host, thread.port) as client:
            yield thread, client
    database.close()


def _poll(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestDisconnectMidQuery:
    def test_disconnect_cancels_a_governed_read(
        self, served, monkeypatch, caplog
    ):
        thread, client = served
        import repro.server.server as server_module

        # Hold the governed read open on the reader thread so the
        # disconnect deterministically lands mid-query.  The event-loop
        # watcher must notice the dead transport while this read is stuck.
        real_encode = server_module.encode_id_rows
        read_started = threading.Event()
        release_read = threading.Event()

        def held_encode(*args):
            read_started.set()
            release_read.wait(timeout=10.0)
            return real_encode(*args)

        monkeypatch.setattr(server_module, "encode_id_rows", held_encode)
        with caplog.at_level(logging.INFO, logger="repro.server"):
            victim = socket.create_connection((thread.host, thread.port))
            try:
                victim.sendall(encode_frame({
                    "op": "query", "relation": "path", "deadline_ms": 60_000,
                }))
                assert read_started.wait(timeout=5.0), (
                    "the governed read never reached the reader pool"
                )
            finally:
                victim.close()  # vanish without reading the response

            # The watcher cancels the in-flight token without waiting for
            # the wedged read to finish — observed through a second client.
            assert _poll(lambda: client.metrics().get(
                "server_disconnect_cancels_total", 0) >= 1
            ), "the disconnect was never noticed while the read ran"
            release_read.set()
            # The unblocked read hits the cancelled token and aborts typed.
            assert _poll(lambda: client.metrics().get(
                "server_query_aborts_total{code=cancelled}", 0) >= 1
            ), "the cancelled read did not abort at its next check"
        assert any(
            "event=disconnect-cancel" in record.getMessage()
            for record in caplog.records
        ), "no structured disconnect-cancel log line was emitted"
        # The server is fully healthy afterwards.
        assert client.ping()
        assert set(client.query("path")) >= set(EDGES)

    def test_ungoverned_reads_never_pay_for_the_watcher(self, served):
        # No deadline -> the sync fast path: no token, no watcher, and
        # therefore no cancel accounting even across a rude disconnect.
        thread, client = served
        victim = socket.create_connection((thread.host, thread.port))
        victim.sendall(encode_frame({"op": "query", "relation": "path"}))
        victim.close()
        assert _poll(
            lambda: client.server_stats()["connections"] == 1
        ), "the victim connection was never torn down"
        assert client.metrics().get(
            "server_disconnect_cancels_total", 0
        ) == 0


class TestDisconnectMidMutation:
    def test_an_enqueued_write_survives_the_clients_disconnect(self, served):
        thread, client = served
        raw = socket.create_connection((thread.host, thread.port))
        raw.sendall(encode_frame({
            "op": "insert", "relation": "edge", "rows": [[4, 5]],
        }))
        raw.close()  # gone before the server can even respond
        # The write was admitted, so it MUST be applied: the derivation
        # through the new edge appears for everyone else.
        assert _poll(lambda: (1, 5) in set(client.query("path"))), (
            "the enqueued write was lost when the client vanished"
        )
        assert client.server_stats()["mutations_applied"] >= 1

    def test_a_disconnected_writers_batch_keeps_the_queue_draining(
        self, served
    ):
        thread, client = served
        raw = socket.create_connection((thread.host, thread.port))
        raw.sendall(
            encode_frame({
                "op": "insert", "relation": "edge", "rows": [[4, 5]],
            })
            + encode_frame({
                "op": "insert", "relation": "edge", "rows": [[5, 6]],
            })
        )
        raw.close()
        assert _poll(lambda: (1, 6) in set(client.query("path"))), (
            "writes behind a vanished client were never applied"
        )
        # And a live client's mutations still land normally afterwards.
        client.insert("edge", [(6, 7)])
        assert (1, 7) in set(client.query("path"))
