"""End-to-end tests for the query server over real TCP connections."""

import gc
import json
import socket
import weakref

import pytest

from repro.analyses.micro import build_transitive_closure_program
from repro.api.database import Database
from repro.core.config import EngineConfig
from repro.server import (
    BackpressureConfig,
    BlockingClient,
    ServerThread,
)
from repro.server.client import ServerError
from repro.server.protocol import EncodedRows

EDGES = [(1, 2), (2, 3), (3, 4)]
CLOSURE = {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)}


@pytest.fixture()
def served():
    database = Database(build_transitive_closure_program(EDGES))
    with ServerThread(database) as thread:
        with BlockingClient(thread.host, thread.port) as client:
            yield thread, client
    database.close()


class TestQueries:
    def test_ping(self, served):
        _, client = served
        assert client.ping() is True

    def test_query_returns_the_closure(self, served):
        _, client = served
        assert set(client.query("path")) == CLOSURE

    def test_query_response_carries_count_and_snapshot_version(self, served):
        _, client = served
        response = client.query_response("path")
        assert response["count"] == len(CLOSURE)
        assert response["snapshot_version"] == 0

    def test_pagination_is_deterministic(self, served):
        _, client = served
        everything = client.query("path")
        assert client.query("path", offset=2, limit=3) == everything[2:5]
        assert client.query("path", limit=0) == []

    def test_unknown_relation_is_a_structured_error(self, served):
        _, client = served
        with pytest.raises(ServerError) as excinfo:
            client.query("nope")
        assert excinfo.value.code == "unknown_relation"

    def test_unknown_op_is_a_structured_error(self, served):
        _, client = served
        with pytest.raises(ServerError) as excinfo:
            client.request({"op": "sudo"})
        assert excinfo.value.code == "unknown_op"

    def test_query_without_relation_is_a_bad_request(self, served):
        _, client = served
        with pytest.raises(ServerError) as excinfo:
            client.request({"op": "query"})
        assert excinfo.value.code == "bad_request"


class TestMutations:
    def test_insert_propagates_and_advances_the_snapshot(self, served):
        _, client = served
        response = client.insert("edge", [(4, 5)])
        assert response["report"]["strategy"] == "incremental"
        assert response["report"]["inserted"] == 1
        assert response["snapshot_version"] == 1
        paths = set(client.query("path"))
        assert (1, 5) in paths  # 1→2→3→4→5 closed through the new edge
        assert client.query_response("path")["snapshot_version"] == 1

    def test_retract_removes_downstream_derivations(self, served):
        _, client = served
        client.retract("edge", [(2, 3)])
        paths = set(client.query("path"))
        assert (1, 3) not in paths and (1, 4) not in paths
        assert (3, 4) in paths

    def test_apply_combines_inserts_and_retracts(self, served):
        _, client = served
        response = client.apply(
            inserts={"edge": [[4, 5]]}, retracts={"edge": [[1, 2]]},
        )
        assert response["ok"] is True
        paths = set(client.query("path"))
        assert (4, 5) in paths and (1, 2) not in paths

    def test_mutating_an_unknown_relation_fails_cleanly(self, served):
        _, client = served
        with pytest.raises(ServerError) as excinfo:
            client.insert("nope", [(1, 2)])
        assert excinfo.value.code == "mutation_failed"
        assert client.ping()  # connection survives the failure

    def test_insert_without_rows_is_a_bad_request(self, served):
        _, client = served
        with pytest.raises(ServerError) as excinfo:
            client.request({"op": "insert", "relation": "edge"})
        assert excinfo.value.code == "bad_request"


class TestSnapshotResultCache:
    def test_reads_at_one_version_share_one_pinned_result(self, served):
        thread, client = served
        client.query("path")
        client.query("path")
        cache = thread.server._result_cache
        assert list(cache) == [("path", 0)]
        assert thread.server.snapshots.pin_count(0) == 1

    def test_superseded_versions_are_evicted_on_the_next_read(self, served):
        thread, client = served
        client.query("path")
        client.insert("edge", [(4, 5)])
        client.query("path")
        cache = thread.server._result_cache
        assert list(cache) == [("path", 1)]
        assert thread.server.snapshots.pin_count(0) == 0
        assert thread.server.snapshots.live_versions() == (1,)


    def test_the_encoded_body_is_evicted_with_the_entry_it_lives_in(
        self, served
    ):
        thread, client = served
        client.query("path")  # unbounded: builds and memoises the body
        entry = thread.server._result_cache[("path", 0)]
        assert isinstance(entry.body, EncodedRows)
        chunk = entry.body[1]  # the first 1024 rows, as bytes
        old_result = weakref.ref(entry.result)
        assert any(  # the probe below sees the memo while it is live
            isinstance(holder, EncodedRows)
            for holder in gc.get_referrers(chunk)
        )
        del entry
        client.insert("edge", [(4, 5)])
        client.query("path", limit=1)  # evicts version 0; pages never build
        assert thread.server._result_cache[("path", 1)].body is None
        gc.collect()
        assert old_result() is None
        assert not [
            holder for holder in gc.get_referrers(chunk)
            if isinstance(holder, EncodedRows)
        ], "a chunk of the superseded version is still reachable"


def served_rows(client):
    """``{how: rows}`` of ``server_rows_served_total`` via the metrics op."""
    prefix = "server_rows_served_total{how="
    return {
        key[len(prefix):-1]: value
        for key, value in client.metrics().items() if key.startswith(prefix)
    }


class TestRowsServedAccounting:
    """How a read's rows reached the wire is the system's own output."""

    def test_full_reads_encode_once_per_version_then_hit_the_memo(
        self, served
    ):
        _, client = served
        n = len(CLOSURE)
        client.query("path")
        assert served_rows(client) == {"fragments": n}
        client.query("path")
        assert served_rows(client) == {"fragments": n, "memo": n}
        client.insert("edge", [(4, 5)])
        grown = len(client.query("path"))  # new version: encoded afresh
        assert grown > n
        assert served_rows(client) == {"fragments": n + grown, "memo": n}
        client.query("path")
        assert served_rows(client) == {
            "fragments": n + grown, "memo": n + grown,
        }

    def test_pages_count_the_rows_they_carry_and_never_build_the_body(
        self, served
    ):
        thread, client = served
        client.query("path", offset=1, limit=2)
        client.query("path", offset=5, limit=9)  # one row left
        assert served_rows(client) == {"fragments": 3}
        assert thread.server._result_cache[("path", 0)].body is None

    def test_a_read_refused_as_oversize_served_no_rows_and_keeps_no_body(
        self, served, monkeypatch
    ):
        import repro.server.protocol as protocol

        thread, client = served
        client.insert("edge", [(i, i + 1) for i in range(4, 40)])
        monkeypatch.setattr(protocol, "MAX_FRAME", 2000)
        for _ in range(2):  # the retry must not be answered from a memo
            with pytest.raises(ServerError) as excinfo:
                client.query("path")
            assert excinfo.value.error["reason"] == "oversize"
            assert thread.server._result_cache[("path", 1)].body is None
        monkeypatch.undo()
        assert served_rows(client) == {}
        client.query("path", offset=0, limit=2)
        assert served_rows(client) == {"fragments": 2}

    def test_catalog_and_raw_storage_reads_count_raw(self, served):
        _, client = served
        relations = client.query("sys_relations")
        assert served_rows(client) == {"raw": len(relations)}
        database = Database(
            build_transitive_closure_program(EDGES),
            EngineConfig(interning=False),
        )
        with ServerThread(database) as thread:
            with BlockingClient(thread.host, thread.port) as raw:
                assert set(raw.query("path")) == CLOSURE
                raw.query("path")
                assert served_rows(raw) == {"raw": 2 * len(CLOSURE)}
        database.close()

    def test_the_counter_reaches_sys_metrics_and_prometheus(self, served):
        thread, client = served
        client.query("path")
        rows = {
            labels: value
            for name, labels, _, value in client.query("sys_metrics")
            if name == "server_rows_served_total"
        }
        assert rows == {"how=fragments": len(CLOSURE)}
        assert (
            'repro_server_rows_served_total{how="fragments"} '
            f"{len(CLOSURE)}"
        ) in thread.server.metrics.to_prometheus()


class TestObservability:
    def test_sys_connections_lists_this_connection(self, served):
        _, client = served
        client.ping()
        rows = client.query("sys_connections")
        assert len(rows) == 1
        conn, peer, state, mode, queries, mutations, _, _ = rows[0]
        assert state == "open"
        assert mode == "framed"
        assert queries >= 1

    def test_sys_query_responses_have_no_snapshot_version(self, served):
        _, client = served
        assert "snapshot_version" not in client.query_response("sys_server")

    def test_sys_server_row_reflects_the_configuration(self, served):
        _, client = served
        rows = client.query("sys_server")
        assert len(rows) == 1
        (uptime, connections, depth, capacity, policy,
         applied, shed, rejected, version, live) = rows[0]
        assert uptime >= 0
        assert connections == 1
        assert capacity == 64 and policy == "block"
        assert applied == 0 and shed == 0 and rejected == 0
        assert version == 0 and live >= 1

    def test_explain_mentions_the_relation(self, served):
        _, client = served
        assert "path" in client.explain("path")

    def test_metrics_include_server_counters(self, served):
        _, client = served
        client.query("path")
        metrics = client.metrics()
        assert any("server_requests_total" in key for key in metrics)

    def test_server_stats_superset_of_sys_server(self, served):
        _, client = served
        stats = client.server_stats()
        assert stats["policy"] == "block"
        assert stats["snapshot_version"] == 0
        assert stats["snapshots"]["live"] >= 1

    def test_ordered_view_constructions_are_visible_over_the_wire(self):
        # A 5-10x change in what a read costs must be explainable from the
        # server's own outputs: how each ordered view was built, and why.
        chain = [(node, node + 1) for node in range(40)]
        database = Database(build_transitive_closure_program(chain))
        with ServerThread(database) as thread:
            with BlockingClient(thread.host, thread.port) as client:
                client.query("path", limit=4)           # sorted: no base yet
                client.insert("edge", [[100, 101]])
                client.query("path", limit=4)           # merged: one new row
                client.query("path", limit=4)           # memoised: no build
                stats = client.server_stats()["snapshots"]
                assert stats["ordered_sorted"] == 1
                assert stats["ordered_merged"] == 1
                views = {
                    labels: value
                    for name, labels, _, value in client.query("sys_metrics")
                    if name == "ordered_views_total"
                }
        database.close()
        assert views == {"how=sorted,reason=no-base": 1, "how=merged": 1}


class TestWireModes:
    def test_line_mode_speaks_newline_json(self, served):
        thread, _ = served
        with socket.create_connection(
            (thread.host, thread.port), timeout=10
        ) as sock:
            sock.sendall(b'{"op": "ping", "id": 1}\n')
            buffer = b""
            while b"\n" not in buffer:
                buffer += sock.recv(65536)
            response = json.loads(buffer.split(b"\n", 1)[0])
            assert response == {"ok": True, "pong": True, "id": 1}
            sock.sendall(b'{"op": "close"}\n')

    def test_line_mode_client(self, served):
        thread, _ = served
        with BlockingClient(thread.host, thread.port, framed=False) as client:
            assert client.ping() is True
            assert set(client.query("path")) == CLOSURE


class TestBackpressureOverTheWire:
    def test_reject_policy_surfaces_structured_errors(self):
        database = Database(build_transitive_closure_program(EDGES))
        backpressure = BackpressureConfig(policy="reject", max_pending=1)
        with ServerThread(database, backpressure=backpressure) as thread:
            with BlockingClient(thread.host, thread.port) as client:
                stats = client.server_stats()
                assert stats["policy"] == "reject"
                assert stats["queue_capacity"] == 1
                # Whether a given insert is rejected depends on writer
                # timing; the policy plumbing is what's under test here.
                client.insert("edge", [(4, 5)])
                assert (1, 5) in set(client.query("path"))
        database.close()


class TestLifecycle:
    def test_two_clients_are_isolated_and_counted(self, served):
        thread, first = served
        with BlockingClient(thread.host, thread.port) as second:
            assert second.ping()
            rows = first.query("sys_connections")
            assert len(rows) == 2
        assert thread.server.registry.accepted >= 2

    def test_stop_is_idempotent(self):
        database = Database(build_transitive_closure_program(EDGES))
        thread = ServerThread(database).start()
        with BlockingClient(thread.host, thread.port) as client:
            assert client.ping()
        thread.stop()
        thread.stop()
        database.close()
