"""Serving acceptance gate: snapshot reads stay fast under a mutation batch.

Not a paper figure — this gates the concurrent query server
(:mod:`repro.server`) on its headline guarantee: MVCC snapshot reads never
block behind the single writer's incremental fixpoint.

``test_snapshot_reads_under_mutation_batch`` boots a server over the
10k-edge transitive closure, measures an idle read-latency profile, then
submits a **10,000-edge** ``apply`` batch (fresh-node chains, ~1.5-3s of
incremental fixpoint on the writer thread) and re-measures the same read
load while that mutation is running.  It asserts

* loaded p99 <= max(2 x idle p99, idle p99 + 10ms) — the 2x-of-idle
  acceptance bound, with a small absolute floor because idle p99 on the
  quick read path is single-digit milliseconds where scheduler noise
  alone can exceed 2x;
* every read observed a committed snapshot version (the pre-mutation
  version or the post-commit one, never a torn in-between state);
* at least one read completed against the *prior* snapshot after the
  batch was submitted — i.e. readers genuinely overlapped the writer;
* the final snapshot advanced by exactly one version and grew the result.

``test_fresh_page_after_small_batch_is_delta_priced`` gates what the first
read at a new version costs: after an 8-edge batch on the same closure, the
first page of ``query_snapshot`` (which derives its order from the previous
version's, see :mod:`repro.incremental.snapshots`) must take at most 0.35x
a cold build of that very version (``Connection.query``, which sorts) and
return identical rows — median of five back-to-back per-round ratios.
Before the order was carried across versions the ratio was 1.0.

``test_full_read_is_served_from_encoded_bytes`` gates what a *repeated*
unbounded read costs the server.  The first one at a version encodes the
relation from symbol ids through the per-symbol fragment table and leaves
the encoded body on the server's per-version memo; every later one hands
those bytes to the socket.  The time inside ``QueryServer._dispatch`` for a
memoised full read (median of five back-to-back rounds) must be at most
0.1x what the reference encoding of the same result costs
(``encode_frame`` of the response built with ``jsonify_rows(result.rows())``
— what the server did per request before), the collector must not run at
all during it (the reference path allocates a list per row, and the
collections that provokes were a quarter of the old wire latency), and the
bytes on the wire must be the reference's, bit for bit.

The reader clock runs with a shortened GIL switch interval: server and
clients share one process here, and the writer's fixpoint is a CPython
compute loop that would otherwise starve the asyncio loop in 5ms slices,
measuring the GIL rather than the server.  Run via ``scripts/smoke.sh
--full`` or directly with ``PYTHONPATH=src python -m pytest
benchmarks/bench_serving.py``.
"""

import asyncio
import gc
import socket
import sys
import threading
import time

from repro.analyses.micro import build_transitive_closure_program
from repro.api.database import Database
from repro.bench.serving import percentile
from repro.server.client import AsyncClient, BlockingClient
from repro.server.protocol import encode_frame, jsonify_rows
from repro.server.runtime import ServerThread
from repro.workloads.graphs import random_edges

NODES, EDGES = 12_000, 10_000

#: The mutation batch: 250 fresh-node chains of 40 edges = 10,000 edges.
#: Fresh nodes bound the cascade (each chain only closes over itself);
#: chains this long still cost the writer a seconds-scale fixpoint, a
#: wide window for readers to overlap.
CHAINS, CHAIN_LENGTH = 250, 40
CHAIN_BASE = 20_000_000

READ_CLIENTS = 4
READS_PER_CLIENT = 30
READ_LIMIT = 16

#: Fresh-page gate: rounds, batch size, page size and the ceiling on
#: (derived first page) / (cold build of the same version).
FRESH_ROUNDS, FRESH_BATCH_EDGES, FRESH_PAGE = 5, 8, 32
FRESH_RATIO_CEILING = 0.35

#: Memoised-full-read gate: rounds, and the ceiling on (time inside
#: ``_dispatch``) / (reference encoding of the same response).
FULL_ROUNDS = 5
FULL_RATIO_CEILING = 0.1

#: p99 noise floor: below ~10ms, a single scheduler preemption can exceed
#: the 2x relative bound on its own.
ABSOLUTE_FLOOR_S = 0.010


def mutation_batch():
    edges = []
    for chain in range(CHAINS):
        start = CHAIN_BASE + chain * (CHAIN_LENGTH + 1)
        for step in range(CHAIN_LENGTH):
            edges.append((start + step, start + step + 1))
    return edges


async def _read_round(host, port, clients, per_client):
    """(latency_seconds, snapshot_version) per request, across clients."""
    samples = []

    async def one_client():
        client = await AsyncClient.connect(host, port)
        try:
            for _ in range(per_client):
                started = time.perf_counter()
                response = await client.request({
                    "op": "query", "relation": "path", "limit": READ_LIMIT,
                })
                samples.append((
                    time.perf_counter() - started,
                    response.get("snapshot_version"),
                ))
        finally:
            await client.close()

    await asyncio.gather(*(one_client() for _ in range(clients)))
    return samples


def timed_reads(host, port):
    return asyncio.run(
        _read_round(host, port, READ_CLIENTS, READS_PER_CLIENT)
    )


def test_snapshot_reads_under_mutation_batch():
    """Acceptance: p99 under a 10k-edge mutation <= 2x idle (10ms floor)."""
    program = build_transitive_closure_program(
        random_edges(NODES, EDGES, seed=2024)
    )
    database = Database(program)
    switch_interval = sys.getswitchinterval()
    try:
        with ServerThread(database) as server:
            with BlockingClient(server.host, server.port) as control:
                before = control.query_response("path")
            version_before = before["snapshot_version"]
            count_before = before["count"]

            timed_reads(server.host, server.port)  # warm-up
            idle = timed_reads(server.host, server.port)
            idle_p99 = percentile([s[0] for s in idle], 0.99)

            sys.setswitchinterval(0.0005)
            batch = mutation_batch()
            submitted = threading.Event()
            outcome = {}

            def run_mutation():
                with BlockingClient(server.host, server.port,
                                    timeout=300.0) as writer:
                    submitted.set()
                    outcome["report"] = writer.apply(
                        inserts={"edge": batch}
                    )

            mutator = threading.Thread(target=run_mutation, daemon=True)
            mutator.start()
            assert submitted.wait(timeout=30.0)
            time.sleep(0.05)  # let the apply reach the writer thread
            loaded = timed_reads(server.host, server.port)
            mutator.join(timeout=300.0)
            assert not mutator.is_alive(), "mutation batch never finished"
            assert "report" in outcome, "mutation batch failed"

            with BlockingClient(server.host, server.port) as control:
                after = control.query_response("path")
    finally:
        sys.setswitchinterval(switch_interval)
        database.close()

    loaded_p99 = percentile([s[0] for s in loaded], 0.99)
    versions = {version for _, version in loaded}
    version_after = after["snapshot_version"]

    assert version_after == version_before + 1
    assert after["count"] == count_before + CHAINS * (
        CHAIN_LENGTH * (CHAIN_LENGTH + 1) // 2
    )
    assert versions <= {version_before, version_after}, (
        f"reads observed uncommitted versions: {sorted(versions)}"
    )
    assert version_before in versions, (
        "no read completed against the prior snapshot while the "
        "mutation batch was running (the load did not overlap)"
    )
    ceiling = max(2 * idle_p99, idle_p99 + ABSOLUTE_FLOOR_S)
    assert loaded_p99 <= ceiling, (
        f"loaded p99 {loaded_p99 * 1000:.1f}ms exceeds "
        f"{ceiling * 1000:.1f}ms (idle p99 {idle_p99 * 1000:.1f}ms)"
    )


def test_fresh_page_after_small_batch_is_delta_priced():
    """Acceptance: first page at a new version <= 0.35x a cold build of it."""
    edges = random_edges(NODES, EDGES, seed=2024)
    present = set(edges)
    fresh_edges = [
        edge for edge in random_edges(NODES, EDGES + 200, seed=2025)
        if edge not in present
    ]
    database = Database(build_transitive_closure_program(edges))
    ratios = []
    try:
        conn = database.connect()
        conn.session.enable_snapshots()
        conn.query_snapshot("path").take(FRESH_PAGE)  # the one cold build
        for round_index in range(FRESH_ROUNDS):
            batch = fresh_edges[round_index * FRESH_BATCH_EDGES:
                                (round_index + 1) * FRESH_BATCH_EDGES]
            conn.apply(inserts={"edge": batch})

            started = time.perf_counter()
            derived = conn.query_snapshot("path").take(FRESH_PAGE)
            derived_s = time.perf_counter() - started

            started = time.perf_counter()
            cold = conn.query("path").take(FRESH_PAGE)
            cold_s = time.perf_counter() - started

            assert derived == cold
            ratios.append(derived_s / cold_s)
        views = {
            key: value for key, value in database.metrics().items()
            if key.startswith("ordered_views_total")
        }
    finally:
        database.close()
    assert views == {
        "ordered_views_total{how=sorted,reason=no-base}": 1,
        "ordered_views_total{how=merged}": FRESH_ROUNDS,
    }, views
    ratio = percentile(ratios, 0.5)
    assert ratio <= FRESH_RATIO_CEILING, (
        f"first page after an {FRESH_BATCH_EDGES}-edge batch costs "
        f"{ratio:.2f}x a cold build (ceiling {FRESH_RATIO_CEILING}); "
        f"per-round ratios {[round(r, 2) for r in ratios]}"
    )


def _recv_exactly(sock, size):
    buffer = bytearray(size)
    view, filled = memoryview(buffer), 0
    while filled < size:
        received = sock.recv_into(view[filled:])
        assert received, "server closed mid-frame"
        filled += received
    return bytes(buffer)


def _raw_full_read(sock, message_id):
    """One unbounded read over a raw socket: the frame exactly as written."""
    sock.sendall(encode_frame(
        {"op": "query", "relation": "path", "id": message_id}
    ))
    prefix = _recv_exactly(sock, 4)
    return prefix + _recv_exactly(sock, int.from_bytes(prefix, "big"))


def test_full_read_is_served_from_encoded_bytes():
    """Acceptance: a memoised full read costs the server <= 0.1x the
    reference encoding, runs no collection, and writes identical bytes."""
    database = Database(build_transitive_closure_program(
        random_edges(NODES, EDGES, seed=2024)
    ))
    dispatches = []  # (seconds, collections) per request, server side
    try:
        with ServerThread(database) as thread:
            server = thread.server
            dispatch = server._dispatch

            async def observed(*args):
                before = sum(g["collections"] for g in gc.get_stats())
                started = time.perf_counter()
                try:
                    return await dispatch(*args)
                finally:
                    dispatches.append((
                        time.perf_counter() - started,
                        sum(g["collections"] for g in gc.get_stats())
                        - before,
                    ))

            server._dispatch = observed
            with socket.create_connection((thread.host, thread.port)) as sock:
                frames = [
                    _raw_full_read(sock, message_id)
                    for message_id in range(1 + FULL_ROUNDS)
                ]
            metrics = server.metrics.snapshot()

            result = server.conn.query_snapshot("path")
            try:
                references = []
                for message_id in range(1 + FULL_ROUNDS):
                    started = time.perf_counter()
                    reference = encode_frame({
                        "ok": True, "relation": "path",
                        "rows": jsonify_rows(result.rows()),
                        "count": result.count(),
                        "snapshot_version": result.snapshot_version,
                        "id": message_id,
                    })
                    references.append(time.perf_counter() - started)
                    assert frames[message_id] == reference, (
                        f"read {message_id} differs from the reference bytes"
                    )
                rows = result.count()
            finally:
                result.release()
    finally:
        database.close()

    assert metrics["server_rows_served_total{how=fragments}"] == rows
    assert metrics["server_rows_served_total{how=memo}"] == FULL_ROUNDS * rows
    memoised = dispatches[1:]
    collections = [count for _, count in memoised]
    assert collections == [0] * FULL_ROUNDS, (
        f"the collector ran during memoised full reads: {collections}"
    )
    served_s = percentile([seconds for seconds, _ in memoised], 0.5)
    reference_s = percentile(references[1:], 0.5)
    assert served_s <= FULL_RATIO_CEILING * reference_s, (
        f"a memoised full read of {rows} rows costs the server "
        f"{served_s * 1000:.2f}ms, {served_s / reference_s:.3f}x the "
        f"reference encoding ({reference_s * 1000:.1f}ms; ceiling "
        f"{FULL_RATIO_CEILING})"
    )
