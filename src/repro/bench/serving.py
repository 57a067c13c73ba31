"""Serving benchmark: N concurrent clients against the query server.

Not a paper figure — this measures the repository's serving layer
(:mod:`repro.server`): a transitive-closure database behind a
:class:`~repro.server.runtime.ServerThread`, loaded by ``clients``
concurrent wire clients issuing a mixed read/write workload:

* ``90/10`` — 90% snapshot reads of ``path``, 10% single-edge inserts;
* ``50/50`` — half and half, the writer-heavy stress case.

Reads are MVCC snapshot reads (they never block behind the writer's
fixpoint); writes funnel through the single-writer mutation queue.  Each
row reports wall-clock ``seconds`` for the whole run, aggregate
``ops_per_sec`` and the client-observed ``p50_ms``/``p99_ms`` request
latency.  ``errors`` counts structured error responses (0 under the
default block policy; the backpressure benches in ``tests/server``
exercise reject/shed).  ``fresh_page_ms`` is the wire latency of the first
page read at a new snapshot version, right after an 8-edge batch — the one
read that has to order the relation, which it does by merging the batch's
delta into the previous version's order (median of three batches).
``full_read_ms`` is the wire latency of an unbounded read of ``path`` that
the server answers from its per-version encoded body (median of three,
after one read that builds it): the socket write and this client's own
``json.loads``, with no per-row work left on the server.

:func:`run_mixed_load` is the reusable load generator — the smoke script
and the ``benchmarks/bench_serving.py`` acceptance gate drive it too.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analyses.micro import build_transitive_closure_program
from repro.api.database import Database
from repro.server.client import AsyncClient, BlockingClient, ServerError
from repro.server.runtime import ServerThread
from repro.workloads.graphs import random_edges

SERVING_COLUMNS = (
    "workload", "clients", "mix", "requests", "seconds", "ops_per_sec",
    "p50_ms", "p99_ms", "fresh_page_ms", "full_read_ms", "errors",
)

#: Full scale matches the telemetry/incremental benches' 10k-edge closure.
TC_EDGES, TC_NODES = 10_000, 12_000
QUICK_EDGES, QUICK_NODES = 2_000, 2_400

CLIENT_COUNTS: Tuple[int, ...] = (1, 8, 32)
QUICK_CLIENT_COUNTS: Tuple[int, ...] = (1, 8)

#: ``mix`` label -> fraction of requests that are writes.
MIXES: Tuple[Tuple[str, float], ...] = (("90/10", 0.10), ("50/50", 0.50))

#: Fresh write targets start far above any workload node id, so every
#: insert is a genuinely new edge (forces real mutation work per write).
WRITE_NODE_BASE = 10_000_000
#: The fresh-page probe's batches: chains of fresh nodes above every writer's.
FRESH_NODE_BASE = 1_000_000_000
FRESH_BATCH_EDGES = 8
FRESH_ROUNDS = 3


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The ``fraction`` quantile by nearest-rank (samples need not be sorted)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


async def _client_load(
    host: str,
    port: int,
    client_id: int,
    requests: int,
    write_ratio: float,
    read_relation: str,
    write_relation: str,
    read_limit: Optional[int],
    latencies: List[float],
    errors: List[int],
) -> None:
    rng = random.Random(7_000 + client_id)
    client = await AsyncClient.connect(host, port)
    try:
        for index in range(requests):
            started = time.perf_counter()
            try:
                if rng.random() < write_ratio:
                    source = WRITE_NODE_BASE + client_id * 1_000_000 + index
                    await client.insert(write_relation, [(source, source + 1)])
                else:
                    await client.request({
                        "op": "query", "relation": read_relation,
                        "limit": read_limit,
                    })
            except ServerError:
                errors[0] += 1
            latencies.append(time.perf_counter() - started)
    finally:
        await client.close()


async def _run_clients(
    host: str, port: int, clients: int, requests: int, write_ratio: float,
    read_relation: str, write_relation: str, read_limit: Optional[int],
) -> Tuple[List[float], int]:
    latencies: List[float] = []
    errors = [0]
    await asyncio.gather(*(
        _client_load(
            host, port, client_id, requests, write_ratio,
            read_relation, write_relation, read_limit, latencies, errors,
        )
        for client_id in range(clients)
    ))
    return latencies, errors[0]


def run_mixed_load(
    host: str,
    port: int,
    clients: int,
    requests_per_client: int,
    write_ratio: float,
    read_relation: str = "path",
    write_relation: str = "edge",
    read_limit: Optional[int] = 32,
) -> Dict[str, object]:
    """Drive one mixed read/write load against a running server.

    Returns ``{"latencies": [...], "errors": N, "seconds": wall}`` — the
    latencies are per-request wall times in seconds, across all clients.
    """
    started = time.perf_counter()
    latencies, errors = asyncio.run(_run_clients(
        host, port, clients, requests_per_client, write_ratio,
        read_relation, write_relation, read_limit,
    ))
    return {
        "latencies": latencies,
        "errors": errors,
        "seconds": time.perf_counter() - started,
    }


def fresh_page_ms(host: str, port: int, cell: int,
                  read_relation: str = "path", write_relation: str = "edge",
                  read_limit: int = 32) -> float:
    """Median wire latency (ms) of the first page read after a small batch.

    ``cell`` keeps the inserted chains distinct across calls on one server.
    """
    samples = []
    with BlockingClient(host, port) as client:
        for round_index in range(FRESH_ROUNDS):
            start = FRESH_NODE_BASE + (
                (cell * FRESH_ROUNDS + round_index) * (FRESH_BATCH_EDGES + 1)
            )
            client.insert(write_relation, [
                (start + step, start + step + 1)
                for step in range(FRESH_BATCH_EDGES)
            ])
            started = time.perf_counter()
            client.request({
                "op": "query", "relation": read_relation, "limit": read_limit,
            })
            samples.append(time.perf_counter() - started)
    return percentile(samples, 0.5) * 1_000


def full_read_ms(host: str, port: int, read_relation: str = "path") -> float:
    """Median wire latency (ms) of a full read served from the encoded memo."""
    samples = []
    with BlockingClient(host, port) as client:
        client.query_response(read_relation)  # builds the body at this version
        for _ in range(FRESH_ROUNDS):
            started = time.perf_counter()
            client.query_response(read_relation)
            samples.append(time.perf_counter() - started)
    return percentile(samples, 0.5) * 1_000


def run_serving(
    repeat: int = 1,
    quick: bool = False,
    client_counts: Optional[Sequence[int]] = None,
    requests_per_client: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Benchmark rows: one per (clients, mix) pair.

    ``repeat`` keeps its harness meaning (best-of-N rounds per cell).
    """
    if quick:
        edge_count, nodes = QUICK_EDGES, QUICK_NODES
        counts = QUICK_CLIENT_COUNTS if client_counts is None else client_counts
        per_client = 40 if requests_per_client is None else requests_per_client
    else:
        edge_count, nodes = TC_EDGES, TC_NODES
        counts = CLIENT_COUNTS if client_counts is None else client_counts
        per_client = 60 if requests_per_client is None else requests_per_client
    workload = f"tc_{edge_count // 1000}k"

    rows: List[Dict[str, object]] = []
    program = build_transitive_closure_program(
        random_edges(nodes, edge_count, seed=2024)
    )
    database = Database(program)
    try:
        with ServerThread(database) as server:
            for clients in counts:
                for mix, write_ratio in MIXES:
                    best: Optional[Dict[str, object]] = None
                    for _ in range(max(1, repeat)):
                        outcome = run_mixed_load(
                            server.host, server.port, clients,
                            per_client, write_ratio,
                        )
                        if best is None or outcome["seconds"] < best["seconds"]:
                            best = outcome
                    latencies = best["latencies"]
                    total = len(latencies)
                    seconds = best["seconds"]
                    rows.append({
                        "workload": workload,
                        "clients": clients,
                        "mix": mix,
                        "requests": total,
                        "seconds": seconds,
                        "ops_per_sec": total / seconds if seconds else 0.0,
                        "p50_ms": percentile(latencies, 0.50) * 1_000,
                        "p99_ms": percentile(latencies, 0.99) * 1_000,
                        "fresh_page_ms": fresh_page_ms(
                            server.host, server.port, cell=len(rows)
                        ),
                        "full_read_ms": full_read_ms(
                            server.host, server.port
                        ),
                        "errors": best["errors"],
                    })
    finally:
        database.close()
    return rows
