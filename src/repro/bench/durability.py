"""Durability benchmark: WAL append cost and warm-restart speedup.

Not a paper figure — this measures the repository's durability subsystem
(:mod:`repro.durability`) on the transitive-closure workload the
incremental and serving benches use:

* ``cold_seconds`` — time from ``Database(...)`` on a *fresh* durability
  directory to the first ``path`` query: the full initial fixpoint.
* ``apply_p50_ms`` — median latency of a durable single-edge mutation
  batch (engine propagation + WAL append under the row's fsync policy).
* ``wal_mb`` — bytes the mutation phase appended to the log.
* ``warm_seconds`` — time from ``Database(...)`` over the *closed*
  directory (clean close collapses the WAL into a checkpoint) to the
  same first query: checkpoint install, no re-evaluation.
* ``restart_speedup`` — ``cold_seconds / warm_seconds``; the acceptance
  gate in ``benchmarks/bench_durability.py`` requires >= 10x at the
  10k-edge scale.
* ``parse_ms`` / ``boot_ms`` — the two fixed costs in front of every
  served start, policy-independent (every row repeats them):
  ``parse_program`` on the workload as Datalog *text*, and ``python -c
  "import repro.server"`` in a fresh interpreter.

One row per fsync policy: ``off`` isolates the engine+encoding cost,
``batch`` adds group-commit syncing (the server's default), ``always``
pays one fsync per batch.
"""

from __future__ import annotations

import gc
import os
import shutil
import subprocess
import sys
import tempfile
import time
import timeit
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analyses.micro import build_transitive_closure_program
from repro.api.database import Database
from repro.bench.serving import percentile
from repro.datalog.parser import parse_program
from repro.durability import DurabilityConfig
from repro.workloads.graphs import random_edges

DURABILITY_COLUMNS = (
    "workload", "fsync", "rows", "cold_seconds", "apply_p50_ms",
    "wal_mb", "warm_seconds", "restart_speedup", "parse_ms", "boot_ms",
)

TC_EDGES, TC_NODES = 10_000, 12_000
QUICK_EDGES, QUICK_NODES = 2_000, 2_400

POLICIES: Tuple[str, ...] = ("off", "batch", "always")
QUICK_POLICIES: Tuple[str, ...] = ("batch",)

#: Mutation batches per measured run; fresh node ids so every batch does
#: real incremental work and allocates fresh symbols for its WAL record.
MUTATION_BATCHES = 20
WRITE_NODE_BASE = 50_000_000


def tc_source(edges: Iterable[Tuple[int, int]]) -> str:
    """Transitive closure over ``edges`` as the text a server is started on."""
    lines = ["path(X, Y) :- edge(X, Y).", "path(X, Z) :- path(X, Y), edge(Y, Z)."]
    lines.extend(f"edge({a}, {b})." for a, b in edges)
    return "\n".join(lines) + "\n"


def _import_server_in_a_fresh_interpreter() -> None:
    subprocess.run(
        [sys.executable, "-c", "import repro.server"], check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )


def _measure_lifecycle(
    program_edges,
    directory: str,
    fsync: str,
    batches: int,
) -> Dict[str, float]:
    """One full durable lifecycle in ``directory``: cold start, mutate,
    clean close, warm restart.  Returns the raw measurements."""
    config = DurabilityConfig(dir=directory, fsync=fsync)

    gc.collect()  # keep prior lifecycles' garbage out of the timed region
    started = time.perf_counter()
    database = Database(
        build_transitive_closure_program(program_edges),
        durability=config,
    )
    conn = database.connect()
    rows = conn.query("path").count()
    cold_seconds = time.perf_counter() - started

    apply_latencies: List[float] = []
    for index in range(batches):
        source = WRITE_NODE_BASE + index
        batch_started = time.perf_counter()
        conn.apply(inserts={"edge": [(source, source + 1)]})
        apply_latencies.append(time.perf_counter() - batch_started)
    wal_bytes = conn.durability.stats()["wal_bytes"]
    database.close()  # clean close: checkpoint + WAL rotation

    # Two warm reopens, keeping the faster: a single 50ms measurement is
    # at the mercy of scheduler noise, and each reopen-close leaves the
    # directory exactly as warm as it found it.
    warm_seconds = float("inf")
    for _ in range(2):
        gc.collect()
        started = time.perf_counter()
        database = Database(
            build_transitive_closure_program(program_edges),
            durability=config,
        )
        conn = database.connect()
        warm_rows = conn.query("path").count()
        warm_seconds = min(warm_seconds, time.perf_counter() - started)
        recovery = conn.durability.last_recovery
        database.close()
        assert recovery is not None and recovery.warm, "restart was not warm"
    assert warm_rows >= rows, "recovered fixpoint lost rows"
    return {
        "rows": warm_rows,
        "cold_seconds": cold_seconds,
        "apply_p50_ms": percentile(apply_latencies, 0.50) * 1_000,
        "wal_mb": wal_bytes / (1024 * 1024),
        "warm_seconds": warm_seconds,
    }


def run_durability(
    repeat: int = 1,
    quick: bool = False,
    policies: Optional[Sequence[str]] = None,
) -> List[Dict[str, object]]:
    """Benchmark rows: one per fsync policy (best-of-``repeat`` rounds)."""
    if quick:
        edge_count, nodes = QUICK_EDGES, QUICK_NODES
        selected = QUICK_POLICIES if policies is None else policies
    else:
        edge_count, nodes = TC_EDGES, TC_NODES
        selected = POLICIES if policies is None else policies
    workload = f"tc_{edge_count // 1000}k"
    edges = random_edges(nodes, edge_count, seed=2024)

    source = tc_source(edges)
    parse_ms, boot_ms = (
        min(timeit.repeat(action, number=1, repeat=3)) * 1_000
        for action in (lambda: parse_program(source),
                       _import_server_in_a_fresh_interpreter)
    )

    rows: List[Dict[str, object]] = []
    for fsync in selected:
        # Field-wise minimum across rounds: each timing is an independent
        # noise-contaminated sample of a fixed true cost, so the minimum
        # is the least-contaminated estimate of each (standard
        # min-timing), and the speedup ratio is computed from the two
        # stable minima rather than one arbitrary pairing.
        best: Optional[Dict[str, float]] = None
        for _ in range(max(1, repeat)):
            base = tempfile.mkdtemp(prefix="repro-bench-durability-")
            try:
                outcome = _measure_lifecycle(
                    edges, os.path.join(base, "dur"), fsync,
                    MUTATION_BATCHES,
                )
            finally:
                shutil.rmtree(base, ignore_errors=True)
            if best is None:
                best = outcome
            else:
                for field in (
                    "cold_seconds", "apply_p50_ms", "warm_seconds",
                ):
                    best[field] = min(best[field], outcome[field])
        rows.append({
            "workload": workload,
            "fsync": fsync,
            "rows": int(best["rows"]),
            "cold_seconds": best["cold_seconds"],
            "apply_p50_ms": best["apply_p50_ms"],
            "wal_mb": best["wal_mb"],
            "warm_seconds": best["warm_seconds"],
            "restart_speedup": (
                best["cold_seconds"] / best["warm_seconds"]
                if best["warm_seconds"] else 0.0
            ),
            "parse_ms": parse_ms,
            "boot_ms": boot_ms,
        })
    return rows
