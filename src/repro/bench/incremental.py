"""Incremental-update benchmark: session update latency vs. full recompute.

Not a figure from the paper — this measures the subsystem the paper's
storage split enables: a long-lived :class:`~repro.incremental.IncrementalSession`
absorbing batched mutations, against the single-shot baseline of rebuilding
an :class:`~repro.engine.engine.ExecutionEngine` and re-running the fixpoint
after every batch.  Reported per workload scale:

* ``full_recompute_s`` — one from-scratch evaluation of the current facts.
* ``insert_batch_s`` / ``retract_batch_s`` / ``mixed_batch_s`` — mean
  incremental latency of one batch of each kind.
* ``speedup`` — full recompute over the mean mixed-batch latency.
* ``retract_heavy_ms`` — mean latency of the retraction *tail*: five
  batches of the eight edges most paths run through (cones of hundreds of
  rows; see :func:`heavy_retract_batches`).
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analyses.micro import build_transitive_closure_program
from repro.core.config import EngineConfig
from repro.engine.engine import ExecutionEngine
from repro.incremental import IncrementalSession
from repro.workloads.streaming import UpdateStream, edge_update_stream

INCREMENTAL_COLUMNS = (
    "workload", "edges", "derived", "full_recompute_s",
    "insert_batch_s", "retract_batch_s", "mixed_batch_s", "speedup",
    "retract_heavy_ms",
)


def _timed_recompute(edges: Sequence[Tuple[object, ...]],
                     config: EngineConfig) -> Tuple[float, int]:
    started = time.perf_counter()
    engine = ExecutionEngine(build_transitive_closure_program(edges), config)
    results = engine.evaluate()
    return time.perf_counter() - started, len(results["path"])


def _mean_batch_seconds(session: IncrementalSession, stream: UpdateStream) -> float:
    timings = [
        session.apply(inserts=batch.inserts, retracts=batch.retracts).seconds
        for batch in stream
    ]
    return sum(timings) / len(timings) if timings else 0.0


def heavy_retract_batches(
    nodes: int,
    edge_count: int,
    batches: int = 5,
    batch_size: int = 8,
    config: Optional[EngineConfig] = None,
    seed: int = 2024,
) -> List[Dict[str, object]]:
    """Retract the edges most paths run through; one row per batch.

    The victims are the ``batches * batch_size`` edges ``(u, v)`` with the
    most ``path`` rows through them (ancestors of ``u`` × descendants of
    ``v``), so every batch has a deletion cone of hundreds of rows — the
    tail of a retraction stream, where DRed's two phases dominate.  Each
    row carries the batch's wall time, its cone, the two phases' span
    durations, and the end state is checked against a recompute.
    """
    from repro.telemetry import tracing

    config = (config or EngineConfig.interpreted()).with_(telemetry=tracing())
    edges = edge_update_stream(
        nodes=nodes, initial_edges=edge_count, batches=0, batch_size=0, seed=seed,
    ).initial["edge"]
    session = IncrementalSession(build_transitive_closure_program(edges), config)
    paths = session.fetch("path")
    into = Counter(target for _, target in paths)
    out_of = Counter(source for source, _ in paths)
    victims = sorted(
        edges, key=lambda e: -(into[e[0]] + 1) * (out_of[e[1]] + 1)
    )[: batches * batch_size]

    rows: List[Dict[str, object]] = []
    for start in range(0, len(victims), batch_size):
        report = session.retract_facts("edge", victims[start:start + batch_size])
        phases = {
            span.name: span.duration_ns / 1e9 for span in session.last_trace.spans
        }
        rows.append({
            "seconds": report.seconds,
            "over_deleted": report.over_deleted,
            "rederived": report.rederived,
            "over_delete_s": phases["dred:over-delete"],
            "rederive_s": phases["dred:rederive"],
        })
    session.self_check()
    return rows


def run_incremental(
    scales: Optional[Sequence[Tuple[str, int, int]]] = None,
    batches: int = 5,
    batch_size: int = 10,
    config: Optional[EngineConfig] = None,
    seed: int = 2024,
) -> List[Dict[str, object]]:
    """Benchmark rows comparing incremental update latency to full recompute.

    ``scales`` is a list of (label, nodes, edges) graph sizes; the default
    covers a small and a 10k-edge graph (the acceptance scale).  Per scale,
    the session absorbs three chained update streams — insert-only
    (``retract_fraction=0``), retract-only (``1``) and mixed (``0.5``) — of
    ``batches`` batches each, ``batch_size`` mutations per batch.
    """
    if scales is None:
        scales = [("tc_2k", 3_000, 2_000), ("tc_10k", 12_000, 10_000)]
    config = config or EngineConfig.interpreted()

    rows: List[Dict[str, object]] = []
    for label, nodes, edge_count in scales:
        warm = edge_update_stream(
            nodes=nodes, initial_edges=edge_count, batches=0, batch_size=0,
            seed=seed,
        )
        session = IncrementalSession(
            build_transitive_closure_program(warm.initial["edge"]), config
        )
        session.refresh()
        full_seconds, derived = _timed_recompute(warm.initial["edge"], config)

        phases: List[float] = []
        live = warm.initial["edge"]
        for phase_index, fraction in enumerate((0.0, 1.0, 0.5)):
            stream = edge_update_stream(
                nodes=nodes, batches=batches, batch_size=batch_size,
                retract_fraction=fraction, seed=seed + phase_index + 1,
                start_edges=live,
            )
            phases.append(_mean_batch_seconds(session, stream))
            live = sorted(stream.live_after()["edge"])

        mixed_s = phases[2]
        heavy = heavy_retract_batches(nodes, edge_count, config=config, seed=seed)
        rows.append({
            "workload": label,
            "edges": edge_count,
            "derived": derived,
            "full_recompute_s": full_seconds,
            "insert_batch_s": phases[0],
            "retract_batch_s": phases[1],
            "mixed_batch_s": mixed_s,
            "speedup": (full_seconds / mixed_s) if mixed_s else float("inf"),
            "retract_heavy_ms": 1e3 * sum(r["seconds"] for r in heavy) / len(heavy),
        })
    return rows
