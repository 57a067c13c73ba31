"""Telemetry overhead benchmark: traced vs no-op vs bare evaluation.

Not a paper figure — this measures the repository's observability layer
(:mod:`repro.telemetry`): the same 10k-edge transitive-closure fixpoint
evaluated three ways:

``off``
    ``EngineConfig.telemetry`` left ``None`` — the seed behaviour, no
    telemetry objects anywhere.
``noop``
    A :class:`~repro.telemetry.TelemetryConfig` with ``enabled=False`` —
    every instrumentation site runs, but resolves to the shared no-op
    tracer.  This is the cost of *having* the hooks; the acceptance gate
    (``benchmarks/bench_telemetry.py``) holds it within 2% of ``off``.
``traced``
    Full tracing into a ring-buffer sink plus a live metrics registry —
    real spans for every stratum, iteration and vectorized operator.  The
    gate holds this within 10% of ``off``.

``overhead`` is the variant's best time over the ``off`` best time
(interleaved rounds, GC disabled — the same discipline as the interning
bench); ``spans`` is the size of the captured trace and ``equal`` asserts
the traced result set is bit-for-bit the bare one.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analyses.micro import build_transitive_closure_program
from repro.api.database import Database
from repro.core.config import EngineConfig
from repro.telemetry import TelemetryConfig, tracing
from repro.workloads.graphs import random_edges

TELEMETRY_COLUMNS = (
    "workload", "telemetry", "seconds", "overhead", "spans", "equal",
)

#: The acceptance scale: the incremental bench's 10k-edge reachability
#: graph (12k nodes keeps the closure sparse enough to converge quickly
#: while still measuring thousands of operator invocations per run).
TC_EDGES, TC_NODES = 10_000, 12_000
QUICK_EDGES, QUICK_NODES = 2_000, 2_400

#: Variant order matters: ``off`` is the baseline the others divide by.
VARIANTS: Tuple[str, ...] = ("off", "noop", "traced")


def tc_workload(edge_count: int = TC_EDGES, nodes: int = TC_NODES,
                seed: int = 2024) -> Tuple[str, Callable, str]:
    edges = random_edges(nodes, edge_count, seed=seed)
    return (
        f"tc_{edge_count // 1000}k",
        lambda: build_transitive_closure_program(edges),
        "path",
    )


def variant_config(variant: str) -> EngineConfig:
    """The engine configuration of one telemetry variant.

    All three share the vectorized interpreted engine — the executor with
    the densest instrumentation (a span per operator application) and so
    the worst case for overhead.
    """
    base = EngineConfig.interpreted()
    if variant == "off":
        return base
    if variant == "noop":
        return base.with_(telemetry=TelemetryConfig(enabled=False))
    if variant == "traced":
        return base.with_(telemetry=tracing(ring=8))
    raise ValueError(f"unknown telemetry variant {variant!r}")


def _measure_once(build_program: Callable, relation: str,
                  config: EngineConfig) -> Tuple[float, Set, int]:
    """One evaluation through the public one-shot path; returns spans too."""
    program = build_program()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        database = Database(program, config)
        started = time.perf_counter()
        result = database.query(relation)
        rows = result.to_set()
        seconds = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    trace = result.trace()
    return seconds, rows, 0 if trace is None else len(trace)


def measure_variants(build_program: Callable, relation: str, repeat: int,
                     ) -> Dict[str, Tuple[float, Set, int]]:
    """Best-of-``repeat`` per variant, with interleaved rounds.

    Each round measures every variant back-to-back so machine drift hits
    them alike instead of biasing whichever ran later.
    """
    best: Dict[str, Tuple[float, Set, int]] = {}
    for _ in range(max(1, repeat)):
        for variant in VARIANTS:
            seconds, rows, spans = _measure_once(
                build_program, relation, variant_config(variant)
            )
            if variant not in best or seconds < best[variant][0]:
                best[variant] = (seconds, rows, spans)
    return best


def run_telemetry(
    workloads: Optional[Sequence[Tuple[str, Callable, str]]] = None,
    repeat: int = 1,
    quick: bool = False,
) -> List[Dict[str, object]]:
    """Benchmark rows: one per (workload, telemetry-variant) pair."""
    if workloads is None:
        if quick:
            workloads = [tc_workload(edge_count=QUICK_EDGES, nodes=QUICK_NODES)]
        else:
            workloads = [tc_workload()]

    rows: List[Dict[str, object]] = []
    for workload, build_program, relation in workloads:
        best = measure_variants(build_program, relation, repeat)
        base_seconds, base_rows, _ = best["off"]
        for variant in VARIANTS:
            seconds, result_rows, spans = best[variant]
            rows.append({
                "workload": workload,
                "telemetry": variant,
                "seconds": seconds,
                "overhead": (
                    seconds / base_seconds if base_seconds else float("inf")
                ),
                "spans": spans,
                "equal": result_rows == base_rows,
            })
    return rows
