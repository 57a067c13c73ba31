"""Governance overhead benchmark: governed vs ungoverned evaluation.

Not a paper figure — this measures the repository's resilience layer
(:mod:`repro.resilience`): the same 10k-edge transitive-closure fixpoint
evaluated two ways:

``off``
    ``EngineConfig.limits`` left ``None`` — the seed behaviour; every
    governance site resolves to the shared no-op governor.
``governed``
    A :class:`~repro.resilience.QueryLimits` with every bound set far
    beyond what the workload needs — a real :class:`QueryGovernor` runs
    its deadline/row/round checks at every stratum and iteration boundary
    without ever tripping.  This is the cost of *enforcing* limits; the
    acceptance gate (``benchmarks/bench_resilience.py``) holds it within
    2% of ``off``.

``overhead`` is the variant's best time over the ``off`` best time
(interleaved rounds, GC disabled — the same discipline as the telemetry
bench); ``equal`` asserts the governed result set is bit-for-bit the bare
one.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analyses.micro import build_transitive_closure_program
from repro.api.database import Database
from repro.core.config import EngineConfig
from repro.resilience import QueryLimits
from repro.workloads.graphs import random_edges

RESILIENCE_COLUMNS = (
    "workload", "governance", "seconds", "overhead", "equal",
)

#: The acceptance scale: the telemetry bench's 10k-edge reachability graph
#: (12k nodes keeps the closure sparse enough to converge quickly while
#: still crossing thousands of governance checkpoints per run).
TC_EDGES, TC_NODES = 10_000, 12_000
QUICK_EDGES, QUICK_NODES = 2_000, 2_400

#: Variant order matters: ``off`` is the baseline the other divides by.
VARIANTS: Tuple[str, ...] = ("off", "governed")

#: Every bound set, none remotely reachable: the governor runs all of its
#: checks, the workload never trips one.
GENEROUS_LIMITS = QueryLimits(
    deadline_seconds=3600.0,
    max_rows=10**12,
    max_rounds=10**9,
    max_result_bytes=10**15,
)


def tc_workload(edge_count: int = TC_EDGES, nodes: int = TC_NODES,
                seed: int = 2024) -> Tuple[str, Callable, str]:
    edges = random_edges(nodes, edge_count, seed=seed)
    return (
        f"tc_{edge_count // 1000}k",
        lambda: build_transitive_closure_program(edges),
        "path",
    )


def variant_config(variant: str) -> EngineConfig:
    """The engine configuration of one governance variant.

    Both share the vectorized interpreted engine — the executor with the
    densest round structure and so the most governance checkpoints per
    second of work.
    """
    base = EngineConfig.interpreted()
    if variant == "off":
        return base
    if variant == "governed":
        return base.with_(limits=GENEROUS_LIMITS)
    raise ValueError(f"unknown governance variant {variant!r}")


def _measure_once(build_program: Callable, relation: str,
                  config: EngineConfig) -> Tuple[float, Set]:
    """One evaluation through the public one-shot path."""
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
    return seconds, rows


def measure_variants(build_program: Callable, relation: str, repeat: int,
                     ) -> Dict[str, Tuple[float, Set]]:
    """Best-of-``repeat`` per variant, with interleaved rounds.

    Each round measures every variant back-to-back so machine drift hits
    them alike instead of biasing whichever ran later.
    """
    best: Dict[str, Tuple[float, Set]] = {}
    for _ in range(max(1, repeat)):
        for variant in VARIANTS:
            seconds, rows = _measure_once(
                build_program, relation, variant_config(variant)
            )
            if variant not in best or seconds < best[variant][0]:
                best[variant] = (seconds, rows)
    return best


def overhead_samples(build_program: Callable, relation: str, rounds: int,
                     ) -> Tuple[List[float], bool]:
    """Per-round governed/ungoverned ratios (plus result equality).

    Each round times the two variants back-to-back, so slow machine drift
    (thermal, background load) cancels inside the ratio; the acceptance
    gate takes the median across rounds, which this workload holds far
    tighter than a best-of comparison of independently-noisy minima.  One
    untimed warm-up evaluation absorbs first-touch effects.
    """
    _measure_once(build_program, relation, variant_config("off"))
    ratios: List[float] = []
    equal = True
    for _ in range(max(1, rounds)):
        off_seconds, off_rows = _measure_once(
            build_program, relation, variant_config("off")
        )
        governed_seconds, governed_rows = _measure_once(
            build_program, relation, variant_config("governed")
        )
        ratios.append(governed_seconds / off_seconds)
        equal = equal and governed_rows == off_rows
    return ratios, equal


def run_resilience(
    workloads: Optional[Sequence[Tuple[str, Callable, str]]] = None,
    repeat: int = 1,
    quick: bool = False,
) -> List[Dict[str, object]]:
    """Benchmark rows: one per (workload, governance-variant) pair."""
    if workloads is None:
        if quick:
            workloads = [tc_workload(edge_count=QUICK_EDGES, nodes=QUICK_NODES)]
        else:
            workloads = [tc_workload()]

    rows: List[Dict[str, object]] = []
    for workload, build_program, relation in workloads:
        best = measure_variants(build_program, relation, repeat)
        base_seconds, base_rows = best["off"]
        for variant in VARIANTS:
            seconds, result_rows = best[variant]
            rows.append({
                "workload": workload,
                "governance": variant,
                "seconds": seconds,
                "overhead": (
                    seconds / base_seconds if base_seconds else float("inf")
                ),
                "equal": result_rows == base_rows,
            })
    return rows
