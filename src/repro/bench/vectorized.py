"""Vectorized-executor benchmark: batch vs tuple-at-a-time sub-queries.

Not a paper figure — this measures the repository's vectorized batch
execution layer (:mod:`repro.relational.operators`): the same program and
facts evaluated with the ``pushdown`` executor (the tuple-at-a-time binding
recursion, which doubles as the correctness oracle) and with
``EngineConfig.with_(executor="vectorized")``, per workload and execution
mode, with bit-for-bit equality of the result sets verified per row.  The
vectorized rows also report ``candidate_ratio``: rows the kernels handed to
their head projections per row those returned — a count, so deterministic —
which stays near 1 as long as duplicate derivations collapse inside the
join steps instead of travelling to the end of the plan.

Workloads are the two acceptance benches: the 10k-edge transitive closure
(the shared yardstick of the incremental and parallel subsystems) and the
CSPA pointer analysis (three mutually recursive relations — the paper's
Fig. 1 program).
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analyses.cspa import build_cspa_program
from repro.analyses.micro import build_transitive_closure_program
from repro.core.config import EngineConfig
from repro.core.profile import RuntimeProfile
from repro.engine.engine import ExecutionEngine
from repro.workloads.datasets import get_dataset
from repro.workloads.graphs import random_edges

VECTORIZED_COLUMNS = (
    "workload", "mode", "executor", "seconds", "speedup", "equal",
    "candidate_ratio",
)

#: (label, base-configuration factory) per benchmarked execution mode.
DEFAULT_MODES: Tuple[Tuple[str, object], ...] = (
    ("interpreted", EngineConfig.interpreted),
    ("jit-lambda", lambda: EngineConfig.jit("lambda")),
    ("aot-facts", EngineConfig.aot),
)


def tc_workload(edge_count: int = 10_000, nodes: int = 12_000,
                seed: int = 2024) -> Tuple[str, Callable, str]:
    edges = random_edges(nodes, edge_count, seed=seed)
    return (
        f"tc_{edge_count // 1000}k",
        lambda: build_transitive_closure_program(edges),
        "path",
    )


def cspa_workload(scale: str = "cspa_small") -> Tuple[str, Callable, str]:
    dataset = get_dataset(scale)
    return (scale, lambda: build_cspa_program(dataset), "VAlias")


def _measure(build_program: Callable, relation: str, config: EngineConfig,
             repeat: int) -> Tuple[float, Set[Tuple[object, ...]], RuntimeProfile]:
    """Best-of-``repeat`` seconds, the rows, and that run's profile."""
    best_seconds = float("inf")
    result: Set[Tuple[object, ...]] = set()
    profile = RuntimeProfile()
    for _ in range(max(1, repeat)):
        program = build_program()
        # The executor comparison allocates millions of short-lived tuples;
        # collector pauses would otherwise dominate the shorter (vectorized)
        # runs and turn the speedup ratio into noise.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            engine = ExecutionEngine(program, config)
            rows = engine.evaluate()[relation]
            seconds = time.perf_counter() - started
        finally:
            if gc_was_enabled:
                gc.enable()
        if seconds < best_seconds:
            best_seconds = seconds
            result = rows.to_set()
            profile = engine.profile
    return best_seconds, result, profile


def run_vectorized(
    workloads: Optional[Sequence[Tuple[str, Callable, str]]] = None,
    modes: Optional[Sequence[Tuple[str, object]]] = None,
    repeat: int = 1,
    quick: bool = False,
) -> List[Dict[str, object]]:
    """Benchmark rows: pushdown vs vectorized per workload and mode.

    Each mode contributes two rows; the vectorized row's ``speedup`` reads
    "batch executor over the tuple-at-a-time oracle" and ``equal`` asserts
    the result sets are bit-for-bit identical.  ``quick`` shrinks to a
    2k-edge closure and the tiny CSPA dataset, interpreted mode only — the
    CI smoke configuration.
    """
    if workloads is None:
        if quick:
            workloads = [tc_workload(edge_count=2_000, nodes=3_000),
                         cspa_workload("cspa_tiny")]
        else:
            workloads = [tc_workload(), cspa_workload()]
    if modes is None:
        modes = DEFAULT_MODES[:1] if quick else DEFAULT_MODES

    rows: List[Dict[str, object]] = []
    for workload, build_program, relation in workloads:
        for label, base_factory in modes:
            base = base_factory()
            pushdown_seconds, pushdown_rows, _ = _measure(
                build_program, relation, base.with_(executor="pushdown"), repeat
            )
            vectorized_seconds, vectorized_rows, profile = _measure(
                build_program, relation,
                base.with_(executor="vectorized"), repeat,
            )
            rows.append({
                "workload": workload, "mode": label, "executor": "pushdown",
                "seconds": pushdown_seconds, "speedup": 1.0, "equal": True,
                "candidate_ratio": None,
            })
            rows.append({
                "workload": workload, "mode": label, "executor": "vectorized",
                "seconds": vectorized_seconds,
                "speedup": (
                    pushdown_seconds / vectorized_seconds
                    if vectorized_seconds else float("inf")
                ),
                "equal": vectorized_rows == pushdown_rows,
                "candidate_ratio": profile.candidates_per_head_row(),
            })
    return rows
