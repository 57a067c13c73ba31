"""Figs. 8 & 9: speedup (or slowdown) over the hand-optimized program.

Here every configuration — including the JIT — runs on the *hand-optimized*
formulation, and the baseline is its interpreted evaluation; values below 1
mean the JIT's overhead degraded an already-good program, which is the risk
§VI-B2 quantifies.  Fig. 8 covers the macrobenchmarks (including CSDA),
Fig. 9 the microbenchmarks.  Every row also names each configuration's
executor and whether all of them computed the baseline's result size.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analyses.ordering import Ordering
from repro.analyses.registry import MACRO_BENCHMARKS_WITH_CSDA, MICRO_BENCHMARKS
from repro.bench.configurations import jit_configurations
from repro.bench.measurement import agreement, measure_benchmark, speedup
from repro.core.config import EngineConfig


def _speedups_over_optimized(benchmarks: Sequence[str], use_indexes: bool,
                             repeat: int = 1) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for name in benchmarks:
        baseline_config = EngineConfig.interpreted(use_indexes)
        baseline = measure_benchmark(name, baseline_config, Ordering.OPTIMIZED, repeat=repeat)
        row: Dict[str, object] = {
            "benchmark": name,
            "indexes": "indexed" if use_indexes else "unindexed",
            "baseline_seconds": baseline.seconds,
        }
        runs = [(baseline_config, baseline)]
        for label, config in jit_configurations(use_indexes):
            measured = measure_benchmark(name, config, Ordering.OPTIMIZED, repeat=repeat)
            row[label] = speedup(baseline.seconds, measured.seconds)
            runs.append((config, measured))
        row.update(agreement(runs))
        rows.append(row)
    return rows


def run_fig8(benchmarks: Optional[Sequence[str]] = None, repeat: int = 1,
             include_unindexed: bool = True) -> List[Dict[str, object]]:
    """Macrobenchmark speedups over the hand-optimized interpreted baseline."""
    names = (
        list(benchmarks) if benchmarks is not None else list(MACRO_BENCHMARKS_WITH_CSDA)
    )
    rows = _speedups_over_optimized(names, use_indexes=True, repeat=repeat)
    if include_unindexed:
        unindexed_names = [n for n in names if n != "csda"]
        rows += _speedups_over_optimized(unindexed_names, use_indexes=False, repeat=repeat)
    return rows


def run_fig9(benchmarks: Optional[Sequence[str]] = None, repeat: int = 1,
             include_unindexed: bool = True) -> List[Dict[str, object]]:
    """Microbenchmark speedups over the hand-optimized interpreted baseline."""
    names = list(benchmarks) if benchmarks is not None else list(MICRO_BENCHMARKS)
    rows = _speedups_over_optimized(names, use_indexes=True, repeat=repeat)
    if include_unindexed:
        rows += _speedups_over_optimized(names, use_indexes=False, repeat=repeat)
    return rows


FIG89_COLUMNS = (
    "benchmark", "indexes", "baseline_seconds",
    "JIT IRGenerator", "JIT Lambda Blocking", "JIT Bytecode Async",
    "JIT Bytecode Blocking", "JIT Quotes Async", "JIT Quotes Blocking",
    "executor", "equal",
)
