"""Figs. 6 & 7: speedup of JIT configurations over the "unoptimized" input.

For each benchmark the baseline is the interpreted evaluation of the
*worst-ordered* ("unoptimized") program formulation; every JIT configuration
also runs on that same worst-ordered program (no help from the user), while
"Hand-Optimized" runs the interpreter on the hand-optimized formulation.
Fig. 6 covers the macrobenchmarks, Fig. 7 the microbenchmarks, each measured
both with and without indexes.  Every row also names each configuration's
executor and whether all of them computed the baseline's result size.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analyses.ordering import Ordering
from repro.analyses.registry import MACRO_BENCHMARKS, MICRO_BENCHMARKS
from repro.bench.configurations import jit_configurations
from repro.bench.measurement import agreement, measure_benchmark, speedup
from repro.core.config import EngineConfig


def _speedups_over_unoptimized(benchmarks: Sequence[str], use_indexes: bool,
                               repeat: int = 1) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for name in benchmarks:
        baseline_config = EngineConfig.interpreted(use_indexes)
        baseline = measure_benchmark(name, baseline_config, Ordering.WORST, repeat=repeat)
        row: Dict[str, object] = {
            "benchmark": name,
            "indexes": "indexed" if use_indexes else "unindexed",
            "baseline_seconds": baseline.seconds,
        }
        hand = measure_benchmark(name, baseline_config, Ordering.OPTIMIZED, repeat=repeat)
        row["Hand-Optimized"] = speedup(baseline.seconds, hand.seconds)
        runs = [(baseline_config, baseline), (baseline_config, hand)]
        for label, config in jit_configurations(use_indexes):
            measured = measure_benchmark(name, config, Ordering.WORST, repeat=repeat)
            row[label] = speedup(baseline.seconds, measured.seconds)
            runs.append((config, measured))
        row.update(agreement(runs))
        rows.append(row)
    return rows


def run_fig6(benchmarks: Optional[Sequence[str]] = None, repeat: int = 1,
             include_unindexed: bool = True) -> List[Dict[str, object]]:
    """Macrobenchmark speedups over the unoptimized interpreted baseline."""
    names = list(benchmarks) if benchmarks is not None else list(MACRO_BENCHMARKS)
    rows = _speedups_over_unoptimized(names, use_indexes=True, repeat=repeat)
    if include_unindexed:
        rows += _speedups_over_unoptimized(names, use_indexes=False, repeat=repeat)
    return rows


def run_fig7(benchmarks: Optional[Sequence[str]] = None, repeat: int = 1,
             include_unindexed: bool = True) -> List[Dict[str, object]]:
    """Microbenchmark speedups over the unoptimized interpreted baseline."""
    names = list(benchmarks) if benchmarks is not None else list(MICRO_BENCHMARKS)
    rows = _speedups_over_unoptimized(names, use_indexes=True, repeat=repeat)
    if include_unindexed:
        rows += _speedups_over_unoptimized(names, use_indexes=False, repeat=repeat)
    return rows


FIG67_COLUMNS = (
    "benchmark", "indexes", "baseline_seconds", "Hand-Optimized",
    "JIT IRGenerator", "JIT Lambda Blocking", "JIT Bytecode Async",
    "JIT Bytecode Blocking", "JIT Quotes Async", "JIT Quotes Blocking",
    "executor", "equal",
)
