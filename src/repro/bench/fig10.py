"""Fig. 10: ahead-of-time ("macro") versus online compilation.

Five configurations over the microbenchmarks, all reported as speedup over
the unoptimized interpreted baseline: the JIT-lambda configuration at the
lowest granularity (no information before execution), and the four macro
combinations of {facts+rules, rules-only} × {with, without} the online
IRGenerator re-sorter.  Every row also names each configuration's executor
and whether all of them computed the baseline's result size.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analyses.ordering import Ordering
from repro.analyses.registry import MICRO_BENCHMARKS
from repro.bench.configurations import fig10_configurations
from repro.bench.measurement import agreement, measure_benchmark, speedup
from repro.core.config import EngineConfig


def run_fig10(benchmarks: Optional[Sequence[str]] = None, repeat: int = 1,
              use_indexes: bool = True) -> List[Dict[str, object]]:
    """Measure the Fig. 10 configurations; one row per benchmark."""
    names = list(benchmarks) if benchmarks is not None else list(MICRO_BENCHMARKS)
    rows: List[Dict[str, object]] = []
    for name in names:
        baseline_config = EngineConfig.interpreted(use_indexes)
        baseline = measure_benchmark(name, baseline_config, Ordering.WORST, repeat=repeat)
        row: Dict[str, object] = {
            "benchmark": name,
            "baseline_seconds": baseline.seconds,
        }
        runs = [(baseline_config, baseline)]
        for label, config in fig10_configurations(use_indexes):
            measured = measure_benchmark(name, config, Ordering.WORST, repeat=repeat)
            row[label] = speedup(baseline.seconds, measured.seconds)
            runs.append((config, measured))
        row.update(agreement(runs))
        rows.append(row)
    return rows


FIG10_COLUMNS = (
    "benchmark", "baseline_seconds", "JIT-lambda",
    "Macro Facts+rules (online)", "Macro Rules (online)",
    "Macro Facts+rules", "Macro Rules", "executor", "equal",
)
