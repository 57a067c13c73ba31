"""Measurement primitives shared by every table/figure driver."""

from __future__ import annotations

import gc
import math
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analyses.ordering import Ordering
from repro.analyses.registry import BenchmarkSpec, get_benchmark
from repro.core.config import EngineConfig
from repro.datalog.program import DatalogProgram
from repro.engine.engine import ExecutionEngine


@dataclass
class MeasurementResult:
    """One measured evaluation of one benchmark under one configuration."""

    benchmark: str
    configuration: str
    ordering: str
    seconds: float
    result_size: int
    iterations: int
    compilations: int
    compile_seconds: float
    runs: int = 1

    def as_row(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "configuration": self.configuration,
            "ordering": self.ordering,
            "seconds": self.seconds,
            "result_size": self.result_size,
            "iterations": self.iterations,
            "compilations": self.compilations,
            "compile_seconds": self.compile_seconds,
        }


def measure_program(program: DatalogProgram, config: EngineConfig,
                    query_relation: str, benchmark: str = "",
                    ordering: str = "", repeat: int = 1) -> MeasurementResult:
    """Evaluate ``program`` ``repeat`` times; report the mean evaluation time.

    Every repetition builds a fresh engine over a copy of the program so that
    no derived state leaks between runs (the paper's JMH setup similarly
    re-evaluates from scratch per measurement iteration).  Each repetition
    drops its engine and results once the counters are read: a result set
    holds its engine, so keeping either alive into the next repetition
    would keep the whole previous storage reachable for its collections to
    walk.
    """
    times: List[float] = []
    result_size = 0
    iterations = 0
    compilations = 0
    compile_seconds = 0.0
    for _ in range(max(1, repeat)):
        engine = ExecutionEngine(program.copy(), config)
        results = engine.evaluate()
        times.append(engine.profile.wall_seconds)
        result_size = results[query_relation].count()
        iterations = engine.profile.iteration_count()
        compilations = len(engine.profile.compile_events)
        compile_seconds = engine.profile.total_compile_seconds()
        del engine, results
    return MeasurementResult(
        benchmark=benchmark,
        configuration=config.describe(),
        ordering=ordering,
        seconds=sum(times) / len(times),
        result_size=result_size,
        iterations=iterations,
        compilations=compilations,
        compile_seconds=compile_seconds,
        runs=len(times),
    )


def measure_benchmark(name: str, config: EngineConfig,
                      ordering: "Ordering | str" = Ordering.WRITTEN,
                      repeat: int = 1) -> MeasurementResult:
    """Build the named benchmark in the given ordering and measure it."""
    spec: BenchmarkSpec = get_benchmark(name)
    program = spec.build(ordering)
    return measure_program(
        program, config, spec.query_relation,
        benchmark=name, ordering=Ordering(ordering).value, repeat=repeat,
    )


def agreement(runs: Sequence[Tuple[EngineConfig, MeasurementResult]]
              ) -> Dict[str, object]:
    """The ``executor`` and ``equal`` columns of one paper-figure row.

    ``runs`` pairs each configuration of the row with its measurement, the
    baseline first.  ``executor`` lists every configuration's executor in
    that order; ``equal`` says whether every ``result_size`` matches the
    baseline's, so a configuration that computes a different fixpoint
    cannot read as a speed-up.
    """
    baseline = runs[0][1].result_size
    return {
        "executor": ",".join(config.executor for config, _ in runs),
        "equal": all(result.result_size == baseline for _, result in runs),
    }


def speedup(baseline_seconds: float, seconds: float) -> float:
    """Speedup of ``seconds`` relative to ``baseline_seconds`` (>1 is faster)."""
    if seconds <= 0:
        return math.inf
    return baseline_seconds / seconds


@dataclass
class MemoryMeasurement:
    """One tracemalloc-based memory measurement of a callable.

    ``retained_bytes`` is what the call's result graph keeps alive after
    transient allocations are released (measured current-minus-baseline
    after a full gc pass) — for a storage load, the resident footprint of
    the loaded database.  ``peak_bytes`` is the tracemalloc high-water mark
    over the call, relative to the same baseline.
    """

    retained_bytes: int
    peak_bytes: int

    def retained_mb(self) -> float:
        return self.retained_bytes / (1024 * 1024)

    def peak_mb(self) -> float:
        return self.peak_bytes / (1024 * 1024)


#: Absolute high-water marks observed by in-flight :func:`measure_memory`
#: calls, innermost last.  A nested call must ``reset_peak`` to isolate its
#: own measurement, which clobbers the enclosing call's high-water mark —
#: so each call hands its observed absolute peak up one level on exit.
_active_peaks: List[int] = []


def measure_memory(fn: Callable[[], Any]) -> Tuple[Any, MemoryMeasurement]:
    """Run ``fn`` under ``tracemalloc``; returns ``(result, measurement)``.

    Used by the ``interning`` bench section to compare the resident
    footprint of raw-object versus dictionary-encoded storage: the builder
    should create its inputs *inside* ``fn`` (as an ingest pipeline would)
    so that only what the result retains is charged to it.  tracemalloc
    only sees Python-level allocations, but every structure being compared
    (tuples, sets, dicts, strings, symbol tables) allocates through it, so
    the *ratio* between two measurements is meaningful even though absolute
    numbers undercount interpreter overhead.  Calls nest: an inner
    measurement propagates its peak outward, so the outer ``peak_bytes``
    still covers the whole window despite the inner ``reset_peak``.
    """
    gc.collect()
    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    _active_peaks.append(0)
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = fn()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        nested_peak = _active_peaks.pop()
        if not already_tracing:
            tracemalloc.stop()
    peak = max(peak, nested_peak)
    if _active_peaks:
        _active_peaks[-1] = max(_active_peaks[-1], peak)
    return result, MemoryMeasurement(
        retained_bytes=max(0, current - baseline),
        peak_bytes=max(0, peak - baseline),
    )
