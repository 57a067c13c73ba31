"""Dictionary-encoded storage: speedup, memory and exactness acceptance.

Not a paper figure — this benchmarks the global symbol-interning layer
(:mod:`repro.relational.symbols`) and enforces its headline guarantees
against the raw-object engine (``EngineConfig(interning=False)`` — exactly
the PR-4 vectorized baseline, kept alive as the differential oracle):

* ``test_interning_speedup_on_tc`` — the dictionary-encoded engine must
  beat the raw-object engine by at least 1.5x on the 10k-edge symbolic
  transitive closure (composite context-sensitive entity keys, ~7M-row
  fixpoint — the memory-bound regime interning exists for), with decoded
  results bit-for-bit equal.  Measured ~1.7-2.0x on a single-core CI box.
* ``test_interning_speedup_on_cspa`` — the same gate on the symbolic CSPA
  pointer analysis (the paper's Fig. 1 program over context-sensitive
  variable keys).
* ``test_interning_memory_on_load`` — loading the streamed 10k-edge
  symbolic fact set must retain (and peak) at least 2x less memory under
  dictionary encoding than with raw objects: every distinct key is stored
  once, in the symbol table, instead of once per occurrence.  Measured
  ~3.5x retained.
* ``test_interned_results_bitwise_equal_across_modes`` — decoded results
  equal the raw oracle across execution modes (the
  property suite covers randomized programs; this pins a full workload).

These are deliberately long-running acceptance gates (tens of seconds per
measurement): run them via ``scripts/smoke.sh --full`` or directly with
``PYTHONPATH=src python -m pytest benchmarks/bench_interning.py``.
"""

import pytest

from repro.analyses.micro import build_transitive_closure_program
from repro.bench.interning import (
    cspa_workload,
    interned_config,
    measure_load_memory,
    raw_config,
    run_interning,
    symbolic_edges,
    tc_workload,
)
from repro.core.config import EngineConfig
from repro.engine.engine import ExecutionEngine
from repro.workloads.graphs import random_edges


def _speedup_gate(workload, floor: float) -> None:
    # One interleaved raw-then-interned round: the raw baseline runs on the
    # cooler machine, which can only understate the measured speedup.
    rows = run_interning(workloads=[workload], repeat=1)
    by_codec = {row["codec"]: row for row in rows if row["workload"] == workload[0]}
    interned = by_codec["interned"]
    assert interned["equal"], "decoded result diverged from the raw oracle"
    assert interned["speedup"] >= floor, (
        f"interned only {interned['speedup']:.2f}x faster than raw "
        f"({interned['seconds']:.3f}s vs {by_codec['raw']['seconds']:.3f}s)"
    )


def test_interning_speedup_on_tc():
    """Acceptance: >= 1.5x over the raw-object baseline on the 10k-edge TC."""
    _speedup_gate(tc_workload(), 1.5)


def test_interning_speedup_on_cspa():
    """Acceptance: >= 1.5x over the raw-object baseline on symbolic CSPA."""
    _speedup_gate(cspa_workload(), 1.5)


def test_interning_memory_on_load():
    """Acceptance: >= 2x lower retained and peak memory on the 10k-edge load."""
    raw_storage, raw_memory = measure_load_memory(False)
    raw_rows = raw_storage.cardinality("edge")
    del raw_storage
    interned_storage, interned_memory = measure_load_memory(True)
    assert interned_storage.cardinality("edge") == raw_rows
    del interned_storage
    retained_ratio = raw_memory.retained_bytes / interned_memory.retained_bytes
    peak_ratio = raw_memory.peak_bytes / interned_memory.peak_bytes
    assert retained_ratio >= 2.0, (
        f"retained only {retained_ratio:.2f}x lower "
        f"({raw_memory.retained_mb():.2f}MB vs {interned_memory.retained_mb():.2f}MB)"
    )
    assert peak_ratio >= 2.0, (
        f"peak only {peak_ratio:.2f}x lower "
        f"({raw_memory.peak_mb():.2f}MB vs {interned_memory.peak_mb():.2f}MB)"
    )


def test_interned_results_bitwise_equal_across_modes():
    """Every mode decodes to the raw oracle's exact fixpoint."""
    edges = symbolic_edges(random_edges(2_000, 1_500, seed=11))
    reference = ExecutionEngine(
        build_transitive_closure_program(edges),
        raw_config(),
    ).evaluate()["path"]
    bases = [
        EngineConfig.interpreted(),
        EngineConfig.jit("bytecode"),
        EngineConfig.jit("lambda"),
        EngineConfig.aot(),
    ]
    for base in bases:
        config = base.with_(executor="vectorized")
        engine = ExecutionEngine(build_transitive_closure_program(edges), config)
        assert engine.evaluate()["path"] == reference, (
            f"{config.describe()} diverged"
        )


@pytest.mark.parametrize("codec", ["raw", "interned"])
def test_fixpoint_latency(benchmark, codec):
    edges = symbolic_edges(random_edges(3_000, 2_000, seed=2024))
    config = raw_config() if codec == "raw" else interned_config()

    def evaluate():
        return ExecutionEngine(
            build_transitive_closure_program(edges), config
        ).evaluate()

    benchmark.pedantic(evaluate, rounds=1, iterations=1)
