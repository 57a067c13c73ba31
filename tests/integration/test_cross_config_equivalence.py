"""Integration tests: every execution strategy agrees on every workload.

This is the repository's strongest end-to-end guarantee: the adaptive JIT
(all four backends, blocking and asynchronous, all granularities), the
ahead-of-time optimizer and the baseline engines all compute exactly the same
fixpoints as the plain interpreter on the paper's benchmark programs — the
optimization only ever changes *how fast* the answer arrives.  JIT
configurations interpret on block kernels by default; two of them also run
with the tuple-at-a-time executor as an oracle.
"""

import pytest

from repro.analyses import Ordering
from repro.analyses.registry import get_benchmark
from repro.baselines import DLXLikeEngine, SouffleLikeEngine
from repro.core.config import AOTSortMode, CompilationGranularity, EngineConfig
from repro.engine.engine import ExecutionEngine

# Workloads kept intentionally small so the whole matrix stays fast.
WORKLOADS = ["fibonacci", "ackermann", "cspa_tiny", "andersen", "inverse_functions", "csda"]

CONFIGS = [
    EngineConfig.interpreted(),
    EngineConfig.jit("irgen"),
    EngineConfig.jit("lambda"),
    EngineConfig.jit("quotes"),
    EngineConfig.jit("bytecode"),
    EngineConfig.jit("lambda", granularity=CompilationGranularity.JOIN),
    EngineConfig.jit("quotes", asynchronous=True),
    EngineConfig.aot(sort=AOTSortMode.FACTS_AND_RULES, online=True),
    # The JIT's interpreted stages tuple at a time: the oracle its default
    # (block-kernel) interpretation is held to.
    EngineConfig.jit("lambda").with_(executor="pushdown"),
    EngineConfig.jit("quotes", asynchronous=True).with_(executor="pushdown"),
]


@pytest.fixture(scope="module")
def reference_results():
    results = {}
    for name in WORKLOADS:
        spec = get_benchmark(name)
        engine = ExecutionEngine(spec.build(Ordering.WRITTEN), EngineConfig.interpreted())
        results[name] = engine.evaluate()[spec.query_relation]
    return results


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("config", CONFIGS[1:], ids=lambda c: c.describe())
def test_configuration_matches_interpreter(name, config, reference_results):
    spec = get_benchmark(name)
    engine = ExecutionEngine(spec.build(Ordering.WRITTEN), config)
    assert engine.evaluate()[spec.query_relation] == reference_results[name]


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("ordering", [Ordering.OPTIMIZED, Ordering.WORST])
def test_orderings_match_reference_under_jit(name, ordering, reference_results):
    spec = get_benchmark(name)
    engine = ExecutionEngine(spec.build(ordering), EngineConfig.jit("lambda"))
    assert engine.evaluate()[spec.query_relation] == reference_results[name]


@pytest.mark.parametrize("name", ["fibonacci", "andersen", "csda"])
def test_baselines_match_reference(name, reference_results):
    spec = get_benchmark(name)
    souffle = SouffleLikeEngine(mode="auto-tuned", toolchain_seconds=0.0)
    result = souffle.run(spec.build())
    assert result.relations[spec.query_relation] == reference_results[name]
    dlx = DLXLikeEngine().run(spec.build())
    assert dlx.relations[spec.query_relation] == reference_results[name]
