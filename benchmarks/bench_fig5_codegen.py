"""Fig. 5: execution time of code generation per IROp granularity.

Times one backend invocation per (backend, granularity, mode) cell over the
CSPA program's sub-queries — the quantity Fig. 5 plots for the quotes
target.  Both backends compile the same block kernels; quotes ``compile()``s
each comprehension's text, while the Bytecode backend (full-mode cells only)
compiles a syntax tree parsed once per text: the cheaper "skip the front
end" path.
"""

import pytest

from repro.analyses.ordering import Ordering
from repro.analyses.registry import get_benchmark
from repro.bench.fig5 import _plan_groups
from repro.core.backends import BytecodeBackend, QuotesBackend
from repro.core.config import EngineConfig
from repro.engine.engine import ExecutionEngine


@pytest.fixture(scope="module")
def cspa_plans():
    spec = get_benchmark("cspa_tiny")
    engine = ExecutionEngine(spec.build(Ordering.WRITTEN), EngineConfig.interpreted())
    return engine.storage, _plan_groups(engine.tree)


GRANULARITIES = ["JoinProjectOp", "UnionOp", "RelationUnionOp", "ProgramOp"]


@pytest.mark.parametrize("granularity", GRANULARITIES)
@pytest.mark.parametrize("backend_name", ["quotes", "bytecode"])
def test_fig5_codegen_full(benchmark, cspa_plans, granularity, backend_name):
    storage, groups = cspa_plans
    plans = groups[granularity]
    backend = QuotesBackend() if backend_name == "quotes" else BytecodeBackend()

    def compile_once():
        return backend.compile_plans(plans, storage).compile_seconds

    benchmark(compile_once)


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_fig5_codegen_snippet(benchmark, cspa_plans, granularity):
    storage, groups = cspa_plans
    plans = groups[granularity]
    backend = QuotesBackend()
    continuations = [lambda s: set() for _ in plans]

    def compile_once():
        artifact = backend.compile_plans(
            plans, storage, mode="snippet", continuations=continuations,
        )
        return artifact.compile_seconds

    benchmark(compile_once)
