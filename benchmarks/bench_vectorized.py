"""Vectorized execution: speedup and exact-equivalence acceptance.

Not a paper figure — this benchmarks the vectorized batch execution layer
and enforces its headline guarantees:

* ``test_vectorized_speedup_at_10k_edges`` —
  ``EngineConfig.with_(executor="vectorized")`` must beat the pushdown
  (tuple-at-a-time) executor by at least 3x on the 10k-edge
  transitive-closure workload in interpreted mode, with bit-for-bit equal
  results.  Measured ~6x on a single-core CI box.
* ``test_vectorized_speedup_on_cspa`` — the same gate on the CSPA pointer
  analysis (the paper's Fig. 1 program; three mutually recursive
  relations).  Measured ~10x: CSPA's self-joins are exactly the shape the
  batch hash-join was built for.
* ``test_jit_backend_tracks_vectorized_interpreter`` — lambda, quotes and
  bytecode artifacts are the interpreter's own block kernels stitched at
  compile time (the backends differ only in how each comprehension's text
  becomes code), so on hand-optimised plans each JIT backend may cost at
  most 1.25x the interpreted+vectorized time (reordering, freshness tests
  and its compiler invocations are all it adds), bit-for-bit equal.  Both
  sides interpret with the vectorized
  executor: the seed stage is never compiled, and under the default
  pushdown interpreter its 10k-row scan alone is ~16 ms of the closure's
  ~65 ms (that configuration is the ``jit-lambda``/``pushdown`` trajectory
  row of ``python -m repro.bench --only vectorized``; this gate is its
  ``jit-lambda``/``vectorized`` neighbour).
* ``test_duplicate_heavy_join_is_distinct_priced`` — a count gate, so
  deterministic: on the ledger's CSPA (605 tuples, hand-optimised order),
  whose joins derive every head row ~9 times over, the kernels hand their
  head projections at most 1.5 candidate rows per row returned (measured
  1.00; the composed itemgetter/probe/concatenate kernels before the
  generated comprehensions: 1 946 257 / 223 308 = 8.7), bit-for-bit equal
  to pushdown.  Duplicates collapse inside the join step that creates
  them, not in a ``set()`` pass over the materialised candidate list.
* ``test_vectorized_bitwise_equal_across_modes`` — vectorized results are
  bit-for-bit equal to pushdown results across execution modes (the differential property suite covers randomized programs;
  this pins the full-size workload).

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_vectorized.py
"""

import statistics

import pytest

from repro.analyses.cspa import build_cspa_program
from repro.analyses.micro import build_transitive_closure_program
from repro.analyses.ordering import Ordering
from repro.bench.vectorized import (
    _measure,
    cspa_workload,
    run_vectorized,
    tc_workload,
)
from repro.core.config import EngineConfig
from repro.engine.engine import ExecutionEngine
from repro.workloads.graphs import random_edges
from repro.workloads.program_facts import HttpdLikeGenerator

NODES_10K = 12_000
EDGES_10K = 10_000


def _speedup_gate(workload, floor: float) -> None:
    rows = run_vectorized(
        workloads=[workload],
        modes=[("interpreted", EngineConfig.interpreted)],
        repeat=3,
    )
    by_executor = {row["executor"]: row for row in rows}
    vectorized = by_executor["vectorized"]
    assert vectorized["equal"], "vectorized result diverged from pushdown"
    assert vectorized["speedup"] >= floor, (
        f"vectorized only {vectorized['speedup']:.2f}x faster than pushdown "
        f"({vectorized['seconds']:.3f}s vs "
        f"{by_executor['pushdown']['seconds']:.3f}s)"
    )


def test_vectorized_speedup_at_10k_edges():
    """Acceptance: >= 3x over pushdown on the 10k-edge closure, bit-for-bit."""
    _speedup_gate(tc_workload(edge_count=EDGES_10K, nodes=NODES_10K), 3.0)


def test_vectorized_speedup_on_cspa():
    """Acceptance: >= 3x over pushdown on CSPA (measured ~10x)."""
    _speedup_gate(cspa_workload("cspa_small"), 3.0)


#: Candidate rows per head row the duplicate-heavy gate tolerates.
CANDIDATE_CEILING = 1.5


def test_duplicate_heavy_join_is_distinct_priced():
    """Acceptance: <= 1.5 candidates per head row on the ledger's CSPA."""
    dataset = HttpdLikeGenerator(2024).cspa(605)

    def build_program():
        # The ledger's shape.  (``cspa_workload`` is the *written* order:
        # its surplus rows are cartesian intermediates, not duplicates.)
        return build_cspa_program(dataset, Ordering.OPTIMIZED)

    oracle = EngineConfig.interpreted().with_(executor="pushdown")
    _, reference, _ = _measure(build_program, "VAlias", oracle, 1)
    _, rows, profile = _measure(
        build_program, "VAlias", EngineConfig.interpreted(), 1
    )
    assert rows == reference, "vectorized result diverged from pushdown"
    ratio = profile.candidates_per_head_row()
    assert ratio is not None and ratio <= CANDIDATE_CEILING, (
        f"{profile.block_joins['candidates']} candidate rows for "
        f"{profile.block_joins['projected']} head rows ({ratio:.2f} per row)"
    )


#: Paired rounds of (interpreted+vectorized, jit-<backend>), timed back to
#: back so machine drift cancels inside each ratio; the gate takes the median.
JIT_ROUNDS = 5
JIT_CEILING = 1.25


@pytest.mark.parametrize("backend", ["lambda", "quotes", "bytecode"])
@pytest.mark.parametrize("workload", [
    tc_workload(edge_count=EDGES_10K, nodes=NODES_10K),
    cspa_workload("cspa_small"),
], ids=lambda workload: workload[0])
def test_jit_backend_tracks_vectorized_interpreter(workload, backend):
    """Acceptance: each JIT backend <= 1.25x interpreted+vectorized,
    bit-for-bit."""
    name, build_program, relation = workload
    interpreted = EngineConfig.interpreted().with_(executor="vectorized")
    compiled = EngineConfig.jit(backend).with_(executor="vectorized")
    _measure(build_program, relation, interpreted, 1)  # warm-up, untimed
    ratios = []
    for _ in range(JIT_ROUNDS):
        base_seconds, base_rows, _ = _measure(build_program, relation, interpreted, 1)
        jit_seconds, jit_rows, _ = _measure(build_program, relation, compiled, 1)
        assert jit_rows == base_rows, f"{backend} artifacts diverged from the interpreter"
        ratios.append(jit_seconds / base_seconds)
    ratio = statistics.median(ratios)
    assert ratio <= JIT_CEILING, (
        f"jit-{backend} {ratio:.2f}x interpreted+vectorized on {name} "
        f"(median of {[f'{r:.2f}' for r in ratios]})"
    )


def test_vectorized_bitwise_equal_across_modes():
    """Every mode computes the identical fixpoint."""
    edges = random_edges(2_000, 1_500, seed=11)
    reference = ExecutionEngine(
        build_transitive_closure_program(edges),
        EngineConfig.interpreted().with_(executor="pushdown"),
    ).evaluate()["path"]
    configs = [
        EngineConfig.interpreted(),
        EngineConfig.jit("bytecode"),
        EngineConfig.jit("lambda"),
        EngineConfig.aot(),
    ]
    for config in configs:
        engine = ExecutionEngine(build_transitive_closure_program(edges), config)
        assert engine.evaluate()["path"] == reference, (
            f"{config.describe()} diverged"
        )


@pytest.fixture(scope="module")
def tc_10k_edges():
    return random_edges(NODES_10K, EDGES_10K, seed=2024)


@pytest.mark.parametrize("executor", ["pushdown", "vectorized"])
def test_fixpoint_latency(benchmark, tc_10k_edges, executor):
    def evaluate():
        return ExecutionEngine(
            build_transitive_closure_program(tc_10k_edges),
            EngineConfig.interpreted().with_(executor=executor),
        ).evaluate()

    benchmark.pedantic(evaluate, rounds=1, iterations=1)
