"""Incremental sessions: update latency vs. full recompute.

Not a paper figure — this benchmarks the service-shaped evaluation layer:
an :class:`~repro.incremental.IncrementalSession` absorbing mutation batches
against rebuilding an :class:`~repro.engine.engine.ExecutionEngine` per
change.  ``test_single_batch_speedup_at_10k_edges`` also enforces the
subsystem's headline guarantee: on a reachability workload of ≥ 10k edges a
single incremental batch must beat a full recompute by at least 5×, and
``test_heavy_retract_is_cone_priced`` that a retraction's re-derivation
costs what its deletion cone costs (both DRed phases are set-at-a-time
over the same rows), not a per-row search of the database.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_incremental.py
"""

import pytest

from repro.analyses.micro import build_transitive_closure_program
from repro.bench.incremental import heavy_retract_batches, run_incremental
from repro.core.config import EngineConfig
from repro.incremental import IncrementalSession
from repro.workloads.graphs import random_edges

NODES_10K = 12_000
EDGES_10K = 10_000


@pytest.fixture(scope="module")
def tc_10k_session():
    edges = random_edges(NODES_10K, EDGES_10K, seed=2024)
    session = IncrementalSession(build_transitive_closure_program(edges), EngineConfig.interpreted())
    session.refresh()
    return session, edges


def test_insert_batch_latency(benchmark, tc_10k_session):
    session, _ = tc_10k_session
    fresh = iter([(NODES_10K + i, i % NODES_10K) for i in range(10_000)])

    def one_batch():
        session.insert_facts("edge", [next(fresh) for _ in range(10)])

    benchmark.pedantic(one_batch, rounds=3, iterations=1)


def test_retract_batch_latency(benchmark, tc_10k_session):
    session, edges = tc_10k_session
    victims = iter(edges)

    def one_batch():
        session.retract_facts("edge", [next(victims) for _ in range(10)])

    benchmark.pedantic(one_batch, rounds=3, iterations=1)


def test_full_recompute_baseline(benchmark):
    edges = random_edges(NODES_10K, EDGES_10K, seed=2024)

    def recompute():
        from repro.engine.engine import ExecutionEngine
        return ExecutionEngine(
            build_transitive_closure_program(edges), EngineConfig.interpreted()
        ).evaluate()

    benchmark.pedantic(recompute, rounds=1, iterations=1)


def test_single_batch_speedup_at_10k_edges():
    """Acceptance: ≥ 5× faster than full recompute on ≥ 10k edges."""
    rows = run_incremental(
        scales=[("tc_10k", NODES_10K, EDGES_10K)], batches=3, batch_size=10
    )
    row = rows[0]
    assert row["edges"] >= 10_000
    assert row["speedup"] >= 5.0, (
        f"incremental mixed batch only {row['speedup']:.1f}x faster than "
        f"recompute ({row['mixed_batch_s']:.4f}s vs {row['full_recompute_s']:.4f}s)"
    )


@pytest.mark.parametrize("executor", ["pushdown", "vectorized"])
def test_heavy_retract_is_cone_priced(executor):
    """Acceptance: re-derivation ≤ 3× over-deletion on cones of ≥ 300 rows.

    Five batches retract the eight edges most paths run through.  Both
    DRed phases are set-at-a-time sub-queries over the same cone, so their
    costs stay within a small factor of each other under either executor
    (per-row re-derivation read 14× under pushdown and 51× under the block
    kernels); ``heavy_retract_batches`` also checks the end state against a
    recompute.
    """
    rows = heavy_retract_batches(
        NODES_10K, EDGES_10K, batches=5, batch_size=8,
        config=EngineConfig.interpreted().with_(executor=executor),
    )
    assert len(rows) == 5
    assert all(row["over_deleted"] >= 300 for row in rows), rows
    ratios = sorted(row["rederive_s"] / row["over_delete_s"] for row in rows)
    assert ratios[2] <= 3.0, (
        f"dred:rederive costs {ratios[2]:.1f}x dred:over-delete "
        f"(median of five batches): {rows}"
    )
