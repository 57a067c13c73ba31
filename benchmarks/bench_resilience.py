"""Governance overhead: the resilience layer's acceptance gate.

Not a paper figure — this benchmarks the resilience layer
(:mod:`repro.resilience`) and enforces its headline guarantee: lifecycle
governance is pay-for-what-you-use.

* ``test_governed_overhead_at_10k_edges`` — with a :class:`QueryLimits`
  whose every bound is set (but generous enough never to trip), the
  10k-edge transitive closure must run within 2% of the bare
  (``limits=None``) engine.  A real :class:`QueryGovernor` runs its
  deadline/row/round checks at every stratum and iteration boundary; this
  gate pins that enforcing limits is effectively free — so governance can
  default-on in a server without a performance conversation.

* ``test_deadline_bounds_latency_on_every_configuration`` — a
  deadline-governed query over an unbounded-growth program comes back as a
  typed :class:`DeadlineExceeded` within 2x the deadline on every executor
  x shard configuration.  A wall-clock bound, so it lives here and not in
  tier-1 (where ``tests/resilience/test_governance.py`` keeps the
  machine-independent half: typed error, fewer rounds than ungoverned,
  session usable afterwards).  The same bound at 4x holds for lambda-JIT
  block kernels on the 10k-edge closure (``..._inside_compiled_iterations``).

The overhead gate compares the *median of per-round ratios*: each round times the
two variants back-to-back (GC disabled), so slow machine drift cancels
inside each ratio instead of biasing whichever variant ran later.  Run via
``scripts/smoke.sh --full`` or directly with
``PYTHONPATH=src python -m pytest benchmarks/bench_resilience.py``.
"""

import statistics
import time

import pytest

from repro import Database, DeadlineExceeded, EngineConfig, QueryLimits
from repro.analyses.micro import build_transitive_closure_program
from repro.bench.resilience import overhead_samples, tc_workload

#: Paired rounds; the gate takes the median ratio to suppress CI jitter.
ROUNDS = 7

GOVERNED_CEILING = 1.02

#: A cycle: the closure is all n^2 pairs, seconds of work ungoverned.
SLOW_EDGES = [(i, i + 1) for i in range(600)] + [(600, 0)]
DEADLINE = 0.05


def test_governed_overhead_at_10k_edges():
    """Acceptance: an armed-but-untripped governor costs <= 2% on 10k-edge TC."""
    name, build_program, relation = tc_workload()
    ratios, equal = overhead_samples(build_program, relation, rounds=ROUNDS)
    assert equal, "governance changed the result set"
    overhead = statistics.median(ratios)
    assert overhead <= GOVERNED_CEILING, (
        f"governance overhead {overhead:.3f}x (median of "
        f"{[f'{r:.3f}' for r in ratios]}) on {name}"
    )


def abort_seconds(program, config):
    """Wall time from a deadline-governed query to its typed abort."""
    with Database(program, config) as database:
        with database.connect() as conn:
            started = time.perf_counter()
            with pytest.raises(DeadlineExceeded):
                conn.query(
                    "path", limits=QueryLimits(deadline_seconds=DEADLINE)
                )
            return time.perf_counter() - started


@pytest.mark.parametrize("shards", (1, 4))
@pytest.mark.parametrize("executor", ("pushdown", "vectorized"))
def test_deadline_bounds_latency_on_every_configuration(executor, shards):
    """Acceptance: a 50 ms deadline aborts within 100 ms, typed."""
    config = EngineConfig(executor=executor)
    if shards > 1:
        config = EngineConfig.parallel(shards=shards, base=config)
    elapsed = abort_seconds(
        build_transitive_closure_program(SLOW_EDGES), config
    )
    assert elapsed < 2 * DEADLINE, (
        f"abort took {elapsed * 1000:.1f}ms against a "
        f"{DEADLINE * 1000:.0f}ms deadline"
    )


def test_deadline_bounds_latency_inside_compiled_iterations():
    """Acceptance: lambda-JIT block kernels poll the governor too — the
    10k-edge closure aborts within 4x a 50 ms deadline."""
    _, build_program, _ = tc_workload()
    elapsed = abort_seconds(build_program(), EngineConfig.jit("lambda"))
    assert elapsed < 4 * DEADLINE, (
        f"abort took {elapsed * 1000:.1f}ms against a "
        f"{DEADLINE * 1000:.0f}ms deadline"
    )
