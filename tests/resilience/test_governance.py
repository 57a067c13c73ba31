"""Query lifecycle governance through the engine: deadlines, caps, cancel.

The acceptance bar for the resilience layer: a deadline-governed query over
an unbounded-growth program must come back as a typed
:class:`DeadlineExceeded`, having run fewer fixpoint rounds than the
ungoverned evaluation, on *every* executor x shard configuration — and the
session must stay fully usable afterwards.  (That it comes back within 2x
the deadline is a wall-clock gate: ``benchmarks/bench_resilience.py``.)
"""

import threading
import time
from contextlib import contextmanager

import pytest

from repro import (
    Cancelled,
    CancellationToken,
    Database,
    DeadlineExceeded,
    EngineConfig,
    QueryLimits,
    ResourceExhausted,
)
from repro.analyses.micro import build_transitive_closure_program
from repro.resilience.limits import QueryGovernor

#: A cycle: the closure is all n^2 pairs, far more work than any deadline
#: below grants — evaluation is effectively unbounded growth.
SLOW_EDGES = [(i, i + 1) for i in range(600)] + [(600, 0)]

#: Small enough to finish instantly — the post-abort usability probe.
FAST_EDGES = [(1, 2), (2, 3), (3, 4)]
FAST_CLOSURE = {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)}

DEADLINE = 0.05

CONFIG_GRID = [
    pytest.param(executor, shards, id=f"{executor}-shards{shards}")
    for executor in ("pushdown", "vectorized")
    for shards in (1, 4)
]


def make_config(executor: str, shards: int) -> EngineConfig:
    config = EngineConfig(executor=executor)
    if shards > 1:
        config = EngineConfig.parallel(shards=shards, base=config)
    return config


@contextmanager
def counted_rounds():
    """Every fixpoint round begun inside the block, on any governor."""
    begun = []
    real = QueryGovernor.on_round

    def counting(self, promoted=0):
        begun.append(promoted)
        return real(self, promoted)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QueryGovernor, "on_round", counting)
        yield begun


@contextmanager
def expiring_after_round(n):
    """Counts rounds like :func:`counted_rounds`; the governor's deadline
    is moved into the past as soon as round boundary ``n`` is behind it."""
    with counted_rounds() as begun:
        counting = QueryGovernor.on_round

        def expiring(self, promoted=0):
            counting(self, promoted)
            if len(begun) == n:
                self.deadline = 0.0

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(QueryGovernor, "on_round", expiring)
            yield begun


class TestDeadline:
    # How *soon* the abort lands is a wall-clock bound and lives with the
    # other timing gates (benchmarks/bench_resilience.py); here only what
    # does not depend on the machine: the typed error, that the deadline cut
    # the fixpoint short, and that the session survives it.
    @pytest.mark.parametrize("executor,shards", CONFIG_GRID)
    def test_deadline_cuts_the_fixpoint_short_on_every_configuration(
        self, executor, shards
    ):
        database = Database(build_transitive_closure_program(SLOW_EDGES),
                            make_config(executor, shards))
        try:
            with database.connect() as conn:
                with counted_rounds() as governed:
                    with pytest.raises(DeadlineExceeded):
                        conn.query(
                            "path",
                            limits=QueryLimits(deadline_seconds=DEADLINE),
                        )
                # Usable afterwards: the abort mid-fixpoint left nothing
                # half-applied, and the same query under a bound that never
                # trips runs to the end ...
                with counted_rounds() as ungoverned:
                    result = conn.query(
                        "path", limits=QueryLimits(max_rounds=10**9)
                    )
                assert result.count() == len(SLOW_EDGES) ** 2
                # ... in more rounds than the deadline let through.
                assert len(governed) < len(ungoverned), (
                    f"{len(governed)} rounds ran under a "
                    f"{DEADLINE * 1000:.0f}ms deadline; the ungoverned "
                    f"fixpoint takes {len(ungoverned)}"
                )
        finally:
            database.close()

    @pytest.mark.parametrize("executor,shards", CONFIG_GRID)
    def test_session_recovers_to_ground_state_after_a_deadline(
        self, executor, shards
    ):
        database = Database(build_transitive_closure_program(FAST_EDGES),
                            make_config(executor, shards))
        try:
            with database.connect() as conn:
                # An impossible deadline aborts even this tiny program ...
                with pytest.raises(DeadlineExceeded):
                    conn.query(
                        "path", limits=QueryLimits(deadline_seconds=1e-9)
                    )
                # ... and the very next un-governed query is correct.
                assert set(conn.query("path").rows()) == FAST_CLOSURE
        finally:
            database.close()


class TestDeadlineInsideCompiledIterations:
    """Lambda artifacts are block kernels; each one polls the governor."""

    def test_deadline_aborts_a_jit_lambda_closure_and_leaves_storage_consistent(self):
        from repro.workloads.graphs import random_edges

        edges = random_edges(12_000, 10_000, seed=7)
        database = Database(build_transitive_closure_program(edges),
                            EngineConfig.jit("lambda"))
        try:
            with database.connect() as conn:
                # The deadline runs out right after the second round
                # boundary — made to, not timed, so this holds on any
                # machine — and must be noticed by a kernel of the third
                # round, not by the next boundary.  (How soon in wall time:
                # benchmarks/bench_resilience.py, 4x the deadline.)
                with expiring_after_round(2) as rounds:
                    with pytest.raises(DeadlineExceeded):
                        conn.query(
                            "path", limits=QueryLimits(deadline_seconds=3600)
                        )
                assert len(rounds) == 2
                # The abort left no half-applied fixpoint behind: the next
                # un-governed query agrees with from-scratch evaluation.
                rows = set(conn.query("path").rows())
                conn.self_check()
        finally:
            database.close()
        with Database(build_transitive_closure_program(edges)) as oracle:
            assert rows == set(oracle.query("path").rows())

    def test_a_kernel_checks_its_governor_before_touching_storage(self):
        from repro.datalog.literals import Atom
        from repro.datalog.terms import Variable
        from repro.relational.operators import (
            AtomSource,
            JoinPlan,
            lower_plan,
            new_block_stats,
        )
        from repro.relational.storage import DatabaseKind, StorageManager
        from repro.resilience.limits import governor_of

        x, y = Variable("x"), Variable("y")
        plan = JoinPlan("out", (x, y), (
            AtomSource(Atom("edge", (x, y)), DatabaseKind.DERIVED),
        ))
        token = CancellationToken()
        stats = new_block_stats()
        kernel = lower_plan(plan, governor=governor_of(token=token), stats=stats)
        storage = StorageManager()
        storage.declare("edge", 2)
        storage.insert_derived("edge", (1, 2))
        assert kernel(storage) == {(1, 2)}
        token.cancel()
        with pytest.raises(Cancelled):
            kernel(storage)
        assert stats["batches"] == 1


class TestResourceCaps:
    def test_max_rounds_aborts_unbounded_growth(self):
        database = Database(build_transitive_closure_program(SLOW_EDGES))
        try:
            with database.connect() as conn:
                with pytest.raises(ResourceExhausted) as excinfo:
                    conn.query("path", limits=QueryLimits(max_rounds=3))
                assert excinfo.value.reason == "max_rounds"
        finally:
            database.close()

    def test_max_rows_aborts_oversized_derivations(self):
        database = Database(build_transitive_closure_program(SLOW_EDGES))
        try:
            with database.connect() as conn:
                with pytest.raises(ResourceExhausted) as excinfo:
                    conn.query("path", limits=QueryLimits(max_rows=1000))
                assert excinfo.value.reason == "max_rows"
        finally:
            database.close()

    def test_max_result_bytes_guards_the_fetch_not_the_fixpoint(self):
        database = Database(build_transitive_closure_program(FAST_EDGES))
        try:
            with database.connect() as conn:
                with pytest.raises(ResourceExhausted) as excinfo:
                    # 6 rows x 2 cols x 8 bytes = 96 bytes estimated.
                    conn.query("path", limits=QueryLimits(max_result_bytes=64))
                assert excinfo.value.reason == "max_result_bytes"
                # The fixpoint itself survived: a roomier fetch succeeds
                # without re-evaluating.
                result = conn.query(
                    "path", limits=QueryLimits(max_result_bytes=10_000)
                )
                assert set(result.rows()) == FAST_CLOSURE
        finally:
            database.close()

    def test_config_level_limits_govern_every_query_automatically(self):
        config = EngineConfig().with_(limits=QueryLimits(max_rounds=3))
        database = Database(build_transitive_closure_program(SLOW_EDGES), config)
        try:
            with pytest.raises(ResourceExhausted):
                database.query("path")
        finally:
            database.close()

    def test_config_level_limits_never_govern_mutations(self):
        # max_rounds=1 aborts any governed multi-round fixpoint — but
        # limits are query governance: a mutation (and its incremental
        # propagation) must complete, or base rows and derived state
        # diverge with ``_evaluated`` left True.
        config = EngineConfig().with_(limits=QueryLimits(max_rounds=1))
        database = Database(build_transitive_closure_program([(1, 2)]), config)
        try:
            with database.connect() as conn:
                conn.insert_facts("edge", [(2, 3), (3, 4)])
                # The repaired fixpoint is complete and already
                # materialized, so even the governed read serves it.
                assert set(conn.query("path").rows()) == FAST_CLOSURE
        finally:
            database.close()

    def test_per_query_limits_override_config_limits(self):
        config = EngineConfig().with_(limits=QueryLimits(max_rounds=1))
        database = Database(build_transitive_closure_program(FAST_EDGES), config)
        try:
            with database.connect() as conn:
                result = conn.query(
                    "path", limits=QueryLimits(max_rounds=1000)
                )
                assert set(result.rows()) == FAST_CLOSURE
        finally:
            database.close()


class TestCancellation:
    def test_pre_cancelled_token_aborts_immediately(self):
        database = Database(build_transitive_closure_program(FAST_EDGES))
        try:
            token = CancellationToken()
            token.cancel("caller gave up")
            with database.connect() as conn:
                with pytest.raises(Cancelled) as excinfo:
                    conn.query("path", token=token)
                assert excinfo.value.reason == "caller gave up"
        finally:
            database.close()

    def test_cancel_from_another_thread_interrupts_evaluation(self):
        database = Database(build_transitive_closure_program(SLOW_EDGES))
        try:
            token = CancellationToken()
            timer = threading.Timer(0.03, token.cancel, args=("timer fired",))
            timer.start()
            try:
                with database.connect() as conn:
                    started = time.perf_counter()
                    with pytest.raises(Cancelled):
                        conn.query("path", token=token)
                    # Cooperative checks run every iteration: the abort
                    # lands promptly, not at the end of the fixpoint.
                    assert time.perf_counter() - started < 2.0
            finally:
                timer.cancel()
        finally:
            database.close()


class TestObservability:
    def test_aborts_are_counted_in_sys_resilience(self):
        database = Database(build_transitive_closure_program(SLOW_EDGES))
        try:
            with database.connect() as conn:
                with pytest.raises(ResourceExhausted):
                    conn.query("path", limits=QueryLimits(max_rounds=2))
                rows = set(conn.query("sys_resilience").rows())
                assert ("event", "resource_exhausted", 1) in rows
        finally:
            database.close()
