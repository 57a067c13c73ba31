"""Unit tests for the compilation manager and the freshness test."""

import time

import pytest

from repro.core.backends import LambdaBackend, QuotesBackend
from repro.core.compilation import CompilationManager
from repro.core.freshness import FreshnessTest
from repro.datalog.literals import Atom
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable
from repro.ir.planning import build_join_plan
from repro.relational.statistics import CardinalitySnapshot, take_snapshot
from repro.relational.storage import StorageManager

x, y, z = Variable("x"), Variable("y"), Variable("z")


def graph_storage() -> StorageManager:
    storage = StorageManager()
    storage.declare("edge", 2)
    storage.declare("path", 2)
    storage.insert_derived("edge", (1, 2))
    storage.insert_derived("edge", (2, 3))
    storage.seed_delta("path", [(1, 2), (2, 3)])
    return storage


def tc_plan():
    rule = Rule(Atom("path", (x, z)), (Atom("path", (x, y)), Atom("edge", (y, z))), "tc")
    return build_join_plan(rule, delta_index=0)


class TestSynchronousCompilation:
    def test_compile_now_caches_artifact(self):
        storage = graph_storage()
        manager = CompilationManager(LambdaBackend(), asynchronous=False)
        snapshot = take_snapshot(storage)
        artifact = manager.compile_now(1, [tc_plan()], storage, snapshot)
        assert manager.current_artifact(1) is artifact
        assert manager.artifact_snapshot(1) is snapshot
        assert manager.compile_count() == 1
        assert manager.total_compile_seconds() >= 0

    def test_invalidate_clears_cache(self):
        storage = graph_storage()
        manager = CompilationManager(LambdaBackend(), asynchronous=False)
        manager.compile_now(1, [tc_plan()], storage, take_snapshot(storage))
        manager.invalidate(1)
        assert manager.current_artifact(1) is None

    def test_events_record_backend_and_mode(self):
        storage = graph_storage()
        manager = CompilationManager(QuotesBackend(), asynchronous=False)
        manager.compile_now(7, [tc_plan()], storage, take_snapshot(storage))
        event = manager.events[0]
        assert event.backend == "quotes"
        assert event.node_id == 7
        assert not event.asynchronous


class TestAsynchronousCompilation:
    def test_async_compile_becomes_available(self):
        storage = graph_storage()
        with CompilationManager(LambdaBackend(), asynchronous=True) as manager:
            manager.compile_async(1, [tc_plan()], storage, take_snapshot(storage))
            deadline = time.time() + 5.0
            artifact = None
            while artifact is None and time.time() < deadline:
                artifact = manager.current_artifact(1)
                time.sleep(0.01)
            assert artifact is not None
            assert artifact(storage) == {(1, 3)}
            assert manager.events and manager.events[0].asynchronous

    def test_duplicate_async_requests_are_coalesced(self):
        storage = graph_storage()
        with CompilationManager(QuotesBackend(), asynchronous=True) as manager:
            snapshot = take_snapshot(storage)
            manager.compile_async(1, [tc_plan()], storage, snapshot)
            manager.compile_async(1, [tc_plan()], storage, snapshot)
            deadline = time.time() + 5.0
            while manager.current_artifact(1) is None and time.time() < deadline:
                time.sleep(0.01)
            assert manager.compile_count() == 1

    def test_async_manager_without_executor_degrades_to_blocking(self):
        storage = graph_storage()
        manager = CompilationManager(LambdaBackend(), asynchronous=False)
        manager.compile_async(2, [tc_plan()], storage, take_snapshot(storage))
        assert manager.current_artifact(2) is not None


class TestFreshness:
    def snapshot(self, cards):
        return CardinalitySnapshot(0, dict(cards), {})

    def test_missing_compile_snapshot_is_stale(self):
        test = FreshnessTest(threshold=0.5)
        assert test.is_stale(None, self.snapshot({"a": 10}))

    def test_small_change_is_fresh(self):
        test = FreshnessTest(threshold=0.5)
        old = self.snapshot({"a": 100})
        new = self.snapshot({"a": 120})
        assert test.is_fresh(old, new)

    def test_large_change_is_stale(self):
        test = FreshnessTest(threshold=0.5)
        old = self.snapshot({"a": 100})
        new = self.snapshot({"a": 500})
        assert test.is_stale(old, new)

    def test_threshold_is_respected(self):
        old = self.snapshot({"a": 100})
        new = self.snapshot({"a": 140})
        assert FreshnessTest(threshold=0.5).is_fresh(old, new)
        assert FreshnessTest(threshold=0.1).is_stale(old, new)


class TestArtifactReuse:
    """A stale re-plan that lands on join orders its node already compiled
    runs that artifact again; any other order compiles."""

    def test_every_stale_replan_compiles_or_reuses(self, monkeypatch):
        from repro.analyses import Ordering
        from repro.analyses.registry import get_benchmark
        from repro.core.config import EngineConfig
        from repro.core.executor import IRExecutor
        from repro.engine.engine import ExecutionEngine

        replans = []
        original = IRExecutor._reorder_plans

        def counting(self, nodes, stage):
            replans.append(stage)
            return original(self, nodes, stage)

        monkeypatch.setattr(IRExecutor, "_reorder_plans", counting)
        spec = get_benchmark("cspa_tiny")
        engine = ExecutionEngine(spec.build(Ordering.WORST), EngineConfig.jit("lambda"))
        result = engine.evaluate()[spec.query_relation]
        monkeypatch.undo()
        reference = ExecutionEngine(
            spec.build(Ordering.WORST), EngineConfig.interpreted()
        ).evaluate()[spec.query_relation]
        assert result == reference

        summary = engine.profile.summary()
        assert summary["artifacts_reused"] > 0
        assert summary["compilations"] + summary["artifacts_reused"] == len(replans)
        reasons = {record.reason for record in engine.profile.reorders
                   if record.stage == "jit"}
        assert reasons == {"recompiled", "reused-order"}
        explained = spec.query(EngineConfig.jit("lambda"), Ordering.WORST).explain()
        assert f"{summary['artifacts_reused']} artifacts reused" in explained
        assert "reused-order)" in explained

    def test_a_cardinality_flip_that_changes_the_order_recompiles(self):
        from repro.core.config import CompilationGranularity, EngineConfig
        from repro.core.executor import IRExecutor
        from repro.ir.ops import JoinProjectOp
        from repro.relational.operators import evaluate_subquery

        storage = StorageManager()
        for name in ("a", "b", "r"):
            storage.declare(name, 2)
        rule = Rule(Atom("r", (x, z)), (Atom("a", (x, y)), Atom("b", (y, z))), "r")
        node = JoinProjectOp(build_join_plan(rule))
        executor = IRExecutor(storage, EngineConfig.jit(
            "lambda", granularity=CompilationGranularity.JOIN
        ))

        def grow(relation, rows):
            """Insert ``rows``, move to the next iteration, run the node:
            (first relation of the artifact now current, compilations)."""
            for row in rows:
                storage.insert_derived(relation, row)
            executor._current_iteration += 1
            assert executor._adaptive_rows(node, [node], "loop") == (
                evaluate_subquery(storage, node.plan)
            )
            artifact = executor.compilation.current_artifact(node.node_id)
            first = artifact.plans[0].sources[0].literal.relation
            return first, executor.compilation.compile_count()

        # b is empty: it goes first, and the node compiles that order.
        assert grow("a", [(i, i % 7) for i in range(100)]) == ("b", 1)
        # b is stale but still the smaller: same order, artifact kept.
        assert grow("b", [(j % 7, j) for j in range(2)]) == ("b", 1)
        # b outgrows a: the order flips, so the node must compile again.
        assert grow("b", [(j % 7, j) for j in range(2, 400)]) == ("a", 2)
        # a outgrows b: back to b first, the order compiled at the start.
        assert grow("a", [(i, i % 7) for i in range(100, 5000)]) == ("b", 2)
        assert executor.profile.artifacts_reused == 2
        assert [record.reason for record in executor.profile.reorders] == [
            "recompiled", "reused-order", "recompiled", "reused-order",
        ]
