"""Integration-style unit tests for the IR executor across execution modes."""

import pytest

from repro.core.config import (
    AOTSortMode,
    CompilationGranularity,
    EngineConfig,
    ExecutionMode,
)
from repro.datalog.parser import parse_program
from repro.engine.engine import ExecutionEngine

TC_SOURCE = """
edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5). edge(2, 5).
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""

NEGATION_SOURCE = """
node(1). node(2). node(3). node(4).
edge(1, 2). edge(2, 3).
reach(1).
reach(Y) :- reach(X), edge(X, Y).
unreached(X) :- node(X), !reach(X).
"""

AGGREGATE_SOURCE = """
sales(east, 10). sales(east, 20). sales(west, 5).
total(R, sum(V)) :- sales(R, V).
volume(R, count(V)) :- sales(R, V).
"""


def run(source: str, config: EngineConfig):
    return ExecutionEngine(parse_program(source), config).evaluate()


#: The oracle: naive evaluation, tuple at a time.
REFERENCE_TC = run(TC_SOURCE, EngineConfig.naive().with_(executor="pushdown"))["path"]

ALL_CONFIGS = [
    EngineConfig.interpreted(),
    EngineConfig.interpreted(use_indexes=False),
    EngineConfig.naive(),
    EngineConfig.jit("irgen"),
    EngineConfig.jit("lambda"),
    EngineConfig.jit("quotes"),
    EngineConfig.jit("bytecode"),
    EngineConfig.jit("lambda", granularity=CompilationGranularity.JOIN),
    EngineConfig.jit("lambda", granularity=CompilationGranularity.RELATION),
    EngineConfig.jit("quotes", asynchronous=True),
    EngineConfig.jit("bytecode", asynchronous=True),
    EngineConfig.jit("quotes", compile_mode="snippet"),
    EngineConfig.aot(sort=AOTSortMode.RULES_ONLY),
    EngineConfig.aot(sort=AOTSortMode.FACTS_AND_RULES),
    EngineConfig.aot(sort=AOTSortMode.FACTS_AND_RULES, online=True),
    EngineConfig.jit("lambda").with_(executor="pushdown"),
]


class TestTransitiveClosureAcrossConfigs:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.describe())
    def test_same_fixpoint(self, config):
        assert run(TC_SOURCE, config)["path"] == REFERENCE_TC


class TestStratifiedNegation:
    @pytest.mark.parametrize(
        "config",
        [EngineConfig.interpreted(), EngineConfig.jit("lambda"), EngineConfig.jit("quotes")],
        ids=lambda c: c.describe(),
    )
    def test_unreached_nodes(self, config):
        results = run(NEGATION_SOURCE, config)
        assert results["reach"] == {(1,), (2,), (3,)}
        assert results["unreached"] == {(4,)}


class TestAggregation:
    @pytest.mark.parametrize(
        "config",
        [EngineConfig.interpreted(), EngineConfig.jit("lambda")],
        ids=lambda c: c.describe(),
    )
    def test_sum_and_count(self, config):
        results = run(AGGREGATE_SOURCE, config)
        assert results["total"] == {("east", 30), ("west", 5)}
        assert results["volume"] == {("east", 2), ("west", 1)}


class TestProfileBookkeeping:
    @pytest.mark.parametrize("config", [
        None, EngineConfig.interpreted(), EngineConfig.naive(),
        EngineConfig.aot(), EngineConfig.jit(),
    ], ids=["default", "interpreted", "naive", "aot", "jit"])
    def test_default_configurations_interpret_on_block_kernels(self, config):
        from repro import Database

        with Database(TC_SOURCE, config).connect() as conn:
            assert conn.config.executor == "vectorized"
            assert conn.query("path").to_set() == REFERENCE_TC
            summary = conn.session.profile.summary()
        assert summary["subqueries_vectorized"] > 0

    def test_interpreted_profile_has_no_compilations(self):
        engine = ExecutionEngine(
            parse_program(TC_SOURCE),
            EngineConfig.interpreted().with_(executor="pushdown"),
        )
        engine.evaluate()
        summary = engine.profile.summary()
        assert summary["compilations"] == 0
        assert summary["reorders"] == 0
        assert summary["iterations"] >= 2
        assert summary["subqueries_interpreted"] > 0

    def test_jit_profile_records_reorders_and_compiles(self):
        engine = ExecutionEngine(parse_program(TC_SOURCE), EngineConfig.jit("quotes"))
        engine.evaluate()
        summary = engine.profile.summary()
        assert summary["reorders"] > 0
        assert summary["compilations"] >= 1
        assert summary["compile_seconds"] > 0
        assert summary["subqueries_compiled"] > 0

    def test_irgen_artifacts_run_on_the_configured_executor(self):
        config = EngineConfig.jit("irgen").with_(executor="vectorized")
        engine = ExecutionEngine(parse_program(TC_SOURCE), config)
        assert engine.evaluate()["path"] == REFERENCE_TC
        summary = engine.profile.summary()
        assert summary["subqueries_compiled"] > 0
        # Batches beyond the interpreted (seed-stage) sub-queries ran
        # inside irgen artifacts: they did not silently fall back to pushdown.
        assert summary["block_joins"]["batches"] > summary["subqueries_vectorized"]

    def test_lambda_artifacts_feed_the_batch_counters(self):
        engine = ExecutionEngine(parse_program(TC_SOURCE), EngineConfig.jit("lambda"))
        assert engine.evaluate()["path"] == REFERENCE_TC
        summary = engine.profile.summary()
        joins = summary["block_joins"]
        # One batch per artifact call, plus one per vectorized seed plan.
        assert joins["batches"] == (
            summary["subqueries_compiled"] + summary["subqueries_vectorized"]
        )
        assert summary["subqueries_compiled"] > 0
        assert joins["index"] + joins["build"] > 0
        assert engine.profile.block_plans  # predicted strategies recorded too

    def test_snippet_continuations_share_the_executors_interpreter(self, monkeypatch):
        from repro.core import executor as executor_module

        built = []

        class Counting(executor_module.SubqueryEvaluator):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(executor_module, "SubqueryEvaluator", Counting)
        config = EngineConfig.jit("lambda", compile_mode="snippet").with_(
            executor="vectorized"
        )
        engine = ExecutionEngine(parse_program(TC_SOURCE), config)
        assert engine.evaluate()["path"] == REFERENCE_TC
        assert len(built) == 1  # not one evaluator per continuation call
        summary = engine.profile.summary()
        assert summary["block_joins"]["batches"] > summary["subqueries_vectorized"]

    def test_aot_profile_records_aot_reorders(self):
        engine = ExecutionEngine(
            parse_program(TC_SOURCE), EngineConfig.aot(sort=AOTSortMode.FACTS_AND_RULES)
        )
        engine.evaluate()
        stages = {record.stage for record in engine.profile.reorders}
        assert "aot" in stages

    def test_iteration_records_have_delta_cardinalities(self):
        engine = ExecutionEngine(parse_program(TC_SOURCE), EngineConfig.interpreted())
        engine.evaluate()
        assert any(
            record.delta_cardinalities.get("path", 0) > 0
            for record in engine.profile.iterations
        )

    def test_evaluate_is_idempotent_and_never_reruns(self):
        engine = ExecutionEngine(parse_program(TC_SOURCE), EngineConfig.interpreted())
        first = engine.evaluate()
        iterations = len(engine.profile.iterations)
        second = engine.evaluate()  # no re-execution: fresh view of same state
        assert first == second
        assert len(engine.profile.iterations) == iterations

    def test_max_iterations_bounds_execution(self):
        config = EngineConfig.interpreted().with_(max_iterations=1)
        engine = ExecutionEngine(parse_program(TC_SOURCE), config)
        results = engine.evaluate()
        assert results["path"] < REFERENCE_TC

    def test_explain_shows_plan(self):
        engine = ExecutionEngine(parse_program(TC_SOURCE), EngineConfig.interpreted())
        assert "DoWhile" in engine.explain()


class TestFreshnessThresholdBehaviour:
    def test_low_threshold_recompiles_more(self):
        source = TC_SOURCE
        eager = ExecutionEngine(
            parse_program(source),
            EngineConfig.jit("lambda").with_(freshness_threshold=0.0),
        )
        eager.evaluate()
        lazy = ExecutionEngine(
            parse_program(source),
            EngineConfig.jit("lambda").with_(freshness_threshold=1e9),
        )
        lazy.evaluate()
        assert len(eager.profile.compile_events) >= len(lazy.profile.compile_events)


class TestReplanBlockPrediction:
    """A JIT re-plan predicts an order's block strategies once, not per re-plan."""

    def evaluate(self):
        from repro.analyses.ordering import Ordering
        from repro.analyses.registry import get_benchmark

        spec = get_benchmark("cspa_tiny")
        engine = ExecutionEngine(spec.build(Ordering.WORST), EngineConfig.jit("lambda"))
        engine.evaluate()
        return engine.profile

    def test_one_prediction_per_node_and_order_with_unchanged_block_plans(
        self, monkeypatch
    ):
        from repro.core import executor as executor_module

        real_annotate = executor_module.annotate_block_strategies
        real_planned = executor_module.IRExecutor._planned
        annotations, pairs = [], set()

        def counting_annotate(plan, indexes):
            annotations.append(plan.sources)
            return real_annotate(plan, indexes)

        def recording_planned(self, node_id, plan):
            pairs.add((node_id, plan.sources))
            return real_planned(self, node_id, plan)

        # The reference: every re-plan gets a fresh memo entry, so every
        # re-plan predicts again (what the executor did before the memo).
        monkeypatch.setattr(executor_module.IRExecutor, "_planned",
                            lambda self, node_id, plan:
                            executor_module._PlannedOrder(plan))
        reference = self.evaluate()
        replans = sum(1 for r in reference.reorders if r.stage == "jit")

        monkeypatch.setattr(executor_module, "annotate_block_strategies",
                            counting_annotate)
        monkeypatch.setattr(executor_module.IRExecutor, "_planned",
                            recording_planned)
        profile = self.evaluate()

        assert profile.block_plans == reference.block_plans
        assert len(annotations) == len(pairs) < replans
