"""Unit tests for the four compilation backends."""

import pytest

from repro.core.backends import (
    BytecodeBackend,
    IRGeneratorBackend,
    LambdaBackend,
    QuotesBackend,
    available_backends,
    get_backend,
)
from repro.datalog.literals import Assignment, Atom, Comparison
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.ir.planning import build_join_plan
from repro.relational.storage import StorageManager

x, y, z = Variable("x"), Variable("y"), Variable("z")

ALL_BACKENDS = ["quotes", "bytecode", "lambda", "irgen"]


def graph_storage() -> StorageManager:
    storage = StorageManager()
    storage.declare("edge", 2)
    storage.declare("path", 2)
    storage.declare("blocked", 1)
    storage.insert_derived("edge", (1, 2))
    storage.insert_derived("edge", (2, 3))
    storage.insert_derived("edge", (3, 4))
    storage.seed_delta("path", [(1, 2), (2, 3), (3, 4)])
    storage.insert_derived("blocked", (4,))
    return storage


def tc_plan(delta=True):
    rule = Rule(Atom("path", (x, z)), (Atom("path", (x, y)), Atom("edge", (y, z))), "tc")
    return build_join_plan(rule, delta_index=0 if delta else None)


def builtin_plan():
    rule = Rule(
        Atom("p", (x, z)),
        (
            Atom("edge", (x, y)),
            Atom("blocked", (y,), negated=True),
            Comparison("<", x, Constant(4)),
            Assignment(z, y * 10),
        ),
    )
    return build_join_plan(rule)


class TestRegistry:
    def test_all_backends_registered(self):
        assert set(ALL_BACKENDS) <= set(available_backends())

    def test_get_backend_by_name(self):
        assert get_backend("quotes").name == "quotes"
        assert get_backend("lambda").name == "lambda"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            get_backend("llvm")


class TestCompilationCorrectness:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_simple_join(self, name):
        storage = graph_storage()
        backend = get_backend(name)
        artifact = backend.compile_plans([tc_plan()], storage)
        assert artifact(storage) == {(1, 3), (2, 4)}

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_matches_reference_evaluator(self, name):
        from repro.relational.operators import evaluate_subquery

        storage = graph_storage()
        for plan in (tc_plan(True), tc_plan(False), builtin_plan()):
            reference = evaluate_subquery(storage, plan)
            artifact = get_backend(name).compile_plans([plan], storage)
            assert artifact(storage) == reference

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_union_of_plans(self, name):
        from repro.relational.operators import evaluate_subquery

        storage = graph_storage()
        plans = [tc_plan(True), builtin_plan()]
        reference = set()
        for plan in plans:
            reference |= evaluate_subquery(storage, plan)
        artifact = get_backend(name).compile_plans(plans, storage)
        assert artifact(storage) == reference

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_artifact_sees_storage_changes(self, name):
        """Artifacts must re-read relations at call time (safe-point property)."""
        storage = graph_storage()
        artifact = get_backend(name).compile_plans([tc_plan(delta=False)], storage)
        before = artifact(storage)
        storage.insert_derived("path", (4, 5))
        storage.insert_derived("edge", (5, 6))
        after = artifact(storage)
        assert before < after

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_indexes_do_not_change_results(self, name):
        storage = graph_storage()
        compiled_unindexed = get_backend(name).compile_plans([tc_plan()], storage)
        result_without = compiled_unindexed(storage)
        storage.register_index("edge", 0)
        storage.register_index("path", 1)
        compiled_indexed = get_backend(name).compile_plans([tc_plan()], storage)
        assert compiled_indexed(storage) == result_without
        assert compiled_unindexed(storage) == result_without


class TestLambdaBlockKernels:
    """Lambda artifacts are the interpreter's own lowered block kernels."""

    @staticmethod
    def wide_storage(edges=40):
        storage = StorageManager()
        storage.declare("edge", 2)
        storage.declare("path", 2)
        storage.register_index("edge", 0)
        for i in range(edges):
            storage.insert_derived("edge", (i, i + 1))
        return storage

    @staticmethod
    def compile_counted(plan, storage):
        from repro.relational.operators import SubqueryEvaluator, evaluate_subquery

        evaluator = SubqueryEvaluator(storage)
        artifact = LambdaBackend().compile_plans([plan], storage, evaluator=evaluator)

        def run():
            rows = artifact(storage)
            assert rows == evaluate_subquery(storage, plan)
            stats = evaluator.vectorized_stats
            return {key: stats[key] for key in ("batches", "index", "build")}

        return run

    def test_one_artifact_serves_both_sides_of_the_index_build_switch(self):
        """Which mapping a keyed join probes is decided when the batch
        arrives: drop the index between two calls and the same artifact
        builds its own table, over the same comprehension."""
        storage = self.wide_storage(edges=40)
        run = self.compile_counted(tc_plan(delta=True), storage)
        storage.force_delta("path", [(0, 5), (1, 5), (2, 6)])
        assert run() == {"batches": 1, "index": 1, "build": 0}
        # A probe side as wide as the relation still probes the live index.
        storage.force_delta("path", [(0, k) for k in range(40)])
        assert run() == {"batches": 2, "index": 2, "build": 0}
        storage.drop_all_indexes()
        assert run() == {"batches": 3, "index": 2, "build": 1}
        storage.register_index("edge", 0)
        assert run() == {"batches": 4, "index": 3, "build": 1}

    def test_artifact_picks_up_an_index_registered_after_compilation(self):
        storage = graph_storage()
        for i in range(10, 30):
            storage.insert_derived("edge", (i, i + 1))
        run = self.compile_counted(tc_plan(delta=True), storage)
        assert run() == {"batches": 1, "index": 0, "build": 1}
        storage.register_index("edge", 0)
        assert run() == {"batches": 2, "index": 1, "build": 1}
        assert storage.derived("edge").indexed_columns() == (0,)

    def test_lowering_runs_once_per_plan_not_once_per_call(self, monkeypatch):
        from repro.relational import operators

        calls = []
        real = operators.lower_plan

        def counting(plan, *args, **kwargs):
            calls.append(plan)
            return real(plan, *args, **kwargs)

        monkeypatch.setattr(operators, "lower_plan", counting)
        storage = graph_storage()
        plans = [tc_plan(True), builtin_plan()]
        artifact = LambdaBackend().compile_plans(plans, storage)
        assert len(calls) == 2
        for _ in range(3):
            artifact(storage)
        assert len(calls) == 2
        # The interpreter memoises per plan object the same way.
        evaluator = operators.SubqueryEvaluator(storage, executor="vectorized")
        for _ in range(3):
            evaluator.evaluate(plans[0])
        assert len(calls) == 3

    def test_irgen_interprets_on_the_evaluator_it_was_given(self):
        from repro.relational.operators import SubqueryEvaluator

        storage = graph_storage()
        evaluator = SubqueryEvaluator(storage, executor="vectorized")
        artifact = IRGeneratorBackend().compile_plans(
            [tc_plan()], storage, evaluator=evaluator
        )
        assert artifact(storage) == {(1, 3), (2, 4)}
        assert evaluator.vectorized_stats["batches"] == 1


class TestBackendProperties:
    def test_compile_seconds_recorded(self):
        storage = graph_storage()
        artifact = QuotesBackend().compile_plans([tc_plan()], storage)
        assert artifact.compile_seconds > 0
        assert artifact.backend == "quotes"

    def test_quotes_snippet_mode_uses_continuations(self):
        storage = graph_storage()
        continuations = [lambda s: {(9, 9)}]
        artifact = QuotesBackend().compile_plans(
            [tc_plan()], storage, mode="snippet", continuations=continuations
        )
        assert artifact(storage) == {(9, 9)}
        assert artifact.mode == "snippet"

    def test_lambda_snippet_mode(self):
        storage = graph_storage()
        artifact = LambdaBackend().compile_plans(
            [tc_plan()], storage, mode="snippet", continuations=[lambda s: {(7,)}]
        )
        assert artifact(storage) == {(7,)}

    def test_bytecode_has_no_snippet_mode(self):
        storage = graph_storage()
        artifact = BytecodeBackend().compile_plans(
            [tc_plan()], storage, mode="snippet", continuations=[lambda s: {(7,)}]
        )
        # Falls back to full compilation: evaluates the plan, not the continuation.
        assert artifact.mode == "full"
        assert (1, 3) in artifact(storage)

    def test_quotes_generated_source_is_attached(self):
        storage = graph_storage()
        artifact = QuotesBackend().compile_plans([tc_plan()], storage)
        (kernel,) = artifact.kernels
        assert all(text.startswith("lambda rows, src") for text in kernel.sources)

    def test_revertibility_flags(self):
        assert QuotesBackend.revertible and LambdaBackend.revertible
        assert IRGeneratorBackend.revertible
        assert not BytecodeBackend.revertible

    def test_compiler_invocation_flags(self):
        assert QuotesBackend.invokes_compiler and BytecodeBackend.invokes_compiler
        assert not LambdaBackend.invokes_compiler
        assert not IRGeneratorBackend.invokes_compiler


class TestOneExecutor:
    """Every compiling backend runs ``lower_plan``'s block kernels; they
    differ only in how a comprehension's text becomes a callable."""

    COMPILING = ["quotes", "bytecode", "lambda"]

    @staticmethod
    def comprehensions(artifact):
        """The compiled comprehension callables of every join step."""
        import inspect

        found = []
        for kernel in artifact.kernels:
            for step in kernel.steps:
                cells = inspect.getclosurevars(step).nonlocals
                if "variants" in cells:
                    found.extend(cells["variants"].values())
                elif "run" in cells:
                    found.append(cells["run"])
        return found

    @pytest.mark.parametrize("name", COMPILING)
    def test_artifacts_carry_exactly_the_lowered_sources(self, name):
        from repro.relational.operators import lower_plan

        storage = graph_storage()
        plans = [tc_plan(True), tc_plan(False), builtin_plan()]
        artifact = get_backend(name).compile_plans(plans, storage)
        assert [kernel.sources for kernel in artifact.kernels] == [
            lower_plan(plan).sources for plan in plans
        ]

    @pytest.mark.parametrize("name,shared", [
        ("quotes", False), ("bytecode", False), ("lambda", True),
    ])
    def test_which_backends_reuse_code_objects(self, name, shared):
        storage = graph_storage()
        first, second = (
            self.comprehensions(get_backend(name).compile_plans([tc_plan()], storage))
            for _ in range(2)
        )
        assert len(first) == len(second) == 2
        for one, other in zip(first, second):
            assert (one.__code__ is other.__code__) == shared
            assert one.__code__.co_filename.startswith("<repro-kernel:")

    def test_bytecode_snippet_request_compiles_the_kernels(self):
        from repro.relational.operators import lower_plan

        storage = graph_storage()
        artifact = BytecodeBackend().compile_plans(
            [tc_plan()], storage, mode="snippet", continuations=[lambda s: {(7,)}]
        )
        assert artifact.mode == "full"
        assert [k.sources for k in artifact.kernels] == [lower_plan(tc_plan()).sources]
        assert artifact(storage) == {(1, 3), (2, 4)}

    def test_block_joins_are_equal_across_backends_on_cspa(self):
        from repro.analyses.ordering import Ordering
        from repro.analyses.registry import get_benchmark
        from repro.core.config import EngineConfig
        from repro.engine.engine import ExecutionEngine

        spec = get_benchmark("cspa_tiny")
        counts, results = {}, {}
        for name in self.COMPILING:
            engine = ExecutionEngine(spec.build(Ordering.WORST), EngineConfig.jit(name))
            results[name] = engine.evaluate()
            counts[name] = engine.profile.block_joins
        assert counts["lambda"]["batches"] > 0
        assert counts["quotes"] == counts["bytecode"] == counts["lambda"]
        assert results["quotes"] == results["bytecode"] == results["lambda"]


class TestCompilationEventLabels:
    @pytest.mark.parametrize("asynchronous", [False, True])
    @pytest.mark.parametrize("granularity", ["relation", "rule", "join"])
    def test_events_name_the_relation_or_rule(self, granularity, asynchronous):
        from repro.core.config import CompilationGranularity, EngineConfig
        from repro.datalog.parser import parse_program
        from repro.engine.engine import ExecutionEngine

        # A 30-edge chain: enough iterations for an asynchronous
        # compilation to be swapped in before the fixpoint.
        program = parse_program(
            " ".join(f"edge({i}, {i + 1})." for i in range(30)) + "\n"
            "path(X, Y) :- edge(X, Y).\n"
            "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
        )
        config = EngineConfig.jit(
            "quotes", granularity=CompilationGranularity(granularity),
            asynchronous=asynchronous,
        )
        engine = ExecutionEngine(program, config)
        engine.evaluate()
        labels = {event.label for event in engine.profile.compile_events}
        assert labels
        assert labels <= {"path"} | {rule.name for rule in program.rules}
