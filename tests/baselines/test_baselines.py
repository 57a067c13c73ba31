"""Tests for the Soufflé-like and DLX-like baseline engines."""

import pytest

from repro.baselines import DLXLikeEngine, SouffleLikeEngine
from repro.core.config import EngineConfig
from repro.datalog.parser import parse_program
from repro.engine.engine import ExecutionEngine

SOURCE = """
edge(1, 2). edge(2, 3). edge(3, 4). edge(2, 4).
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""


#: The oracle: interpreted, tuple at a time.
ORACLE = EngineConfig.interpreted().with_(executor="pushdown")


def reference():
    return ExecutionEngine(parse_program(SOURCE), ORACLE).evaluate()["path"]


class TestSouffleLike:
    def test_interpreter_mode_matches_reference(self):
        result = SouffleLikeEngine(mode="interpreter").run(parse_program(SOURCE))
        assert result.relations["path"] == reference()
        assert result.toolchain_seconds == 0.0
        assert result.profiling_seconds == 0.0

    def test_compiler_mode_adds_toolchain_cost(self):
        engine = SouffleLikeEngine(mode="compiler", toolchain_seconds=1.5)
        result = engine.run(parse_program(SOURCE))
        assert result.relations["path"] == reference()
        assert result.toolchain_seconds == 1.5
        assert result.reported_seconds >= 1.5

    def test_auto_tuned_mode_profiles_then_runs(self):
        engine = SouffleLikeEngine(mode="auto-tuned", toolchain_seconds=0.5)
        result = engine.run(parse_program(SOURCE))
        assert result.relations["path"] == reference()
        assert result.profiling_seconds > 0
        # Reported time excludes profiling (the paper's convention).
        assert result.reported_seconds < result.profiling_seconds + result.evaluation_seconds + 1.0

    def test_reference_evaluators_run_tuple_at_a_time(self):
        """The oracles never touch the block kernels they are compared to."""
        engine = ExecutionEngine(parse_program(SOURCE), ORACLE)
        engine.evaluate()
        profile = SouffleLikeEngine(mode="interpreter").run(
            parse_program(SOURCE)
        ).profile
        for summary in (engine.profile.summary(), profile.summary()):
            assert summary["subqueries_vectorized"] == 0
            assert summary["subqueries_interpreted"] > 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SouffleLikeEngine(mode="jit")

    def test_auto_tuned_on_macro_benchmark(self):
        from repro.analyses import build_andersen_program
        from repro.workloads.program_facts import SListLibGenerator

        dataset = SListLibGenerator(seed=3).generate(list_length=6, extra_pipelines=0)
        program = build_andersen_program(dataset)
        expected = ExecutionEngine(program.copy(), ORACLE).evaluate()["pointsTo"]
        result = SouffleLikeEngine(mode="auto-tuned", toolchain_seconds=0.0).run(program)
        assert result.relations["pointsTo"] == expected


class TestDLXLike:
    def test_results_match_reference(self):
        result = DLXLikeEngine().run(parse_program(SOURCE))
        assert result.relations["path"] == reference()
        assert result.finished

    def test_timeout_marks_unfinished(self):
        result = DLXLikeEngine(timeout_iterations=1).run(parse_program(SOURCE))
        assert not result.finished

    def test_reported_seconds_positive(self):
        result = DLXLikeEngine().run(parse_program(SOURCE))
        assert result.reported_seconds > 0
