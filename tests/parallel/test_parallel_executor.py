"""The shard-parallel evaluator: equivalence, pools, config surface."""

import os

import pytest

from repro.analyses.micro import build_transitive_closure_program
from repro.analyses.registry import get_benchmark
from repro.core.config import EngineConfig, ExecutionMode, ShardingConfig
from repro.datalog.literals import Atom
from repro.datalog.program import DatalogProgram
from repro.datalog.terms import Variable
from repro.engine.engine import ExecutionEngine, sharding_active
from repro.parallel.executor import (
    ForkWorkerPool,
    SerialPool,
    fork_available,
    resolve_pool_kind,
    resolve_shard_backend,
)
from repro.workloads.graphs import random_edges


def tc_engine(edges, config):
    return ExecutionEngine(build_transitive_closure_program(edges), config)


@pytest.fixture(scope="module")
def tc_edges():
    return random_edges(300, 500, seed=5)


@pytest.fixture(scope="module")
def tc_reference(tc_edges):
    return tc_engine(tc_edges, EngineConfig.interpreted()).evaluate()["path"]


class TestConfigSurface:
    def test_parallel_composes_with_any_base(self):
        config = EngineConfig.parallel(shards=4, base=EngineConfig.jit("lambda"))
        assert config.mode == ExecutionMode.JIT
        assert config.sharding.shards == 4

    def test_parallel_keyword_overrides(self):
        config = EngineConfig.parallel(shards=2, mode=ExecutionMode.AOT)
        assert config.mode == ExecutionMode.AOT

    def test_single_shard_is_the_standard_engine(self):
        assert not sharding_active(EngineConfig.parallel(shards=1))

    def test_naive_mode_bypasses_sharding(self):
        assert not sharding_active(
            EngineConfig.parallel(shards=4, base=EngineConfig.naive())
        )

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig.parallel(shards=0)

    def test_describe_mentions_shards(self):
        assert EngineConfig.parallel(shards=4).describe().endswith("x4")
        assert EngineConfig.parallel(shards=1).describe() == "interpreted+idx"

    def test_shard_backend_resolution(self):
        assert resolve_shard_backend(EngineConfig.parallel(shards=2)) == "bytecode"
        assert resolve_shard_backend(
            EngineConfig.parallel(shards=2, base=EngineConfig.jit("lambda"))
        ) == "lambda"
        assert resolve_shard_backend(
            EngineConfig.parallel(shards=2, base=EngineConfig.aot())
        ) is None
        assert resolve_shard_backend(
            EngineConfig.parallel(shards=2, shard_backend="none")
        ) is None


class TestPoolResolution:
    def test_more_shards_than_cores_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert resolve_pool_kind(ShardingConfig(shards=8, pool="auto"), 8) == "serial"

    def test_single_core_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_pool_kind(ShardingConfig(shards=2, pool="auto"), 2) == "serial"

    def test_pytest_environment_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        assert "PYTEST_CURRENT_TEST" in os.environ
        assert resolve_pool_kind(ShardingConfig(shards=2, pool="auto"), 2) == "serial"

    def test_auto_prefers_fork_processes_on_big_idle_machines(self, monkeypatch):
        # Shard evaluation is pure Python, so only processes escape the GIL.
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        monkeypatch.delenv("PYTEST_CURRENT_TEST", raising=False)
        monkeypatch.delenv("CI", raising=False)
        from repro.parallel.executor import fork_available

        expected = "process" if fork_available() else "serial"
        assert resolve_pool_kind(ShardingConfig(shards=4, pool="auto"), 4) == expected

    def test_explicit_serial_always_honoured(self):
        assert resolve_pool_kind(ShardingConfig(shards=4, pool="serial"), 4) == "serial"


class TestEquivalence:
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_aligned_tc_matches_reference(self, tc_edges, tc_reference, shards):
        engine = tc_engine(tc_edges, EngineConfig.parallel(shards=shards))
        assert engine.evaluate()["path"] == tc_reference
        assert engine.parallel_report.strategies() == ["aligned"]

    def test_replicated_strategy_matches_reference(self):
        program = DatalogProgram("nltc")
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        path = lambda a, b: Atom("path", (a, b))  # noqa: E731
        edge = lambda a, b: Atom("edge", (a, b))  # noqa: E731
        program.add_rule(path(x, y), [edge(x, y)])
        program.add_rule(path(x, z), [path(x, y), path(y, z)])
        program.add_facts("edge", random_edges(40, 90, seed=3))

        reference = ExecutionEngine(program.copy(), EngineConfig.interpreted()).evaluate()
        engine = ExecutionEngine(program.copy(), EngineConfig.parallel(shards=3))
        assert engine.evaluate() == reference
        report = engine.parallel_report
        assert report.strategies() == ["replicated"]
        assert report.total_exchanged() > 0  # the exchange did real work

    def test_mixed_type_columns_match_reference(self):
        # Two regressions in one: the shard merge/broadcast paths must not
        # order rows (sorting tuples that mix ints and strs raises
        # TypeError), and partitioning must co-locate equal-comparing values
        # of different types (True == 1 == 1.0 joins across those facts).
        program = DatalogProgram("mixed")
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        path = lambda a, b: Atom("path", (a, b))  # noqa: E731
        edge = lambda a, b: Atom("edge", (a, b))  # noqa: E731
        program.add_rule(path(x, y), [edge(x, y)])
        program.add_rule(path(x, z), [path(x, y), edge(y, z)])
        program.add_facts("edge", [
            (1, "a"), ("a", 2), (2, 3), (3, "b"), ("b", 1),
            (0, True), (True, "a"), (3, 1.0),
        ])

        reference = ExecutionEngine(program.copy(), EngineConfig.interpreted()).evaluate()
        for shards in (2, 3):
            engine = ExecutionEngine(program.copy(), EngineConfig.parallel(shards=shards))
            assert engine.evaluate() == reference

    @pytest.mark.parametrize("name", ["fibonacci", "andersen", "inverse_functions"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_benchmark_programs_match(self, name, shards):
        spec = get_benchmark(name)
        reference = ExecutionEngine(spec.build(), EngineConfig.interpreted()).evaluate()
        engine = ExecutionEngine(spec.build(), EngineConfig.parallel(shards=shards))
        assert engine.evaluate()[spec.query_relation] == reference[spec.query_relation]

    @pytest.mark.parametrize("base", [
        EngineConfig.jit("bytecode"),
        EngineConfig.jit("lambda"),
        EngineConfig.aot(),
    ], ids=lambda c: c.describe())
    def test_modes_compose(self, tc_edges, tc_reference, base):
        engine = tc_engine(tc_edges, EngineConfig.parallel(shards=2, base=base))
        assert engine.evaluate()["path"] == tc_reference

    def test_negation_program_matches(self):
        spec = get_benchmark("primes")
        reference = ExecutionEngine(spec.build(), EngineConfig.interpreted()).evaluate()
        engine = ExecutionEngine(spec.build(), EngineConfig.parallel(shards=2))
        assert engine.evaluate()[spec.query_relation] == reference[spec.query_relation]

    def test_interpreted_workers_available_for_verification(self, tc_edges, tc_reference):
        engine = tc_engine(
            tc_edges, EngineConfig.parallel(shards=2, shard_backend="none")
        )
        assert engine.evaluate()["path"] == tc_reference

    def test_naive_mode_runs_single_shard(self, tc_edges, tc_reference):
        engine = tc_engine(
            tc_edges, EngineConfig.parallel(shards=4, base=EngineConfig.naive())
        )
        assert engine.evaluate()["path"] == tc_reference
        assert engine.parallel_report is None


class TestPools:
    def test_thread_pool_matches_reference(self, tc_edges, tc_reference):
        engine = tc_engine(tc_edges, EngineConfig.parallel(shards=2, pool="thread"))
        assert engine.evaluate()["path"] == tc_reference

    @pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
    def test_fork_pool_matches_reference(self, tc_edges, tc_reference):
        engine = tc_engine(tc_edges, EngineConfig.parallel(shards=2, pool="process"))
        assert engine.evaluate()["path"] == tc_reference

    @pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
    def test_fork_pool_surfaces_worker_errors(self):
        class Exploder:
            def boom(self):
                raise RuntimeError("kaput")

        pool = ForkWorkerPool([Exploder()])
        try:
            with pytest.raises(RuntimeError, match="kaput"):
                pool.invoke("boom")
        finally:
            pool.close()
        pool.close()  # idempotent

    @pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
    def test_allocating_stratum_degrades_fork_pool_to_threads(self, monkeypatch):
        """Symbol-allocating plans keep shard parallelism on the thread pool.

        A forked child interning fresh ids (assignment/arithmetic heads)
        would diverge from its siblings' inherited tables, so an explicit
        process pool must substitute threads — not serial — for such
        strata, and still match the single-shard fixpoint exactly.
        """
        import repro.parallel.executor as executor_module
        from repro.datalog.literals import Assignment, Comparison

        picked = []
        original = executor_module.make_pool

        def recording(kind, workers):
            picked.append(kind)
            return original(kind, workers)

        monkeypatch.setattr(executor_module, "make_pool", recording)

        x, y, z, c, c2 = (Variable(n) for n in ("x", "y", "z", "c", "c2"))
        program = DatalogProgram("alloc_rec")
        program.declare_relation("edge", 2)
        program.declare_relation("path", 3)
        for i in range(60):
            program.add_fact("edge", (i, i + 1))
        program.add_rule(
            Atom("path", (x, y, c)), [Atom("edge", (x, y)), Assignment(c, x * 0)]
        )
        program.add_rule(
            Atom("path", (x, z, c2)),
            [
                Atom("path", (x, y, c)),
                Atom("edge", (y, z)),
                Assignment(c2, c + 1),
                Comparison("<=", c2, 8),
            ],
        )

        reference = ExecutionEngine(program, EngineConfig.interpreted()).evaluate()
        engine = ExecutionEngine(
            program, EngineConfig.parallel(shards=2, pool="process")
        )
        assert engine.evaluate()["path"] == reference["path"]
        assert "thread" in picked
        assert "process" not in picked

    def test_serial_pool_runs_in_order(self):
        calls = []

        class Recorder:
            def __init__(self, name):
                self.name = name

            def ping(self, value):
                calls.append((self.name, value))
                return value

        pool = SerialPool([Recorder("a"), Recorder("b")])
        assert pool.invoke("ping", [(1,), (2,)]) == [1, 2]
        assert calls == [("a", 1), ("b", 2)]


class TestTermination:
    def test_max_iterations_caps_the_sharded_loop(self, tc_edges):
        config = EngineConfig.parallel(shards=2, max_iterations=2)
        engine = tc_engine(tc_edges, config)
        engine.evaluate()
        report = engine.parallel_report
        assert report.strata[0].rounds <= 2


class TestShardBlockCounters:
    """Compiled shard artifacts run block kernels; their counters reach the
    profile just like a single-shard run's."""

    def test_every_compiling_backend_reports_its_kernels(self, tc_edges, tc_reference):
        seen = {}
        for shards in (1, 2):
            for backend in ("lambda", "quotes", "bytecode"):
                config = EngineConfig.parallel(
                    shards=shards, pool="serial", base=EngineConfig.jit(backend)
                )
                engine = tc_engine(tc_edges, config)
                assert engine.evaluate()["path"] == tc_reference
                joins = engine.profile.block_joins
                assert joins["batches"] > 0, (shards, backend)
                seen[shards, backend] = (joins["candidates"], joins["projected"])
        assert len(set(seen.values())) == 1, seen

    def test_default_sharded_interpretation_runs_bytecode_kernels(self, tc_edges):
        config = EngineConfig.parallel(shards=2, pool="serial")
        assert resolve_shard_backend(config) == "bytecode"
        engine = tc_engine(tc_edges, config)
        engine.evaluate()
        assert engine.profile.block_joins["batches"] > 0
