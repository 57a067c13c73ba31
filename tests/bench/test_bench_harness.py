"""Tests for the benchmark harness (measurement, drivers, formatting).

The drivers are exercised at tiny scales — the goal is to verify plumbing
(every expected column is produced, speedups are finite and positive), not to
reproduce the paper's numbers, which `python -m repro.bench` does at full
default scale.
"""

import math

import pytest

from repro.analyses.ordering import Ordering
from repro.bench.configurations import (
    fig10_configurations,
    jit_configurations,
    table1_configurations,
)
from repro.bench.fig10 import run_fig10
from repro.bench.fig5 import run_fig5
from repro.bench.fig67 import run_fig7
from repro.bench.fig89 import run_fig9
from repro.bench.formatting import format_rows
from repro.bench.measurement import measure_benchmark, measure_program, speedup
from repro.bench.table1 import run_table1
from repro.bench.table2 import run_table2
from repro.core.config import EngineConfig
from repro.datalog.parser import parse_program


class TestMeasurement:
    def test_measure_program_reports_result_size(self):
        program = parse_program(
            "edge(1, 2). edge(2, 3). path(X, Y) :- edge(X, Y)."
            " path(X, Z) :- path(X, Y), edge(Y, Z)."
        )
        result = measure_program(program, EngineConfig.interpreted(), "path",
                                 benchmark="tc", ordering="written")
        assert result.result_size == 3
        assert result.seconds > 0
        assert result.benchmark == "tc"
        assert result.as_row()["configuration"] == "interpreted+idx"

    def test_measure_benchmark_by_name(self):
        result = measure_benchmark("fibonacci", EngineConfig.interpreted(), Ordering.OPTIMIZED)
        assert result.result_size == 25
        assert result.iterations > 0

    def test_repeat_averages(self):
        result = measure_benchmark("fibonacci", EngineConfig.interpreted(), repeat=2)
        assert result.runs == 2

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        assert math.isinf(speedup(1.0, 0.0))


class TestConfigurationSets:
    def test_jit_configuration_labels(self):
        labels = [label for label, _ in jit_configurations(use_indexes=True)]
        assert "JIT Quotes Async" in labels and "JIT IRGenerator" in labels
        assert len(labels) == 6

    def test_table1_configurations(self):
        configs = table1_configurations()
        assert set(configs) == {"indexed", "unindexed"}
        assert configs["unindexed"].use_indexes is False

    def test_fig10_configurations(self):
        labels = [label for label, _ in fig10_configurations()]
        assert labels[0] == "JIT-lambda"
        assert any("Macro Rules" in label for label in labels)


class TestDrivers:
    def test_table1_row_structure(self):
        rows = run_table1(benchmarks=["fibonacci"])
        assert len(rows) == 1
        row = rows[0]
        assert {"unindexed_unoptimized", "indexed_optimized"} <= set(row)
        assert row["indexed_optimized"] > 0

    def test_table2_row_structure(self):
        rows = run_table2(benchmarks=["andersen"], toolchain_seconds=0.01)
        row = rows[0]
        for column in ("dlx", "souffle_interpreter", "souffle_compiler",
                       "souffle_auto_tuned", "carac_jit"):
            assert row[column] > 0

    def test_fig5_rows(self):
        rows = run_fig5(benchmark="cspa_tiny", warm_compilations=2, backends=("quotes",))
        assert rows
        for row in rows:
            assert row["cold_seconds"] > 0
            assert row["warm_seconds"] > 0
        granularities = {row["granularity"] for row in rows}
        assert "JoinProjectOp" in granularities

    def test_fig7_speedups_positive(self):
        rows = run_fig7(benchmarks=["fibonacci"], include_unindexed=False)
        row = rows[0]
        assert row["Hand-Optimized"] > 0
        assert all(
            row[label] > 0 for label, _ in jit_configurations(use_indexes=True)
        )

    def test_fig9_speedups_positive(self):
        rows = run_fig9(benchmarks=["fibonacci"], include_unindexed=False)
        row = rows[0]
        assert all(row[label] > 0 for label, _ in jit_configurations(use_indexes=True))

    def test_fig10_rows(self):
        rows = run_fig10(benchmarks=["fibonacci"])
        row = rows[0]
        assert "Macro Facts+rules" in row
        assert row["JIT-lambda"] > 0


class TestServingDriver:
    def test_serving_rows_have_every_column(self):
        from repro.bench.serving import SERVING_COLUMNS, run_serving

        rows = run_serving(quick=True, client_counts=(2,),
                           requests_per_client=5)
        assert len(rows) == 2  # one per mix
        for row in rows:
            assert set(row) == set(SERVING_COLUMNS)
            assert row["errors"] == 0
            assert row["requests"] == 10
            assert row["ops_per_sec"] > 0
            assert row["p50_ms"] <= row["p99_ms"]

    def test_percentile_nearest_rank(self):
        from repro.bench.serving import percentile

        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 0.5) == 3.0
        assert percentile(samples, 0.99) == 5.0
        assert percentile([], 0.5) == 0.0


class TestFormatting:
    def test_format_rows_alignment_and_title(self):
        rows = [{"a": 1, "b": 0.123456}, {"a": 22, "b": 7.0}]
        text = format_rows(rows, ("a", "b"), title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_rows_empty(self):
        assert "(no rows)" in format_rows([], title="x")


class TestMemoryMeasurement:
    def test_measure_memory_reports_retained_and_peak(self):
        from repro.bench.measurement import measure_memory

        def build():
            return [("x" * 64) + str(i) for i in range(2_000)]

        result, memory = measure_memory(build)
        assert len(result) == 2_000
        assert memory.retained_bytes > 100_000          # ~2k strings kept alive
        assert memory.peak_bytes >= memory.retained_bytes
        assert memory.retained_mb() == pytest.approx(
            memory.retained_bytes / (1024 * 1024)
        )

    def test_transient_allocations_are_not_retained(self):
        from repro.bench.measurement import measure_memory

        def churn():
            waste = [("y" * 64) + str(i) for i in range(2_000)]
            return len(waste)

        _result, memory = measure_memory(churn)
        assert memory.peak_bytes > 100_000
        assert memory.retained_bytes < memory.peak_bytes / 4

    def test_nested_measurements_propagate_the_peak(self):
        from repro.bench.measurement import measure_memory

        def inner():
            waste = [("z" * 64) + str(i) for i in range(4_000)]
            return len(waste)

        def outer():
            # The inner call's reset_peak would otherwise clobber the
            # enclosing high-water mark; its observed peak must surface
            # in the outer measurement.
            _count, inner_memory = measure_memory(inner)
            assert inner_memory.peak_bytes > 200_000
            return inner_memory

        inner_memory, outer_memory = measure_memory(outer)
        assert outer_memory.peak_bytes >= inner_memory.peak_bytes


class TestInterningSection:
    def test_quick_rows_have_expected_shape(self):
        from repro.bench.interning import INTERNING_COLUMNS, run_interning

        rows = run_interning(
            workloads=[],
            memory_scale=(500, 100),
        )
        assert all(set(INTERNING_COLUMNS) <= set(row) for row in rows)
        by_codec = {row["codec"]: row for row in rows}
        assert by_codec["interned"]["equal"] is True
        assert by_codec["interned"]["mem_ratio"] > 1.0
        assert by_codec["raw"]["retained_mb"] > by_codec["interned"]["retained_mb"]

    def test_speed_rows_compare_raw_and_interned(self):
        from repro.bench.interning import run_interning, tc_workload

        rows = run_interning(
            workloads=[tc_workload(edge_count=60, nodes=40)],
            memory_scale=(200, 50),
        )
        speed = [row for row in rows if row["seconds"] is not None]
        assert {row["codec"] for row in speed} == {"raw", "interned"}
        assert all(row["equal"] for row in speed)
        assert all(row["seconds"] > 0 for row in speed)

    def test_load_streamed_matches_bulk_load(self):
        from repro.bench.interning import load_streamed
        from repro.relational.storage import StorageManager
        from repro.relational.symbols import SymbolTable

        rows = [((f"k{i % 7}", i % 5), (f"k{i % 3}", i % 4)) for i in range(40)]
        streamed = StorageManager(symbols=SymbolTable())
        streamed.declare("edge", 2)
        load_streamed(streamed, "edge", iter(rows), chunk=8)
        assert streamed.decoded_tuples("edge") == set(rows)


class TestSectionSelection:
    def test_only_accepts_comma_separated_sections(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--quick", "--only", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out

    def test_only_rejects_unknown_sections(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["--only", "fig5,nope"])

    def test_only_rejects_an_empty_selection(self):
        # e.g. --only "$UNSET_VAR" in a CI script: running zero sections
        # and exiting 0 would let a perf gate pass on no data.
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["--only", ""])
        with pytest.raises(SystemExit):
            main(["--only", " , "])


class TestDriversCheckTheirResults:
    """Every Fig. 6–10 row names each configuration's executor and whether
    all of them computed the baseline's result size."""

    DRIVERS = {
        "fig7": ("repro.bench.fig67", "jit_configurations",
                 lambda: run_fig7(benchmarks=["fibonacci"], include_unindexed=False)),
        "fig9": ("repro.bench.fig89", "jit_configurations",
                 lambda: run_fig9(benchmarks=["fibonacci"], include_unindexed=False)),
        "fig10": ("repro.bench.fig10", "fig10_configurations",
                  lambda: run_fig10(benchmarks=["fibonacci"])),
    }

    @pytest.mark.parametrize("figure", sorted(DRIVERS))
    def test_every_configuration_agrees_with_the_baseline(self, figure):
        import importlib

        module_name, configurations, run = self.DRIVERS[figure]
        labelled = getattr(importlib.import_module(module_name), configurations)
        rows = run()
        assert rows and all(row["equal"] is True for row in rows)
        for row in rows:
            executors = row["executor"].split(",")
            # The interpreted baseline first, then one per configuration.
            assert executors[0] == "pushdown"
            assert executors[-len(labelled(True)):] == [
                config.executor for _, config in labelled(True)
            ]

    @pytest.mark.parametrize("figure", sorted(DRIVERS))
    def test_a_configuration_that_drops_a_rule_is_flagged(self, figure, monkeypatch):
        import importlib

        from repro.analyses.registry import get_benchmark

        module_name, configurations, run = self.DRIVERS[figure]
        module = importlib.import_module(module_name)
        labelled = getattr(module, configurations)
        seeded = EngineConfig.jit("lambda").with_(label="drops-a-rule")
        monkeypatch.setattr(module, configurations,
                            lambda *args, **kwargs: labelled(*args, **kwargs)
                            + [("Seeded", seeded)])

        def measure(name, config, ordering=Ordering.WRITTEN, repeat=1):
            spec = get_benchmark(name)
            program = spec.build(ordering)
            if config is seeded:
                program.rules.remove(program.rules_for(spec.query_relation)[-1])
            return measure_program(program, config, spec.query_relation,
                                   benchmark=name, repeat=repeat)

        monkeypatch.setattr(module, "measure_benchmark", measure)
        rows = run()
        assert rows and all(row["equal"] is False for row in rows)
