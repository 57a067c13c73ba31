"""The perf-regression gate (scripts/bench_compare.py) on synthetic JSON."""

import copy
import io
import json
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[2] / "scripts"
sys.path.insert(0, str(SCRIPTS))

import bench_compare  # noqa: E402


def harness_json(seconds_by_row):
    """A minimal repro.bench-shaped dump: one section, given row timings."""
    return {
        "harness": "repro.bench",
        "argv": ["--quick"],
        "total_seconds": sum(seconds_by_row.values()),
        "sections": {
            "vectorized": [
                {
                    "workload": workload,
                    "executor": "vectorized",
                    "equal": True,
                    "seconds": seconds,
                    "speedup": 1.0,
                }
                for workload, seconds in seconds_by_row.items()
            ]
        },
    }


BASELINE = harness_json({"tc_2k": 0.5, "cspa_tiny": 2.0})


def run_compare(baseline, fresh, **kwargs):
    out = io.StringIO()
    code = bench_compare.compare(baseline, fresh, out=out, **kwargs)
    return code, out.getvalue()


class TestCompare:
    def test_identical_runs_pass(self):
        code, text = run_compare(BASELINE, copy.deepcopy(BASELINE))
        assert code == 0
        assert "REGRESSION" not in text

    def test_small_noise_passes(self):
        fresh = harness_json({"tc_2k": 0.55, "cspa_tiny": 2.1})  # +10%, +5%
        code, text = run_compare(BASELINE, fresh)
        assert code == 0

    def test_two_x_slowdown_fails(self):
        code, text = run_compare(BASELINE, bench_compare.doctored(BASELINE))
        assert code == 1
        assert "** REGRESSION **" in text

    def test_single_row_regression_fails(self):
        fresh = harness_json({"tc_2k": 0.8, "cspa_tiny": 2.0})  # +60% one row
        code, text = run_compare(BASELINE, fresh)
        assert code == 1
        assert "tc_2k" in text and "** REGRESSION **" in text

    def test_regression_under_absolute_floor_is_noise(self):
        baseline = harness_json({"tiny": 0.002})
        fresh = harness_json({"tiny": 0.006})  # +200% but only +4 ms
        code, text = run_compare(baseline, fresh)
        assert code == 0

    def test_improvement_passes(self):
        fresh = harness_json({"tc_2k": 0.1, "cspa_tiny": 0.5})
        code, _ = run_compare(BASELINE, fresh)
        assert code == 0

    def test_missing_section_is_structural_mismatch(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["sections"] = {}
        code, text = run_compare(BASELINE, fresh)
        assert code == 2
        assert "MISMATCH" in text

    def test_missing_row_is_structural_mismatch(self):
        fresh = harness_json({"tc_2k": 0.5})
        code, text = run_compare(BASELINE, fresh)
        assert code == 2
        assert "cspa_tiny" in text

    def test_threshold_is_configurable(self):
        fresh = harness_json({"tc_2k": 0.55, "cspa_tiny": 2.2})  # +10% each
        code, _ = run_compare(BASELINE, fresh, threshold=0.05)
        assert code == 1


class TestRowSemantics:
    def test_identity_ignores_measurement_columns(self):
        row = {"workload": "tc_2k", "seconds": 0.5, "speedup": 2.0,
               "equal": True, "executor": "vectorized"}
        identity = bench_compare.row_identity(row)
        keys = [key for key, _value in identity]
        assert "seconds" not in keys and "speedup" not in keys
        assert "workload" in keys and "executor" in keys

    def test_row_seconds_sums_timing_columns(self):
        row = {"seconds": 0.5, "setup_seconds": 0.2, "speedup": 9.0}
        assert bench_compare.row_seconds(row) == pytest.approx(0.7)

    def test_doctored_scales_only_timings(self):
        slowed = bench_compare.doctored(BASELINE, factor=2.0)
        row = slowed["sections"]["vectorized"][0]
        original = BASELINE["sections"]["vectorized"][0]
        assert row["seconds"] == original["seconds"] * 2
        assert row["speedup"] == original["speedup"]


class TestSelfTestAndCli:
    def test_self_test_passes_on_sane_gate(self):
        out = io.StringIO()
        assert bench_compare.self_test(copy.deepcopy(BASELINE), out=out) == 0
        assert "self-test OK" in out.getvalue()

    def test_cli_round_trip(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        fresh_path = tmp_path / "fresh.json"
        baseline_path.write_text(json.dumps(BASELINE))
        fresh_path.write_text(json.dumps(bench_compare.doctored(BASELINE)))
        ok = subprocess.run(
            [sys.executable, str(SCRIPTS / "bench_compare.py"),
             str(baseline_path), str(baseline_path)],
            capture_output=True, text=True,
        )
        assert ok.returncode == 0, ok.stdout + ok.stderr
        slow = subprocess.run(
            [sys.executable, str(SCRIPTS / "bench_compare.py"),
             str(baseline_path), str(fresh_path)],
            capture_output=True, text=True,
        )
        assert slow.returncode == 1

    def test_committed_baseline_self_tests(self):
        """The baseline committed for CI keeps the gate honest."""
        baseline_path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "baseline.json"
        )
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        out = io.StringIO()
        assert bench_compare.self_test(baseline, out=out) == 0
        assert set(baseline["sections"]) == {
            "incremental", "vectorized", "interning", "telemetry",
            "resilience", "serving", "durability",
        }
        assert all("retract_heavy_ms" in row for row in baseline["sections"]["incremental"])
