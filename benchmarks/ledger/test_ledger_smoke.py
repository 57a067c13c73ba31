"""Smoke test of the ledger benchmark's plumbing (toy scale, seconds).

Proves that the one command runs every workload in both passes, that
everything BENCHMARK.json names comes out with a unit and a sample count,
that nothing fails at this commit, and that a wrong oracle digest fails the
command.  It measures nothing: timings at this scale are noise.
"""

import json
import math
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py"), "--smoke"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def manifest():
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    """One full smoke run (both passes, four workloads)."""
    path = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = subprocess.run(
        RUN + ["--json", str(path)], cwd=REPO, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    document = json.loads(path.read_text(encoding="utf-8"))
    document["last_line"] = json.loads(done.stdout.strip().splitlines()[-1])
    return document


def reports(document, trace):
    return {r["workload"]: r for r in document["reports"] if r["trace"] == trace}


def test_manifest_shape(manifest):
    workloads = [w["name"] for w in manifest["workloads"]]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = workloads + [
        m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in manifest["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower",
              "bound": m["bound"]}
        for m in manifest["end_to_end"]
    )
    for workload in manifest["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for path in manifest["paths"]:
        assert (REPO / path).is_dir()


def test_every_workload_ran_both_passes_without_failures(manifest, document):
    names = {w["name"] for w in manifest["workloads"]}
    for trace in (0, 1):
        got = reports(document, trace)
        assert set(got) == names
        for report in got.values():
            assert report["attempted"] >= 1
            assert report["failed"] == 0, report["failures"]
    assert document["last_line"]["correct"] is True
    assert document["last_line"]["failed"] == 0


def test_every_end_to_end_metric_on_every_workload(manifest, document):
    for workload, report in reports(document, 0).items():
        for declared in manifest["end_to_end"]:
            measured = report["metrics"].get(declared["name"])
            assert measured is not None, (workload, declared["name"])
            assert measured["unit"] == declared["unit"]
            assert measured["n"] >= 1
            assert math.isfinite(measured["value"]) and measured["value"] > 0


def test_every_per_layer_metric_somewhere(manifest, document):
    ledger = reports(document, 1)
    for declared in manifest["per_layer"]:
        name = declared["name"]
        hits = [r["metrics"][name] for r in ledger.values() if name in r["metrics"]]
        if name.endswith("_tail_ms") and not hits:
            continue  # a tail needs >= 20 samples; the toy run has a handful
        assert hits, f"{name} is reported by no workload"
        for measured in hits:
            assert measured["unit"] == declared["unit"], name
            assert "n" in measured and math.isfinite(measured["value"]), name
    declared_names = {m["name"] for m in manifest["per_layer"]}
    for workload, report in ledger.items():
        extra = set(report["metrics"]) - declared_names
        assert not extra, f"{workload} reports undeclared metrics {extra}"


def test_ledger_reports_its_own_overhead(document):
    ledger = reports(document, 1)
    gaps = {
        name: metric["value"]
        for report in ledger.values()
        for name, metric in report["metrics"].items()
        if name.startswith("ledger_gap.")
    }
    assert {"ledger_gap.cold_query", "ledger_gap.page_read",
            "ledger_gap.full_read", "ledger_gap.write"} <= set(gaps)
    # The 10 % acceptance bound is a full-scale statement (history/*.json);
    # at toy scale a stage is microseconds, so only sanity is asserted.
    for name, gap in gaps.items():
        assert -0.9 < gap < 2.0, (name, gap)


def test_claims_each_workload_makes(document):
    ledger = reports(document, 1)
    cold = ledger["batch_cold"]["metrics"]
    assert cold["core.compile_s"]["value"] == 0
    assert cold["core.compilations"]["value"] == 0
    adaptive = ledger["batch_adaptive"]["metrics"]
    assert adaptive["core.compilations"]["value"] > 0
    assert adaptive["core.reorders_changed"]["value"] > 0
    assert ledger["serve_read"]["metrics"]["core.iterations_after_setup"]["value"] == 0
    churn = ledger["serve_churn"]["metrics"]
    assert churn["incremental.recompute_fallbacks"]["value"] == 0
    assert churn["durability.checkpoints_written"]["value"] >= 1
    assert churn["durability.replayed_records"]["value"] >= 0


def test_fingerprint(document):
    fingerprint = document["fingerprint"]
    for key in ("nproc", "python", "platform", "commit", "seed", "argv"):
        assert key in fingerprint


def test_doctored_digest_fails_the_command(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    key = next(k for k in expected if k.startswith("smoke:"))
    expected[key]["tc"]["sha256"] = "0" * 64
    doctored = tmp_path / "expected.json"
    doctored.write_text(json.dumps(expected), encoding="utf-8")
    done = subprocess.run(
        RUN + ["--workload", "batch_cold", "--trace", "0",
               "--expected", str(doctored)],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode != 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0
