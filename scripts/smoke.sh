#!/usr/bin/env bash
# Fast CI smoke: the quick test subset plus one micro-benchmark sanity run.
#
# Usage: scripts/smoke.sh [--full]
#   default  ~1 minute: unit + integration tests (slow-marked tests skipped)
#            and the incremental-update acceptance benchmark at reduced scale
#   --full   also runs the slow-marked tests and the pytest-benchmark suite
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 test suite =="
python -m pytest -x -q

echo
echo "== incremental acceptance benchmarks (10k-edge graph) =="
# One mixed batch beats a recompute >= 5x, and a heavy retraction's
# re-derivation costs what its deletion cone costs (<= 3x over-deletion).
python -m pytest -x -q \
    benchmarks/bench_incremental.py::test_single_batch_speedup_at_10k_edges \
    benchmarks/bench_incremental.py::test_heavy_retract_is_cone_priced

echo
echo "== vectorized acceptance benchmarks (CSPA, tc_10k JIT backends) =="
# The block kernels beat pushdown >= 3x on CSPA, and — a count, so it cannot
# flake — hand the head projection <= 1.5 candidate rows per row it returns
# on the duplicate-heavy hand-optimised order (the join steps emit distinct
# rows; nothing de-duplicates a materialised candidate list afterwards).
# The quotes and bytecode artifacts run those same kernels: each stays
# within 1.25x of the vectorized interpreter on the 10k-edge closure.
python -m pytest -x -q \
    benchmarks/bench_vectorized.py::test_vectorized_speedup_on_cspa \
    benchmarks/bench_vectorized.py::test_duplicate_heavy_join_is_distinct_priced \
    "benchmarks/bench_vectorized.py::test_jit_backend_tracks_vectorized_interpreter[tc_10k-quotes]" \
    "benchmarks/bench_vectorized.py::test_jit_backend_tracks_vectorized_interpreter[tc_10k-bytecode]"

echo
echo "== subsystem smoke benches (perf trajectory -> BENCH.json) =="
# One machine-readable dump per CI run: incremental update latency (with
# the heavy-retraction tail), vectorized executor,
# dictionary-encoded storage, telemetry overhead, governance overhead,
# concurrent serving latency and durable warm restart at --quick scale.  smoke.yml uploads BENCH.json as an artifact, and the
# committed baseline gates it below.
python -m repro.bench --quick --only incremental,vectorized,interning,telemetry,resilience,serving,durability --json BENCH.json

echo
echo "== what a server start imports (-> BOOT_IMPORTS.txt) =="
# The 15 costliest imports of `import repro.server` by cumulative time, next
# to the bench dump (smoke.yml uploads both): the durability section's
# boot_ms says *that* a start got slower, this says which module did it.
python -X importtime -c "import repro.server" 2>&1 \
    | sort -t'|' -k2 -n -r | sed -n 1,15p | tee BOOT_IMPORTS.txt
test -s BOOT_IMPORTS.txt

echo
echo "== perf-regression gate (BENCH.json vs benchmarks/baseline.json) =="
# First prove the gate itself still bites (a doctored 2x slowdown must
# fail), then diff the fresh run against the committed baseline: any
# section or row more than 25% slower (and past the noise floor) fails CI.
python scripts/bench_compare.py --self-test benchmarks/baseline.json > /dev/null
python scripts/bench_compare.py benchmarks/baseline.json BENCH.json

echo
echo "== concurrent query server (boot, mixed load, clean shutdown) =="
# Boot the asyncio server on a background thread, drive it with the
# serving load generator (4 clients, 90/10 read/write mix), then check
# the self-reported counters over the wire before shutting down —
# including that reads at new versions *derived* their row order from the
# previous version (merged) instead of re-sorting the relation (one cold
# sort per relation first read, and nothing else), and that a repeated full
# read was answered from the version's encoded body.
python - <<'PY'
from repro.analyses.micro import build_transitive_closure_program
from repro.api.database import Database
from repro.bench.serving import run_mixed_load
from repro.server import BlockingClient, ServerThread

database = Database(
    build_transitive_closure_program([(i, i + 1) for i in range(50)])
)
with ServerThread(database) as server:
    with BlockingClient(server.host, server.port) as client:
        client.query("path", limit=1)  # the one cold build: no base yet
    outcome = run_mixed_load(server.host, server.port, clients=4,
                             requests_per_client=25, write_ratio=0.1)
    assert outcome["errors"] == 0, outcome
    with BlockingClient(server.host, server.port) as client:
        stats = client.server_stats()
        assert stats["mutations_applied"] > 0
        assert stats["snapshot_version"] == stats["mutations_applied"]
        assert len(client.query("sys_server")) == 1
        views = {
            labels: value
            for name, labels, _, value in client.query("sys_metrics")
            if name == "ordered_views_total"
        }
        merged = views.pop("how=merged", 0)
        assert 0 < merged <= stats["snapshot_version"], (views, merged)
        assert views == {"how=sorted,reason=no-base": 1}, views
        assert stats["snapshots"]["ordered_merged"] == merged
        # How rows reached the wire is the server's own output too: the
        # load's pages were joined from symbol ids; two unbounded reads of
        # one version are one encode and one answer from the encoded memo.
        count = client.query_response("path")["count"]
        client.query_response("path")
        served = {
            labels: value
            for name, labels, _, value in client.query("sys_metrics")
            if name == "server_rows_served_total"
        }
        assert served["how=memo"] == count, served
        assert served["how=fragments"] > count, served
    print(f"served {len(outcome['latencies'])} requests over 4 connections; "
          f"{stats['mutations_applied']} mutation batches committed; "
          f"{int(merged)} versions ordered by merge, 1 by sort")
database.close()
PY

echo
echo "== kill -9 then recover (WAL survives an unclean server death) =="
# Boot the server CLI on a durability directory, commit a mutation over
# the wire, SIGKILL the process (no drain, no checkpoint-on-close), then
# restart from the same directory and verify the committed rows come
# back over the wire.
python - <<'PY'
import os
import signal
import subprocess
import sys
import tempfile

from repro.server import BlockingClient

workdir = tempfile.mkdtemp(prefix="repro-smoke-durability-")
program = os.path.join(workdir, "tc.dl")
durdir = os.path.join(workdir, "dur")
with open(program, "w", encoding="utf-8") as handle:
    handle.write(
        "edge(1, 2).\n"
        "edge(2, 3).\n"
        "path(X, Y) :- edge(X, Y).\n"
        "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
    )

def boot():
    """Start the server; returns (process, port, its recovery banner)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--program", program,
         "--port", "0", "--durability", durdir],
        stderr=subprocess.PIPE, text=True,
    )
    recovered = None
    while True:
        line = proc.stderr.readline()
        assert line, "server exited before listening"
        if line.startswith("recovered "):
            recovered = line.strip()
        if "listening on" in line:
            return proc, int(line.rsplit(":", 1)[1]), recovered

proc, port, _ = boot()
with BlockingClient("127.0.0.1", port) as client:
    client.insert("edge", [[3, 4]])
    client.retract("edge", [[2, 3]])
    client.insert("edge", [[2, 3]])
    before = len(client.query("path"))
proc.kill()  # SIGKILL: the WAL is all that survives
proc.wait()

proc, port, recovered = boot()
assert "3 WAL records" in recovered and "slowest replayed record: seq" in recovered, recovered
print(recovered)
try:
    with BlockingClient("127.0.0.1", port) as client:
        paths = client.query("path")
        assert len(paths) == before, (len(paths), before)
        assert (1, 4) in paths, "replayed mutation lost its derived rows"
finally:
    proc.send_signal(signal.SIGINT)
    proc.wait()
print(f"recovered {before} path rows across a kill -9 restart")
PY

echo
echo "== fault-injected server boot (typed error over the wire, then recovery) =="
# Boot the server CLI with REPRO_FAULTS arming the WAL fsync point to fail
# exactly once.  The first committed mutation must surface as a *typed*
# durability_error on the wire (never a stack trace or a hung client); the
# schedule then recovers, so the retried mutation commits and survives a
# restart of the same directory.
python - <<'PY'
import os
import signal
import subprocess
import sys
import tempfile

from repro.server import BlockingClient
from repro.server.client import ServerError

workdir = tempfile.mkdtemp(prefix="repro-smoke-faults-")
program = os.path.join(workdir, "tc.dl")
durdir = os.path.join(workdir, "dur")
with open(program, "w", encoding="utf-8") as handle:
    handle.write(
        "edge(1, 2).\n"
        "edge(2, 3).\n"
        "path(X, Y) :- edge(X, Y).\n"
        "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
    )

def boot(faults=None):
    env = dict(os.environ)
    if faults is not None:
        env["REPRO_FAULTS"] = faults
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--program", program,
         "--port", "0", "--durability", durdir, "--fsync", "always"],
        stderr=subprocess.PIPE, text=True, env=env,
    )
    while True:
        line = proc.stderr.readline()
        assert line, "server exited before listening"
        if "listening on" in line:
            return proc, int(line.rsplit(":", 1)[1])

proc, port = boot(faults="wal.fsync:fail_nth=1")
try:
    with BlockingClient("127.0.0.1", port) as client:
        try:
            client.insert("edge", [[3, 4]])
        except ServerError as error:
            assert error.code == "durability_error", error.code
        else:
            raise AssertionError("injected fsync fault never surfaced")
        client.insert("edge", [[3, 4]])  # the schedule recovered
        assert (1, 4) in client.query("path")
finally:
    proc.send_signal(signal.SIGINT)
    proc.wait()

proc, port = boot()  # clean boot: the committed write replayed from WAL
try:
    with BlockingClient("127.0.0.1", port) as client:
        assert (1, 4) in client.query("path"), "post-fault commit not durable"
finally:
    proc.send_signal(signal.SIGINT)
    proc.wait()
print("typed durability_error over the wire; post-fault commit durable")
PY

echo
echo "== sample trace (JSON-lines artifact -> TRACE_SAMPLE.jsonl) =="
# A small vectorized, fully traced round-trip; the trace lands in
# TRACE_SAMPLE.jsonl (one JSON document per completed trace), which
# smoke.yml uploads so reviewers can eyeball span trees without re-running.
python - <<'PY'
from repro import Database, EngineConfig, Program
from repro.telemetry import tracing

program = Program("smoke_trace")
edge, path = program.relations("edge", "path", arity=2)
x, y, z = program.variables("x", "y", "z")
path(x, y) <= edge(x, y)
path(x, z) <= path(x, y) & edge(y, z)
edge.add_facts([(i, i + 1) for i in range(40)])

config = EngineConfig.interpreted().with_(
    executor="vectorized",
    telemetry=tracing(ring=16, jsonl_path="TRACE_SAMPLE.jsonl"),
)
with Database(program, config) as db, db.connect() as conn:
    result = conn.query("path")
    trace = result.trace()
    assert trace is not None and len(trace) > 3, "trace capture failed"
    conn.insert_facts("edge", [(41, 0)])
    print(f"captured {len(trace)} query spans; metrics: "
          f"{db.metrics()['rows_derived_total']} rows derived")
PY
test -s TRACE_SAMPLE.jsonl

echo
echo "== public-API drift guard (snapshot) =="
python -m pytest -x -q tests/api

echo
echo "== examples (DeprecationWarning = error, so API drift fails here) =="
for example in examples/*.py; do
  echo "-- ${example}"
  python -W error::DeprecationWarning "${example}" > /dev/null
done

echo
echo "== micro-benchmark sanity (fibonacci, one JIT configuration) =="
python - <<'PY'
from repro.analyses.registry import get_benchmark
from repro.core.config import EngineConfig

spec = get_benchmark("fibonacci")
result = spec.query(EngineConfig.jit("lambda"))
assert result.count() > 0, "fibonacci benchmark produced no tuples"
print(f"fibonacci: {result.count()} tuples; first rows {result.take(3)}")
PY

if [[ "${1:-}" == "--full" ]]; then
  echo
  echo "== slow tests =="
  python -m pytest -q --runslow tests
  echo
  echo "== pytest-benchmark suite =="
  # Explicit file list: bench_*.py does not match pytest's default
  # python_files pattern, so a bare `pytest benchmarks` collects nothing
  # (and its exit code 5 would abort this script).
  python -m pytest -q benchmarks/bench_*.py
fi

echo
echo "smoke OK"
