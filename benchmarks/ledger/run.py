#!/usr/bin/env python3
"""The layered performance ledger: one command, four workloads.

    python benchmarks/ledger/run.py                      # everything, ~5 min
    python benchmarks/ledger/run.py --workload serve_read --trace 0
    python benchmarks/ledger/run.py --ledger --markdown  # per-layer tables
    python benchmarks/ledger/run.py --smoke              # plumbing, seconds

Each workload runs in its own child process (own peak RSS, own hard
wall-clock cap).  ``--trace 0`` is the end-to-end pass: nothing is
instrumented.  ``--trace 1`` (alias ``--ledger``) is the separate traced
pass that replays a sample of the workload's operations stage by stage
through the layers' public functions under benchmark-owned spans.  With
neither flag both passes run.

Every metric is printed by name with its unit and sample count; every
output is checked against the oracle; any failed, refused, timed-out or
mismatching operation makes the exit code non-zero.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

import paths

import configs

BENCHMARK_JSON = paths.REPO / "BENCHMARK.json"
README = paths.HERE / "README.md"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", default=None,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=2024,
                        help="relabels constants, shuffles facts, picks offsets")
    parser.add_argument("--structure-seed", type=int,
                        default=configs.STRUCTURE_SEED,
                        help="shape of the generated inputs (hold-out runs)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass only; 1: ledger pass only")
    parser.add_argument("--ledger", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="toy scale: proves the plumbing, measures nothing")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the full result document here")
    parser.add_argument("--markdown", action="store_true",
                        help="regenerate the ledger tables of README.md")
    parser.add_argument("--expected", default=None, metavar="PATH",
                        help="oracle digests to check against "
                             "(default: the committed expected.json)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_manifest() -> dict:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- the workload child --------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """Run one workload in this process; print its report as one JSON line."""
    import oracle
    from workloads import RUNNERS, Args

    (workload,) = args.workload
    scale_name = "smoke" if args.smoke else "full"
    run_args = Args(
        seed=args.seed, structure_seed=args.structure_seed,
        seconds=args.seconds,
        scale=configs.SMOKE if args.smoke else configs.FULL,
        scale_name=scale_name,
        expected_path=args.expected or str(oracle.EXPECTED_PATH),
    )
    if args.trace:
        from ledger import run_ledger

        report = run_ledger(workload, run_args)
    else:
        report = RUNNERS[workload](run_args)
    print(json.dumps(report.as_dict()), flush=True)
    return 0


# -- the runner ------------------------------------------------------------------------


class ChildGroup:
    """The one workload child (and its server grandchildren) alive now.

    The child leads its own process group, so a hang, a crash or our own
    termination ends in one ``killpg`` that leaves nothing behind."""

    def __init__(self) -> None:
        self.proc: Optional[subprocess.Popen] = None

    def kill(self) -> None:
        proc = self.proc
        if proc is None:
            return
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        self.proc = None

    def run(self, argv: List[str], cap: float) -> Optional[str]:
        """The child's stdout, or None when it hit the wall-clock cap."""
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            start_new_session=True, text=True,
        )
        try:
            stdout, _ = self.proc.communicate(timeout=cap)
            return stdout
        except subprocess.TimeoutExpired:
            return None
        finally:
            self.kill()  # also reaps any straggling grandchild


def run_child(group: ChildGroup, workload: str, trace: int,
              args: argparse.Namespace) -> dict:
    argv = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--trace", str(trace),
        "--seed", str(args.seed), "--structure-seed", str(args.structure_seed),
        "--seconds", str(args.seconds),
    ]
    if args.smoke:
        argv.append("--smoke")
    if args.expected:
        argv += ["--expected", args.expected]
    cap = configs.CAP_FACTOR * args.seconds + configs.CAP_CONSTANT
    started = time.perf_counter()
    stdout = group.run(argv, cap)
    wall = time.perf_counter() - started
    report = None
    if stdout:
        lines = stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1]) if lines else None
        except ValueError:
            report = None
    if report is None:
        # A hang or a crash: every operation of the workload counts as failed.
        why = "hit the wall-clock cap" if stdout is None else "crashed"
        report = {
            "workload": workload, "attempted": 1, "failed": 1,
            "correct": False, "metrics": {}, "notes": {},
            "failures": [f"workload child {why} after {wall:.0f} s"],
        }
    report["trace"] = trace
    report["wall_s"] = wall
    return report


def fingerprint(args: argparse.Namespace) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(paths.REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "commit": commit,
        "seed": args.seed, "structure_seed": args.structure_seed,
        "seconds": args.seconds, "scale": "smoke" if args.smoke else "full",
        "argv": sys.argv[1:],
    }


def print_report(report: dict) -> None:
    kind = "ledger" if report["trace"] else "end-to-end"
    print(f"\n== {report['workload']} ({kind}, {report['wall_s']:.1f} s wall) ==")
    for name, metric in report["metrics"].items():
        label = f"  [{metric['label']}]" if metric.get("label") else ""
        print(f"{name:38s} {metric['value']:14.6g} {metric['unit']:8s} "
              f"n={metric['n']}{label}")
    for key, value in report.get("notes", {}).items():
        if key != "tables":  # rendered by --markdown
            print(f"  note {key} = {value}")
    share = report["failed"] / max(1, report["attempted"])
    print(f"{'failed_share':38s} {share:14.6g} {'ratio':8s} "
          f"n={report['attempted']}")
    for message in report.get("failures", []):
        print(f"  FAILED: {message}")


def contract_line(reports: List[dict], manifest: dict) -> dict:
    """The driver's last line.  For a single (workload, trace) run: exactly
    the manifest's end-to-end or per-layer metrics (a layer the workload
    leaves idle reads 0).  For several runs: metrics keyed by
    ``workload/name``."""
    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    metrics: Dict[str, dict] = {}
    single = len(reports) == 1
    for report in reports:
        declared = manifest["per_layer" if report["trace"] else "end_to_end"]
        for entry in declared:
            measured = report["metrics"].get(entry["name"])
            if measured is None:
                if not report["trace"]:
                    failed += 1  # an end-to-end metric is never idle
                    attempted += 1
                value = 0.0
            else:
                value = measured["value"]
            key = entry["name"] if single else f"{report['workload']}/{entry['name']}"
            metrics[key] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": failed == 0, "attempted": max(1, attempted),
        "failed": failed, "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    manifest = load_manifest()
    if args.seconds is None:
        args.seconds = 0.4 if args.smoke else float(manifest["run_seconds"])
    if args.child:
        return child_main(args)

    from workloads import WORKLOADS

    selected = args.workload or list(WORKLOADS)
    unknown = sorted(set(selected) - set(WORKLOADS))
    if unknown:
        print(f"unknown workload(s): {unknown}; expected {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    traces = (0, 1) if args.trace is None else (args.trace,)

    paths.OUT.mkdir(exist_ok=True)
    group = ChildGroup()

    def terminate(signum, _frame):
        group.kill()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    signal.signal(signal.SIGINT, terminate)

    reports: List[dict] = []
    for trace in traces:
        for workload in selected:
            report = run_child(group, workload, trace, args)
            print_report(report)
            reports.append(report)

    document = {"fingerprint": fingerprint(args), "reports": reports}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    if args.markdown:
        from spans import markdown_tables, splice_readme

        tables = markdown_tables([r for r in reports if r["trace"]])
        splice_readme(README, tables)
        print("\n" + tables)

    line = contract_line(reports, manifest)
    print()
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
