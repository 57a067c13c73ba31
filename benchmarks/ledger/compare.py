#!/usr/bin/env python3
"""Compare two sets of ledger runs, cell by cell (workload x metric).

    compare.py --repeat                  # this checkout against itself
    compare.py --pairs OLD_DIR NEW_DIR   # collect paired runs, then judge
    compare.py old.json new.json         # judge two collected sets

Runs are collected in pairs, one per side, alternating which side goes
first, each pair on its own ``--seed``.  The verdict per cell follows the
choosing-metrics rule for a small sandbox:

* *improved* — the new side wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the old side's own
  inter-quartile distance;
* *regressed* — the new median is worse than the old by more than the
  bound BENCHMARK.json fixes for the metric;
* *unresolved* — neither, and the old side's own spread (IQR / median)
  exceeds the bound, so "no change" cannot be told from noise;
* *unchanged* — neither, and the spread is within the bound.

``--repeat`` runs both sides from the same checkout and fails on any cell
whose two medians differ by more than the bound, in either direction — a
benchmark that disagrees with itself cannot gate anything.  Every ratio is
printed with its base (the old median).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

import paths

Runs = Dict[str, List[dict]]   # workload -> contract lines, one per pair


def load_manifest(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(checkout: str, manifest: dict, workload: str, seed: int,
             seconds: float) -> dict:
    """One driver-style run: the contract line, or a failed placeholder."""
    argv = list(manifest["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, ValueError):
        line = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if done.returncode != 0:
        line["correct"] = False
    return line


def collect_pairs(old_dir: str, new_dir: str, pairs: int, seconds: float,
                  first_seed: int) -> Tuple[Runs, Runs]:
    manifest = load_manifest(new_dir)
    old: Runs = {w["name"]: [] for w in manifest["workloads"]}
    new: Runs = {w["name"]: [] for w in manifest["workloads"]}
    for index in range(pairs):
        seed = first_seed + index
        sides = [(old_dir, old), (new_dir, new)]
        if index % 2:
            sides.reverse()  # alternate which side runs first
        for workload in old:
            for checkout, sink in sides:
                line = run_once(checkout, manifest, workload, seed, seconds)
                sink[workload].append(line)
                print(f"  pair {index + 1}/{pairs} {workload:15s} "
                      f"{'old' if sink is old else 'new'} seed {seed} "
                      f"{'ok' if line['correct'] else 'FAILED'}", flush=True)
    return old, new


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(old: Runs, new: Runs, manifest: dict) -> List[dict]:
    rows = []
    for workload in old:
        failed_old = sum(1 for line in old[workload] if not line["correct"])
        failed_new = sum(1 for line in new[workload] if not line["correct"])
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            pairs = [
                (a["metrics"][name]["value"], b["metrics"][name]["value"])
                for a, b in zip(old[workload], new[workload])
                if name in a["metrics"] and name in b["metrics"]
            ]
            if not pairs:
                rows.append({"workload": workload, "metric": name,
                             "verdict": "missing", "pairs": 0})
                continue
            old_values = [a for a, _ in pairs]
            new_values = [b for _, b in pairs]
            q1, old_median, q3 = quartiles(old_values)
            new_median = statistics.median(new_values)
            wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
            worse = sign * (new_median - old_median) / old_median
            spread = (q3 - q1) / old_median
            apart = abs(new_median - old_median) > (q3 - q1)
            if worse > bound:
                verdict = "regressed"
            elif wins >= 0.9 * len(pairs) and apart and failed_new <= failed_old:
                verdict = "improved"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "old_median": old_median, "old_q1": q1, "old_q3": q3,
                "new_median": new_median, "ratio": new_median / old_median,
                "wins": wins, "pairs": len(pairs),
                "spread": spread, "bound": bound, "verdict": verdict,
            })
        if failed_new > failed_old:
            rows.append({"workload": workload, "metric": "(failed runs)",
                         "verdict": "regressed", "pairs": len(new[workload]),
                         "old_median": failed_old, "new_median": failed_new})
    return rows


def print_rows(rows: List[dict]) -> None:
    print(f"\n{'workload':15s} {'metric':13s} {'old median [q1, q3]':>34s} "
          f"{'new median':>11s} {'new/old':>8s} {'wins':>7s} {'spread':>7s} "
          f"{'bound':>6s}  verdict")
    for row in rows:
        if "ratio" not in row:
            print(f"{row['workload']:15s} {row['metric']:13s} "
                  f"{'':>34s} {'':>11s} {'':>8s} {'':>7s} {'':>7s} {'':>6s}  "
                  f"{row['verdict']}")
            continue
        old = (f"{row['old_median']:.4g} [{row['old_q1']:.4g}, "
               f"{row['old_q3']:.4g}] {row['unit']}")
        print(f"{row['workload']:15s} {row['metric']:13s} {old:>34s} "
              f"{row['new_median']:11.4g} {row['ratio']:8.3f} "
              f"{row['wins']:>3d}/{row['pairs']:<3d} {row['spread']:7.3f} "
              f"{row['bound']:6.2f}  {row['verdict']}")
    print("\nnew/old: base is the old median of the same row.")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("files", nargs="*", metavar="RUNS.json",
                        help="old.json new.json: two collected sets to judge")
    parser.add_argument("--repeat", action="store_true",
                        help="collect both sides from this checkout")
    parser.add_argument("--pairs", nargs=2, metavar=("OLD_DIR", "NEW_DIR"),
                        help="collect paired runs from two checkouts")
    parser.add_argument("--runs", type=int, default=10,
                        help="pairs to collect (default 10; fewer is a smoke)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=str(paths.OUT),
                        help="directory for the collected old.json / new.json")
    args = parser.parse_args(argv)

    here = str(paths.REPO)
    if args.repeat or args.pairs:
        old_dir, new_dir = (here, here) if args.repeat else args.pairs
        manifest = load_manifest(new_dir)
        seconds = args.seconds or float(manifest["run_seconds"])
        old, new = collect_pairs(old_dir, new_dir, args.runs, seconds,
                                 args.first_seed)
        os.makedirs(args.out, exist_ok=True)
        for name, runs in (("old.json", old), ("new.json", new)):
            with open(os.path.join(args.out, name), "w", encoding="utf-8") as handle:
                json.dump(runs, handle, indent=1)
    elif len(args.files) == 2:
        manifest = load_manifest(here)
        with open(args.files[0], encoding="utf-8") as handle:
            old = json.load(handle)
        with open(args.files[1], encoding="utf-8") as handle:
            new = json.load(handle)
    else:
        parser.error("give --repeat, --pairs OLD NEW, or old.json new.json")

    rows = judge(old, new, manifest)
    print_rows(rows)
    failures = [row for row in rows if row["verdict"] in ("regressed", "missing")]
    if args.repeat:
        # Same code on both sides: a cell that moved by more than its bound
        # in *either* direction means the benchmark cannot gate on it.
        failures += [
            row for row in rows
            if "ratio" in row and row not in failures
            and abs(row["ratio"] - 1.0) > row["bound"]
        ]
    for row in failures:
        print(f"FAIL {row['workload']} {row['metric']}: {row['verdict']}, "
              f"new/old = {row.get('ratio', float('nan')):.3f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
