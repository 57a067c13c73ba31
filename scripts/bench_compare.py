#!/usr/bin/env python3
"""Perf-regression gate: diff a fresh ``repro.bench`` JSON dump against a
committed baseline.

Usage::

    python scripts/bench_compare.py benchmarks/baseline.json BENCH.json
    python scripts/bench_compare.py --self-test benchmarks/baseline.json

Both files are the ``--json`` output of ``python -m repro.bench`` (shape:
``{harness, argv, total_seconds, sections: {name: [row dicts]}}``).  Rows
are matched across files by their *identity columns* — every column whose
name does not look like a measurement — and compared on their summed
timing columns (``seconds`` and ``*_seconds``).

Exit codes: 0 ok, 1 regression over threshold, 2 structural mismatch
(section or row present in the baseline but missing from the fresh run).

A fresh row must exceed the baseline by *both* the relative threshold
(default 25%) and a small absolute floor before it counts as a regression:
--quick rows run a few milliseconds, where scheduler noise alone can be a
large multiple.

``--self-test`` checks the gate itself: the baseline compared against
itself must pass, and compared against a doctored copy (every timing
doubled) must fail.  ``scripts/smoke.sh`` runs this so CI notices if the
comparison ever goes soft.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from typing import Dict, List, Tuple

#: Column-name fragments marking a value as a measurement, not an identity.
MEASUREMENT_HINTS = (
    "seconds", "speedup", "overhead", "span", "rows", "mb", "ratio",
    "p50", "p99", "_ms", "per_sec", "requests", "errors",
)

#: Ignore regressions smaller than this many seconds outright.
DEFAULT_ABSOLUTE_FLOOR = 0.01


def is_measurement(column: str) -> bool:
    lowered = column.lower()
    # ``*_s`` is the incremental section's spelling of seconds.
    return lowered.endswith("_s") or any(
        hint in lowered for hint in MEASUREMENT_HINTS
    )


def row_identity(row: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    """The stable identity of one bench row: its non-measurement columns."""
    return tuple(sorted(
        (key, str(value))
        for key, value in row.items()
        if not is_measurement(key)
    ))


def row_seconds(row: Dict[str, object]) -> float:
    """The summed wall-time of one row's timing columns."""
    total = 0.0
    for key, value in row.items():
        if key == "seconds" or key.endswith("_seconds"):
            try:
                total += float(value)
            except (TypeError, ValueError):
                pass
    return total


def identity_label(identity: Tuple[Tuple[str, str], ...]) -> str:
    return " ".join(f"{key}={value}" for key, value in identity)


def compare(
    baseline: Dict[str, object],
    fresh: Dict[str, object],
    threshold: float = 0.25,
    absolute_floor: float = DEFAULT_ABSOLUTE_FLOOR,
    out=sys.stdout,
) -> int:
    """Print the per-row delta table; return the exit code."""
    base_sections = baseline.get("sections", {})
    fresh_sections = fresh.get("sections", {})
    missing_sections = sorted(set(base_sections) - set(fresh_sections))
    if missing_sections:
        print(
            f"MISMATCH: sections missing from fresh run: {missing_sections}",
            file=out,
        )
        return 2

    exit_code = 0
    for section in sorted(base_sections):
        base_rows = {
            row_identity(row): row_seconds(row)
            for row in base_sections[section]
        }
        fresh_rows = {
            row_identity(row): row_seconds(row)
            for row in fresh_sections[section]
        }
        missing = sorted(set(base_rows) - set(fresh_rows))
        if missing:
            print(f"MISMATCH [{section}]: rows missing from fresh run:",
                  file=out)
            for identity in missing:
                print(f"  {identity_label(identity)}", file=out)
            return 2

        print(f"section {section} (threshold +{threshold:.0%}, "
              f"floor {absolute_floor}s):", file=out)
        section_base = 0.0
        section_fresh = 0.0
        for identity in sorted(base_rows):
            base_s = base_rows[identity]
            fresh_s = fresh_rows[identity]
            section_base += base_s
            section_fresh += fresh_s
            delta = fresh_s - base_s
            relative = delta / base_s if base_s > 0 else 0.0
            regressed = (
                relative > threshold and delta > absolute_floor
            )
            marker = "  ** REGRESSION **" if regressed else ""
            print(
                f"  {identity_label(identity)}: "
                f"{base_s:.4f}s -> {fresh_s:.4f}s "
                f"({relative:+.1%}){marker}",
                file=out,
            )
            if regressed:
                exit_code = 1
        delta = section_fresh - section_base
        relative = delta / section_base if section_base > 0 else 0.0
        regressed = relative > threshold and delta > absolute_floor
        if regressed:
            exit_code = 1
        print(
            f"  total: {section_base:.4f}s -> {section_fresh:.4f}s "
            f"({relative:+.1%})"
            + ("  ** REGRESSION **" if regressed else ""),
            file=out,
        )
    return exit_code


def doctored(data: Dict[str, object], factor: float = 2.0) -> Dict[str, object]:
    """A deep copy with every timing column scaled by ``factor``."""
    slowed = copy.deepcopy(data)
    for rows in slowed.get("sections", {}).values():
        for row in rows:
            for key, value in list(row.items()):
                if key == "seconds" or key.endswith("_seconds"):
                    try:
                        row[key] = float(value) * factor
                    except (TypeError, ValueError):
                        pass
    return slowed


def self_test(baseline: Dict[str, object], out=sys.stdout) -> int:
    """Baseline-vs-itself must pass; baseline-vs-2x-doctored must fail."""
    clean = compare(baseline, copy.deepcopy(baseline), out=out)
    if clean != 0:
        print("SELF-TEST FAILED: baseline vs itself did not pass", file=out)
        return 1
    slowed = compare(baseline, doctored(baseline), out=out)
    if slowed != 1:
        print(
            "SELF-TEST FAILED: baseline vs 2x-doctored copy did not "
            f"report a regression (exit {slowed})",
            file=out,
        )
        return 1
    print("self-test OK: identical run passes, 2x slowdown fails", file=out)
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("fresh", nargs="?", help="fresh bench JSON to gate")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative wall-time regression limit (0.25 = +25%%)")
    parser.add_argument("--absolute-floor", type=float,
                        default=DEFAULT_ABSOLUTE_FLOOR,
                        help="ignore regressions smaller than this (seconds)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate catches a synthetic 2x slowdown")
    args = parser.parse_args(argv)

    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    if args.self_test:
        return self_test(baseline)
    if args.fresh is None:
        parser.error("fresh JSON required unless --self-test")
    with open(args.fresh, encoding="utf-8") as handle:
        fresh = json.load(handle)
    code = compare(
        baseline, fresh,
        threshold=args.threshold, absolute_floor=args.absolute_floor,
    )
    if code == 0:
        print("bench-compare OK")
    return code


if __name__ == "__main__":
    sys.exit(main())
