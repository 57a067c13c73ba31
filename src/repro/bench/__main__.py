"""Run the whole evaluation harness: ``python -m repro.bench [options]``.

Prints every table and figure of the paper's evaluation section — plus the
repository's own subsystem benchmarks (``incremental``, ``vectorized``,
``interning``, ...) — regenerated over the synthetic datasets at the selected
scale.

Sections register in a single table (:data:`SECTIONS`: name → title →
columns → runner), so adding an experiment is one entry, automatically
picked up by ``--only`` and the JSON export.  ``--json PATH`` dumps every
measured row machine-readable (the repo's performance-trajectory format);
``--quick`` shrinks the section workloads that support it (CI smoke).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.bench.fig10 import FIG10_COLUMNS, run_fig10
from repro.bench.fig5 import FIG5_COLUMNS, run_fig5
from repro.bench.fig67 import FIG67_COLUMNS, run_fig6, run_fig7
from repro.bench.fig89 import FIG89_COLUMNS, run_fig8, run_fig9
from repro.bench.durability import DURABILITY_COLUMNS, run_durability
from repro.bench.formatting import format_rows
from repro.bench.incremental import INCREMENTAL_COLUMNS, run_incremental
from repro.bench.interning import INTERNING_COLUMNS, run_interning
from repro.bench.resilience import RESILIENCE_COLUMNS, run_resilience
from repro.bench.serving import SERVING_COLUMNS, run_serving
from repro.bench.table1 import TABLE1_COLUMNS, run_table1
from repro.bench.table2 import TABLE2_COLUMNS, run_table2
from repro.bench.telemetry import TELEMETRY_COLUMNS, run_telemetry
from repro.bench.vectorized import VECTORIZED_COLUMNS, run_vectorized

Rows = List[Dict[str, object]]


@dataclass(frozen=True)
class BenchSection:
    """One registered experiment of the harness."""

    name: str
    title: str
    columns: Tuple[str, ...]
    runner: Callable[[argparse.Namespace], Rows]


def _incremental_runner(args: argparse.Namespace) -> Rows:
    # --repeat scales the number of measured batches per phase (5 each at
    # the default repeat of 1), mirroring its per-cell meaning elsewhere.
    scales = [("tc_2k", 3_000, 2_000)] if args.quick else None
    return run_incremental(scales=scales, batches=5 * args.repeat)


SECTIONS: Tuple[BenchSection, ...] = (
    BenchSection(
        "table1", "Table I — interpreted execution time (s)", TABLE1_COLUMNS,
        lambda args: run_table1(repeat=args.repeat),
    ),
    BenchSection(
        "table2", "Table II — comparison with the state of the art (s)",
        TABLE2_COLUMNS, lambda args: run_table2(),
    ),
    BenchSection(
        "fig5", "Fig. 5 — code generation time per granularity (s)",
        FIG5_COLUMNS, lambda args: run_fig5(),
    ),
    BenchSection(
        "fig6", "Fig. 6 — macrobenchmark speedup over unoptimized",
        FIG67_COLUMNS,
        lambda args: run_fig6(repeat=args.repeat,
                              include_unindexed=not args.skip_unindexed),
    ),
    BenchSection(
        "fig7", "Fig. 7 — microbenchmark speedup over unoptimized",
        FIG67_COLUMNS,
        lambda args: run_fig7(repeat=args.repeat,
                              include_unindexed=not args.skip_unindexed),
    ),
    BenchSection(
        "fig8", "Fig. 8 — macrobenchmark speedup over hand-optimized",
        FIG89_COLUMNS,
        lambda args: run_fig8(repeat=args.repeat,
                              include_unindexed=not args.skip_unindexed),
    ),
    BenchSection(
        "fig9", "Fig. 9 — microbenchmark speedup over hand-optimized",
        FIG89_COLUMNS,
        lambda args: run_fig9(repeat=args.repeat,
                              include_unindexed=not args.skip_unindexed),
    ),
    BenchSection(
        "fig10", "Fig. 10 — ahead-of-time vs online compilation (speedup)",
        FIG10_COLUMNS, lambda args: run_fig10(repeat=args.repeat),
    ),
    BenchSection(
        "incremental",
        "Incremental sessions — update latency vs full recompute",
        INCREMENTAL_COLUMNS, _incremental_runner,
    ),
    BenchSection(
        "vectorized",
        "Vectorized execution — batch vs tuple-at-a-time sub-queries",
        VECTORIZED_COLUMNS,
        lambda args: run_vectorized(repeat=args.repeat, quick=args.quick),
    ),
    BenchSection(
        "interning",
        "Dictionary-encoded storage — interned vs raw-object evaluation",
        INTERNING_COLUMNS,
        lambda args: run_interning(repeat=args.repeat, quick=args.quick),
    ),
    BenchSection(
        "telemetry",
        "Telemetry — traced vs no-op vs bare evaluation overhead",
        TELEMETRY_COLUMNS,
        lambda args: run_telemetry(repeat=args.repeat, quick=args.quick),
    ),
    BenchSection(
        "resilience",
        "Resilience — governed vs ungoverned evaluation overhead",
        RESILIENCE_COLUMNS,
        lambda args: run_resilience(repeat=args.repeat, quick=args.quick),
    ),
    BenchSection(
        "serving",
        "Concurrent serving — mixed read/write latency under N clients",
        SERVING_COLUMNS,
        lambda args: run_serving(repeat=args.repeat, quick=args.quick),
    ),
    BenchSection(
        "durability",
        "Durability — WAL append cost and warm-restart speedup",
        DURABILITY_COLUMNS,
        lambda args: run_durability(repeat=args.repeat, quick=args.quick),
    ),
)


def _jsonable(value: object) -> object:
    """JSON-safe scalar: non-finite floats become None (strict JSON)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=1,
                        help="measurement repetitions per cell (default 1)")
    parser.add_argument("--skip-unindexed", action="store_true",
                        help="skip the unindexed variants (much slower)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced scales for sections that support it (CI smoke)")
    parser.add_argument("--only", metavar="NAME[,NAME...]",
                        help="run a subset of experiments (comma-separated "
                             f"names from: {', '.join(s.name for s in SECTIONS)})")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        help="also dump every measured row as JSON to PATH")
    args = parser.parse_args(argv)

    selected = None
    if args.only is not None:
        selected = {name.strip() for name in args.only.split(",") if name.strip()}
        known = {section.name for section in SECTIONS}
        if not selected:
            # An empty selection (e.g. --only "$UNSET_VAR" in CI) would
            # silently run nothing and exit 0 — fail loudly instead.
            parser.error(f"--only selected no sections; choose from {sorted(known)}")
        unknown = selected - known
        if unknown:
            parser.error(
                f"unknown section(s) {sorted(unknown)}; choose from {sorted(known)}"
            )

    started = time.perf_counter()
    collected: Dict[str, Rows] = {}
    for section in SECTIONS:
        if selected is not None and section.name not in selected:
            continue
        rows = section.runner(args)
        collected[section.name] = rows
        print(format_rows(rows, section.columns, section.title))
        print()

    total_seconds = time.perf_counter() - started
    if args.json_path:
        payload = {
            "harness": "repro.bench",
            "argv": list(argv) if argv is not None else sys.argv[1:],
            "total_seconds": total_seconds,
            "sections": {
                name: [
                    {key: _jsonable(value) for key, value in row.items()}
                    for row in rows
                ]
                for name, rows in collected.items()
            },
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote JSON results to {args.json_path}")

    print(f"total harness time: {total_seconds:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
