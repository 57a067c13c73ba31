"""Benchmark-owned spans, the per-class stage tables built from them, and
the markdown rendering of those tables (README "Where the time goes")."""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Tuple

from stats import median


class Tracer:
    """Benchmark-owned spans.  Two levels are all the ledger needs: a root
    span per replayed request (its own trace id) and one child per stage."""

    def __init__(self) -> None:
        #: (id, trace, parent, name, layer, start, end)
        self.spans: List[tuple] = []
        #: (request class, stage) -> stage durations, in seconds.
        self.samples: Dict[Tuple[str, str], List[float]] = {}
        self.layers: Dict[Tuple[str, str], str] = {}
        self._next_id = 0
        self._root: Optional["_Span"] = None

    def request(self, klass: str) -> "_Span":
        return _Span(self, klass, "request", None)

    def stage(self, name: str, layer: str) -> "_Span":
        return _Span(self, name, layer, self._root)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, trace, parent, name, layer, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "trace": trace, "parent": parent,
                    "name": name, "layer": layer, "start": start, "end": end,
                }) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "layer", "parent", "id", "start", "children")

    def __init__(self, tracer: Tracer, name: str, layer: str,
                 parent: Optional["_Span"]) -> None:
        self.tracer, self.name, self.layer, self.parent = (
            tracer, name, layer, parent
        )
        self.children = 0.0   # seconds covered by child spans

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.id = tracer._next_id
        tracer._next_id += 1
        if self.parent is None:
            tracer._root = self
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        tracer, parent = self.tracer, self.parent
        seconds = end - self.start
        if parent is None:
            tracer._root = None
            trace, parent_id, klass = self.id, None, self.name
            # A root's self time: what its stages do not cover.
            key, value = (klass, "(span overhead)"), seconds - self.children
            tracer.layers[key] = "benchmark"
        else:
            parent.children += seconds
            trace, parent_id, klass = parent.id, parent.id, parent.name
            key, value = (klass, self.name), seconds
            tracer.layers[key] = self.layer
        tracer.samples.setdefault(key, []).append(value)
        tracer.spans.append(
            (self.id, trace, parent_id, self.name, self.layer, self.start, end)
        )


def stage_table(tracer: Tracer, klass: str, one_shot: List[float],
                wire: Optional[List[float]] = None) -> dict:
    """One request class as a table: per-stage median, layer and sample
    count; the staged sum over the layers' stages (the root's own time —
    span bookkeeping between stages — is listed but not summed); the
    untraced one-shot; the wire median."""
    stages = [
        {"stage": stage, "layer": tracer.layers[(k, stage)],
         "ms": median(values) * 1e3, "n": len(values)}
        for (k, stage), values in tracer.samples.items() if k == klass
    ]
    table = {
        "stages": stages,
        "staged_ms": sum(
            row["ms"] for row in stages if row["layer"] != "benchmark"
        ),
        "one_shot_ms": median(one_shot) * 1e3,
    }
    table["gap"] = table["staged_ms"] / table["one_shot_ms"] - 1.0
    if wire:
        table["wire_ms"] = median(wire) * 1e3
        table["transport_ms"] = table["wire_ms"] - table["staged_ms"]
    return table


def stage_ms(table: dict, stage: str) -> float:
    return next(row["ms"] for row in table["stages"] if row["stage"] == stage)


BEGIN_MARK = "<!-- ledger:begin (generated by run.py --ledger --markdown) -->"
END_MARK = "<!-- ledger:end -->"


def markdown_tables(reports: List[dict]) -> str:
    """The "where the time goes" tables, from ledger reports."""
    out: List[str] = []
    for report in reports:
        for title, table in report.get("notes", {}).get("tables", {}).items():
            out.append(f"**{report['workload']} — {title}**")
            out.append("")
            out.append("| stage | layer | median ms | share | n |")
            out.append("|---|---|---:|---:|---:|")
            total = table["staged_ms"] or 1.0
            for row in table["stages"]:
                share = (
                    "" if row["layer"] == "benchmark"
                    else f"{row['ms'] / total:.1%}"
                )
                out.append(
                    f"| `{row['stage']}` | {row['layer']} | {row['ms']:.4g} | "
                    f"{share} | {row['n']} |"
                )
            out.append(f"| staged sum | | {table['staged_ms']:.4g} | 100% | |")
            out.append(
                f"| untraced one-shot | | {table['one_shot_ms']:.4g} | "
                f"gap {table['gap']:+.1%} | |"
            )
            if "collector_on_ms" in table:
                out.append(
                    f"| one-shot, cyclic collector on | | "
                    f"{table['collector_on_ms']:.4g} | | |"
                )
            if "wire_ms" in table:
                out.append(f"| wire p50 | | {table['wire_ms']:.4g} | | |")
                out.append(
                    f"| transport residual (wire - staged) | server | "
                    f"{table['transport_ms']:.4g} | | |"
                )
            out.append("")
    return "\n".join(out)


def splice_readme(path, tables: str) -> None:
    text = path.read_text(encoding="utf-8")
    head, _, rest = text.partition(BEGIN_MARK)
    _, _, tail = rest.partition(END_MARK)
    path.write_text(
        f"{head}{BEGIN_MARK}\n\n{tables}\n{END_MARK}{tail}", encoding="utf-8"
    )
