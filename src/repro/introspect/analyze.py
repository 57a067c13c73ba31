"""EXPLAIN ANALYZE: actual per-operator timings merged with predictions.

Block kernels — the vectorized interpreter's and the lambda backend's
artifacts alike — record one ``op:*`` span per body position per
sub-query evaluation (attributes: ``rule``, ``relation``, ``rows_in``,
``rows_out``), and the join-order optimizer records an
:class:`~repro.core.join_order.OrderingDecision` per optimized rule,
including the estimated intermediate cardinality after each join position.
This module lines the two up — actuals aggregated by (rule, position)
across iterations, predictions from the most recent decision per rule —
and flags the positions whose worst observed cardinality exceeds the
prediction by :data:`DEFAULT_MISESTIMATE_RATIO` or more, the signal the
cost-based-planning roadmap item will consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Actual/predicted row-count ratio at which a join operator is flagged.
DEFAULT_MISESTIMATE_RATIO = 8.0


@dataclass
class OperatorActual:
    """Aggregated observations of one operator position of one rule."""

    rule: str
    position: int                 # index within the rule's operator sequence
    name: str                     # "op:join" / "op:negation" / "op:filter" / ...
    relation: str
    join_position: Optional[int]  # index among the rule's joins, None otherwise
    calls: int = 0
    rows_in: int = 0
    rows_out: int = 0
    max_rows_out: int = 0
    duration_ns: int = 0

    def absorb(self, span) -> None:
        self.calls += 1
        self.rows_in += int(span.attributes.get("rows_in", 0) or 0)
        rows_out = int(span.attributes.get("rows_out", 0) or 0)
        self.rows_out += rows_out
        self.max_rows_out = max(self.max_rows_out, rows_out)
        self.duration_ns += span.duration_ns


def collect_operator_actuals(trace) -> Dict[str, List[OperatorActual]]:
    """Aggregate a trace's ``op:*`` spans by rule and operator position.

    Positions are assigned by occurrence order within each (rule, parent
    span) group — one sub-query evaluation emits the rule's operators in
    plan order under one parent — then merged across iterations, so every
    returned position covers the rule's whole lifetime in the trace.
    """
    sequences: Dict[Tuple[str, Optional[int]], int] = {}
    actuals: Dict[Tuple[str, int], OperatorActual] = {}
    for span in trace.spans:
        if not span.name.startswith("op:"):
            continue
        rule = str(span.attributes.get("rule", "?"))
        group = (rule, span.parent_id)
        position = sequences.get(group, 0)
        sequences[group] = position + 1
        actual = actuals.get((rule, position))
        if actual is None:
            actual = OperatorActual(
                rule=rule,
                position=position,
                name=span.name,
                relation=str(span.attributes.get("relation", "?")),
                join_position=None,
            )
            actuals[(rule, position)] = actual
        actual.absorb(span)
    grouped: Dict[str, List[OperatorActual]] = {}
    for (rule, _position), actual in sorted(
        actuals.items(), key=lambda item: item[0]
    ):
        grouped.setdefault(rule, []).append(actual)
    for operators in grouped.values():
        join_index = 0
        for operator in operators:
            if operator.name == "op:join":
                operator.join_position = join_index
                join_index += 1
    return grouped


def latest_decisions(profile) -> Dict[str, object]:
    """The most recent :class:`OrderingDecision` record per rule name."""
    decisions: Dict[str, object] = {}
    for record in getattr(profile, "reorders", ()):
        decisions[record.rule_name] = record
    return decisions


@dataclass
class AnalyzedOperator:
    """One rendered EXPLAIN ANALYZE line: an actual and its prediction."""

    actual: OperatorActual
    predicted_rows: Optional[float] = None
    misestimate: bool = False
    ratio: Optional[float] = None


@dataclass
class AnalyzedRule:
    rule: str
    operators: List[AnalyzedOperator] = field(default_factory=list)
    stage: Optional[str] = None   # reorder stage the prediction came from


def analyze_trace(
    profile,
    trace,
    threshold: float = DEFAULT_MISESTIMATE_RATIO,
) -> List[AnalyzedRule]:
    """Merge a trace's operator actuals with the profile's predictions."""
    decisions = latest_decisions(profile)
    analyzed: List[AnalyzedRule] = []
    for rule, operators in collect_operator_actuals(trace).items():
        record = decisions.get(rule)
        estimated: Tuple[float, ...] = ()
        stage = None
        if record is not None:
            estimated = getattr(record.decision, "estimated_rows", ()) or ()
            stage = record.stage
        entry = AnalyzedRule(rule=rule, stage=stage)
        for operator in operators:
            item = AnalyzedOperator(actual=operator)
            if (
                operator.join_position is not None
                and operator.join_position < len(estimated)
            ):
                predicted = float(estimated[operator.join_position])
                item.predicted_rows = predicted
                item.ratio = operator.max_rows_out / max(predicted, 1.0)
                item.misestimate = item.ratio >= threshold
            entry.operators.append(item)
        analyzed.append(entry)
    return analyzed


def render_analyze(
    profile,
    trace,
    threshold: float = DEFAULT_MISESTIMATE_RATIO,
) -> str:
    """The EXPLAIN ANALYZE text block (appended to ``explain()`` output)."""
    lines: List[str] = [
        "explain analyze (actual operators vs join-order predictions, "
        f"misestimate at {threshold:g}x):"
    ]
    if trace is None:
        lines.append(
            "  no trace captured — configure telemetry "
            "(EngineConfig.with_(telemetry=tracing())) and run a query first"
        )
        return "\n".join(lines)
    analyzed = analyze_trace(profile, trace, threshold)
    if not analyzed:
        lines.append(
            "  no per-operator spans in the most recent trace — per-operator "
            "actuals come from block kernels: executor='vectorized' or a "
            "compiling backend — jit('lambda'), 'quotes' or 'bytecode'"
        )
        return "\n".join(lines)
    for entry in analyzed:
        stage = f" (prediction from {entry.stage} reorder)" if entry.stage else ""
        lines.append(f"  rule {entry.rule}:{stage}")
        for item in entry.operators:
            actual = item.actual
            text = (
                f"    [{actual.position}] {actual.name} {actual.relation}: "
                f"calls={actual.calls} rows_in={actual.rows_in} "
                f"rows_out={actual.rows_out} (max {actual.max_rows_out}) "
                f"time={actual.duration_ns / 1e6:.3f} ms"
            )
            if item.predicted_rows is not None:
                text += (
                    f" | predicted~{item.predicted_rows:.0f} rows"
                    f" ratio={item.ratio:.1f}x"
                )
                if item.misestimate:
                    text += "  ** misestimate **"
            lines.append(text)
    return "\n".join(lines)
