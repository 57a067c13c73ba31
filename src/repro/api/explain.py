"""Rendering of query plans and adaptive-execution decisions.

One formatter serves every producer of :class:`~repro.api.result.QueryResult`
objects — the single-shot engine, connections over incremental sessions, and
shard-parallel evaluations — so ``.explain()`` output looks the same whatever
path computed the rows: the configuration, the (possibly JIT-rewritten) IR
tree, and the join-order / code-generation decisions taken at runtime.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import EngineConfig
from repro.core.profile import RuntimeProfile
from repro.ir.ops import JoinProjectOp, ProgramOp, find_nodes
from repro.ir.printer import explain as explain_tree
from repro.relational.operators import lower_plan
from repro.relational.symbols import IDENTITY

#: Sub-query plans whose generated kernels ``explain()`` prints in full.
_KERNELS_SHOWN = 12


def _format_order(order) -> str:
    return " ⋈ ".join(order) if order else "(empty)"


def _block_kernel_lines(tree: ProgramOp, symbols) -> List[str]:
    """Each sub-query's block plan with, under it, the comprehension every
    positive atom was lowered to (the text the kernels run, not a sketch)."""
    plans = {node.plan.describe(): node.plan
             for node in find_nodes(tree, JoinProjectOp)}
    lines = ["block kernels (one generated comprehension per positive atom):"]
    for described, plan in list(plans.items())[:_KERNELS_SHOWN]:
        lines.append(f"  {plan.rule_name or plan.head_relation}: {described}")
        for text in lower_plan(plan, symbols or IDENTITY).sources:
            lines.extend(f"    {line}" for line in (text or "").splitlines())
    if len(plans) > _KERNELS_SHOWN:
        lines.append(f"  ... {len(plans) - _KERNELS_SHOWN} more sub-queries")
    return lines


def render_explain(
    title: str,
    config: EngineConfig,
    tree: Optional[ProgramOp] = None,
    profile: Optional[RuntimeProfile] = None,
    relation: Optional[str] = None,
    row_count: Optional[int] = None,
    symbols=None,
    trace=None,
    analyze: Optional[str] = None,
) -> str:
    """A human-readable account of how a result was (or will be) computed.

    ``analyze`` is an optional pre-rendered EXPLAIN ANALYZE block (see
    :func:`repro.introspect.render_analyze`) appended as its own section —
    rendered by the caller so this module stays introspection-free.
    """
    lines: List[str] = [f"-- {title}"]
    if relation is not None:
        suffix = "" if row_count is None else f"  ({row_count} rows)"
        lines.append(f"relation: {relation}{suffix}")
    lines.append(f"configuration: {config.describe()}")
    detail = f"mode={config.mode.value}"
    if config.executor != "pushdown":
        detail += f" executor={config.executor}"
    if config.mode.value == "jit":
        detail += (
            f" backend={config.backend}"
            f" granularity={config.granularity.value}"
            f" compilation={'async' if config.async_compilation else 'blocking'}"
        )
    if config.mode.value == "aot":
        detail += f" sort={config.aot_sort.value} online={config.aot_online}"
    if config.sharding is not None and config.sharding.shards > 1:
        detail += f" shards={config.sharding.shards} pool={config.sharding.pool}"
    lines.append(detail)
    if symbols is not None and not getattr(symbols, "identity", True):
        lines.append(
            f"dictionary encoding: {len(symbols)} symbols interned, "
            f"{symbols.rows_encoded} rows encoded, "
            f"{symbols.rows_decoded} rows decoded"
        )

    if tree is not None:
        lines.append("")
        lines.append("plan (after any adaptive rewrites):")
        lines.extend("  " + line for line in explain_tree(tree).splitlines())
        if profile is not None and profile.block_joins:  # block kernels ran
            lines.append("")
            lines.extend(_block_kernel_lines(tree, symbols))

    if profile is not None:
        lines.append("")
        sources = (
            f"sub-queries {profile.sources.interpreted} interpreted / "
            f"{profile.sources.compiled} compiled"
        )
        if profile.sources.vectorized:
            sources += f" / {profile.sources.vectorized} vectorized"
        lines.append(
            f"execution: {profile.iteration_count()} iterations, "
            f"{len(profile.compile_events)} compilations "
            f"({profile.total_compile_seconds() * 1000:.1f} ms), "
            f"{profile.artifacts_reused} artifacts reused, "
            + sources
        )
        if profile.block_joins:
            joins = profile.block_joins
            lines.append(
                f"vectorized batches: {joins.get('batches', 0)} "
                f"(index-probe {joins.get('index', 0)}, "
                f"table-build {joins.get('build', 0)}, "
                f"scan {joins.get('scan', 0)}; "
                f"{profile.candidates_per_head_row() or 0:.2f} candidates per head row)"
            )
        if profile.block_plans:
            latest = dict(profile.block_plans)  # last prediction per rule wins
            lines.append("vectorized plan strategies (latest per rule):")
            for rule_name, strategies in list(latest.items())[:8]:
                lines.append(f"  {rule_name}: {' ⋈ '.join(strategies)}")
        if profile.reorders:
            changed = [r for r in profile.reorders if r.decision.changed]
            lines.append(
                f"adaptive join-order decisions: {len(profile.reorders)} "
                f"({len(changed)} changed the as-written order)"
            )
            shown = 0
            for record in profile.reorders:
                if not record.decision.changed:
                    continue
                lines.append(
                    f"  [{record.stage}] {record.rule_name}: "
                    f"{_format_order(record.decision.original_order)} -> "
                    f"{_format_order(record.decision.chosen_order)} "
                    f"(est. cost {record.decision.estimated_cost:.1f}"
                    + (f", {record.reason})" if record.reason else ")")
                )
                shown += 1
                if shown >= 12:
                    lines.append(
                        f"  ... {len(changed) - shown} more changed decisions"
                    )
                    break
        else:
            lines.append("adaptive join-order decisions: none recorded")
        if profile.cache_probes:
            probes = profile.cache_probes
            lines.append(
                f"snapshot cache: {probes.get('hit', 0)} hits, "
                f"{probes.get('miss', 0)} misses"
            )
        if profile.pool_degradations:
            lines.append(
                f"pool degradations: {profile.pool_degradations} "
                "(process pool substituted)"
            )

    if trace is not None:
        lines.append("")
        lines.append("trace (most recent):")
        lines.extend("  " + line for line in trace.render().splitlines())

    if analyze is not None:
        lines.append("")
        lines.extend(analyze.splitlines())
    return "\n".join(lines)
