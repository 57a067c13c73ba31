"""Runtime profiling: what the engine did while evaluating a program.

The profile is both a debugging aid and the raw material of the evaluation
harness: per-stratum iteration counts, per-iteration delta cardinalities,
reorder decisions, compilation events and where each sub-query execution was
served from (interpreter vs compiled artifact).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.join_order import OrderingDecision
from repro.relational.statistics import CardinalitySnapshot


@dataclass
class IterationRecord:
    """One semi-naive iteration of one stratum."""

    stratum: int
    iteration: int
    promoted: int
    delta_cardinalities: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0


@dataclass
class ReorderRecord:
    """One join-order decision taken at runtime (or ahead of time)."""

    node_id: int
    rule_name: str
    stage: str                      # "seed", "jit", "aot"
    decision: OrderingDecision
    #: What a JIT re-plan did with its node's artifact: ``"recompiled"``
    #: (the node had no artifact for these orders), ``"reused-order"`` (it
    #: had one: swapped in, no lowering, no compile).  Empty for decisions
    #: that gate no artifact (seed, ahead-of-time, reorder-only, a re-plan
    #: interpreted while an asynchronous compilation is pending).
    reason: str = ""


@dataclass
class ExecutionSource:
    """Counts of how sub-query executions were served."""

    interpreted: int = 0
    compiled: int = 0
    vectorized: int = 0

    def total(self) -> int:
        return self.interpreted + self.compiled + self.vectorized


@dataclass
class RuntimeProfile:
    """Everything observed during one program evaluation."""

    iterations: List[IterationRecord] = field(default_factory=list)
    reorders: List[ReorderRecord] = field(default_factory=list)
    sources: ExecutionSource = field(default_factory=ExecutionSource)
    compile_events: List[object] = field(default_factory=list)
    wall_seconds: float = 0.0
    result_sizes: Dict[str, int] = field(default_factory=dict)
    #: Block-kernel counters (vectorized interpreter and compiled artifacts
    #: alike): evaluated batches; how each positive atom of a batch got its
    #: rows ("index": probed a live per-column index, "build": built a table
    #: for the batch because no key column carries one, "scan": unkeyed);
    #: and "candidates" rows handed to head projections against the
    #: "projected" rows those returned.
    block_joins: Dict[str, int] = field(default_factory=dict)
    #: Per-plan strategy predictions taken alongside join-order decisions
    #: (rule name -> one strategy per positive atom, in chosen order).
    block_plans: List[Tuple[str, Tuple[str, ...]]] = field(default_factory=list)
    #: Dictionary-encoding counters (interned symbols, rows encoded at the
    #: load/mutation boundary, rows decoded at the result boundary); empty
    #: when the evaluation ran with ``interning=False``.
    symbol_stats: Dict[str, int] = field(default_factory=dict)
    #: Cache probe outcomes ("hit"/"miss" counts) observed during the
    #: evaluation — currently the per-iteration SnapshotCache; folded into
    #: the telemetry registry as ``snapshot_cache_total``.
    cache_probes: Dict[str, int] = field(default_factory=dict)
    #: Times a requested worker pool was substituted for a safer kind
    #: (e.g. process → thread when compiled plans allocate symbols).
    pool_degradations: int = 0
    #: Shard workers that died mid-stratum (each one also counts a pool
    #: degradation: the stratum re-ran on the next-safer pool kind).
    worker_failures: int = 0
    #: Stale JIT re-plans that landed on join orders their node had already
    #: compiled, and ran that artifact instead of compiling (the
    #: ``"reused-order"`` decisions, counted once per node).
    artifacts_reused: int = 0

    # -- recording -------------------------------------------------------------

    def record_iteration(self, stratum: int, iteration: int, promoted: int,
                         snapshot: Optional[CardinalitySnapshot],
                         seconds: float) -> None:
        self.iterations.append(
            IterationRecord(
                stratum=stratum,
                iteration=iteration,
                promoted=promoted,
                delta_cardinalities=dict(snapshot.delta) if snapshot else {},
                seconds=seconds,
            )
        )

    def record_reorder(self, node_id: int, rule_name: str, stage: str,
                       decision: OrderingDecision) -> ReorderRecord:
        record = ReorderRecord(node_id, rule_name, stage, decision)
        self.reorders.append(record)
        return record

    def record_interpreted(self) -> None:
        self.sources.interpreted += 1

    def record_compiled(self) -> None:
        self.sources.compiled += 1

    def record_vectorized(self) -> None:
        self.sources.vectorized += 1

    def record_block_plan(self, rule_name: str,
                          strategies: Tuple[str, ...]) -> None:
        self.block_plans.append((rule_name, strategies))

    def record_symbol_stats(self, symbols) -> None:
        """Snapshot a symbol table's counters into the profile."""
        if symbols is None or getattr(symbols, "identity", True):
            return
        self.symbol_stats = {
            "symbols": len(symbols),
            "rows_encoded": symbols.rows_encoded,
            "rows_decoded": symbols.rows_decoded,
        }

    def absorb_block_stats(self, stats: Optional[Dict[str, int]]) -> None:
        """Fold one evaluator's batch counters into the profile (a no-op
        for an evaluator that ran no block kernel)."""
        if not stats or not stats.get("batches"):
            return
        for key, value in stats.items():
            self.block_joins[key] = self.block_joins.get(key, 0) + value

    def candidates_per_head_row(self) -> Optional[float]:
        """Rows the block kernels handed to head projections per row those
        returned (None before any kernel produced a row).  Near 1 when
        duplicate derivations collapse inside the join steps."""
        if not self.block_joins.get("projected"):
            return None
        return self.block_joins["candidates"] / self.block_joins["projected"]

    def record_cache_probes(self, hits: int, misses: int) -> None:
        """Fold cache hit/miss counts into the profile."""
        if hits:
            self.cache_probes["hit"] = self.cache_probes.get("hit", 0) + hits
        if misses:
            self.cache_probes["miss"] = self.cache_probes.get("miss", 0) + misses

    # -- summaries -------------------------------------------------------------

    def iteration_count(self) -> int:
        return len(self.iterations)

    def reorder_count(self, changed_only: bool = False) -> int:
        if not changed_only:
            return len(self.reorders)
        return sum(1 for record in self.reorders if record.decision.changed)

    def total_compile_seconds(self) -> float:
        return sum(getattr(event, "seconds", 0.0) for event in self.compile_events)

    def summary(self) -> Dict[str, object]:
        """A compact dictionary used by the benchmark harness and examples."""
        return {
            "wall_seconds": self.wall_seconds,
            "iterations": self.iteration_count(),
            "reorders": self.reorder_count(),
            "reorders_changed": self.reorder_count(changed_only=True),
            "compilations": len(self.compile_events),
            "compile_seconds": self.total_compile_seconds(),
            "artifacts_reused": self.artifacts_reused,
            "subqueries_interpreted": self.sources.interpreted,
            "subqueries_compiled": self.sources.compiled,
            "subqueries_vectorized": self.sources.vectorized,
            "block_joins": dict(self.block_joins),
            "symbol_stats": dict(self.symbol_stats),
            "result_sizes": dict(self.result_sizes),
        }
