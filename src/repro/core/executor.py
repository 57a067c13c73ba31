"""The IROp executor: interpreter, JIT driver and safe-point logic.

This is where the paper's Adaptive Metaprogramming loop actually happens.
The executor walks the IROp tree produced by the plan builder.  In
interpreted mode it simply evaluates each σπ⋈ leaf with the generic
sub-query evaluator in the as-written order.  In JIT mode, whenever execution
reaches a node at the configured compilation granularity, it:

1. re-runs the join-order optimizer over that node's sub-queries using the
   live cardinalities of the Derived and Delta databases,
2. asks the compilation manager for an artifact — compiling synchronously,
   or asynchronously while the interpreter keeps making progress on the
   freshly reordered (but interpreted) plans,
3. applies the freshness test before re-generating code for a node that
   already has an artifact, and skips the code generation when the re-plan
   lands on join orders the node has already compiled: that artifact runs
   again (recorded as ``"reused-order"``, against ``"recompiled"``).

Re-planned plans are kept per (σπ⋈ node, join order), so interpreting an
order a second time — during an asynchronous compilation, inside an
``irgen`` artifact, under reorder-only execution — finds the block kernel
lowered the first time.

Because all state lives in the relational storage layer, every node boundary
is a safe point: execution can switch between interpretation and any
compiled artifact between any two IROps (paper §V-B3).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.backends.base import ArtifactFunction, get_backend
from repro.core.compilation import CompilationManager
from repro.core.config import (
    AOTSortMode,
    CompilationGranularity,
    EngineConfig,
    ExecutionMode,
)
from repro.core.freshness import FreshnessTest
from repro.core.join_order import (
    JoinOrderOptimizer,
    annotate_block_strategies,
    storage_cardinality_view,
    storage_index_view,
)
from repro.core.profile import ReorderRecord, RuntimeProfile
from repro.datalog.terms import Aggregate, Variable, evaluate_aggregate
from repro.ir.ops import (
    AggregateOp,
    DoWhileOp,
    InsertOp,
    IROp,
    JoinProjectOp,
    ProgramOp,
    RelationUnionOp,
    ScanOp,
    SequenceOp,
    StratumOp,
    SwapClearOp,
    UnionOp,
)
from repro.relational.operators import (
    AtomSource,
    JoinPlan,
    SubqueryEvaluator,
    evaluate_raw_term,
)
from repro.resilience.limits import NOOP_GOVERNOR
from repro.relational.relation import Row
from repro.relational.statistics import SnapshotCache, StatisticsCollector
from repro.relational.storage import DatabaseKind, StorageManager


class IRExecutor:
    """Executes an IROp tree under one :class:`EngineConfig`."""

    def __init__(self, storage: StorageManager, config: EngineConfig,
                 profile: Optional[RuntimeProfile] = None,
                 tracer=None, trace_strata: bool = True,
                 governor=None) -> None:
        self.storage = storage
        self.config = config
        self.profile = profile if profile is not None else RuntimeProfile()
        #: ``trace_strata=False`` suppresses this executor's own stratum
        #: spans — used when a parallel coordinator already opened one and
        #: runs strata through a nested serial executor.
        self.tracer = tracer if tracer is not None else config.tracer()
        self.trace_strata = trace_strata
        #: Query-lifecycle governance: deadline / row / round limits plus
        #: cooperative cancellation, checked at iteration boundaries (and
        #: per sub-query plan inside the evaluator).  NOOP when unbounded.
        self.governor = governor if governor is not None else config.governor()
        self.evaluator = SubqueryEvaluator(
            storage, config.evaluator_style, executor=config.executor,
            tracer=self.tracer, governor=self.governor,
        )
        self.stats = StatisticsCollector()
        self.freshness = FreshnessTest(config.freshness_threshold, self.stats)

        self._jit_reordering = config.mode == ExecutionMode.JIT or (
            config.mode == ExecutionMode.AOT and config.aot_online
        )
        self.optimizer: Optional[JoinOrderOptimizer] = None
        if self._jit_reordering or config.mode == ExecutionMode.AOT:
            self.optimizer = JoinOrderOptimizer(config.selectivity)

        self.compilation: Optional[CompilationManager] = None
        if config.mode == ExecutionMode.JIT:
            backend = get_backend(config.backend)
            self.compilation = CompilationManager(backend, config.async_compilation)
        #: Reordered plans run as block kernels under the vectorized
        #: interpreter and inside every artifact of a compiling backend —
        #: all but irgen, which re-interprets (profiled as such).
        self._block_kernels = config.executor == "vectorized" or (
            self.compilation is not None and config.backend != "irgen"
        )

        #: (σπ⋈ node id, join order) -> the first plan re-planned to it; a
        #: repeated order hands back that object, so the evaluator's kernel
        #: memo (keyed by plan object) lowers each order once.
        self._orders: Dict[Tuple[int, Tuple[AtomSource, ...]], JoinPlan] = {}

        self._current_iteration = 0
        # Cardinality snapshots are reused across adaptive nodes within one
        # iteration (Derived/Delta-Known only change at swap/seed
        # boundaries), instead of re-copying every cardinality dict.
        self._snapshots = SnapshotCache()

    # -- public API -------------------------------------------------------------

    def execute(self, program: ProgramOp) -> RuntimeProfile:
        """Run the whole program to fixpoint; returns the runtime profile."""
        started = time.perf_counter()
        try:
            for stratum in program.strata:
                if self.trace_strata:
                    with self.tracer.span("stratum", index=stratum.index):
                        self._execute_stratum(stratum)
                else:
                    self._execute_stratum(stratum)
        finally:
            self.profile.absorb_block_stats(self.evaluator.vectorized_stats)
            self.profile.record_cache_probes(
                self._snapshots.hits, self._snapshots.misses
            )
            if self.compilation is not None:
                self.profile.compile_events = list(self.compilation.events)
                self.compilation.shutdown()
        self.profile.wall_seconds = time.perf_counter() - started
        for name in self.storage.relation_names():
            self.profile.result_sizes[name] = self.storage.cardinality(name)
        self.profile.record_symbol_stats(self.storage.symbols)
        return self.profile

    # -- stratum / loop ----------------------------------------------------------

    def _execute_stratum(self, stratum: StratumOp) -> None:
        self._current_iteration = 0
        if self.governor.active:
            self.governor.check()
        for insert in stratum.seed.children:
            assert isinstance(insert, InsertOp)
            rows = self._rows_for(insert.source, stage="seed")
            self.storage.seed_delta_batch(insert.relation, rows)

        loop = stratum.loop
        if loop is None:
            return

        iteration = 0
        max_iterations = min(loop.max_iterations, self.config.max_iterations)
        while True:
            iteration += 1
            self._current_iteration = iteration
            iteration_start = time.perf_counter()
            span = self.tracer.span(
                "iteration", stratum=stratum.index, iteration=iteration
            )
            snapshot = self.stats.record_snapshot(
                self._snapshots.take(self.storage, iteration)
            )
            promoted = 0
            try:
                for child in loop.body.children:
                    if isinstance(child, SwapClearOp):
                        promoted = self.storage.swap_and_clear(child.relations)
                    elif isinstance(child, InsertOp):
                        rows = self._rows_for(child.source, stage="loop")
                        self.storage.insert_new_batch(child.relation, rows)
                    else:  # pragma: no cover - defensive: builders only emit the above
                        self._rows_for(child, stage="loop")
            finally:
                span.set(promoted=promoted).finish()
            self.profile.record_iteration(
                stratum.index, iteration, promoted, snapshot,
                time.perf_counter() - iteration_start,
            )
            if promoted == 0 or iteration >= max_iterations:
                break
            if self.governor.active:
                self.governor.on_round(promoted)

    # -- node dispatch ------------------------------------------------------------

    def _rows_for(self, node: IROp, stage: str) -> Set[Row]:
        if isinstance(node, ScanOp):
            return set(self.storage.relation(node.relation, node.source).rows())
        if isinstance(node, JoinProjectOp):
            if self._granularity_matches(CompilationGranularity.JOIN, stage):
                return self._adaptive_rows(node, [node], stage)
            return self._interpret_plan(self._maybe_reorder_seed(node, stage))
        if isinstance(node, AggregateOp):
            return self._aggregate_rows(node, stage)
        if isinstance(node, UnionOp):
            if self._granularity_matches(CompilationGranularity.RULE, stage):
                join_children = [c for c in node.children if isinstance(c, JoinProjectOp)]
                if len(join_children) == len(node.children):
                    return self._adaptive_rows(node, join_children, stage)
            return self._union_children(node, stage)
        if isinstance(node, RelationUnionOp):
            if self._granularity_matches(CompilationGranularity.RELATION, stage):
                join_children = self._collect_join_leaves(node)
                if join_children is not None:
                    return self._adaptive_rows(node, join_children, stage)
            return self._union_children(node, stage)
        if isinstance(node, SequenceOp):  # pragma: no cover - not produced under inserts
            result: Set[Row] = set()
            for child in node.children:
                result |= self._rows_for(child, stage)
            return result
        raise TypeError(f"cannot produce rows for {node!r}")

    def _union_children(self, node: IROp, stage: str) -> Set[Row]:
        children = node.children
        if len(children) == 1:  # single-rule/single-subquery: no union copy
            return self._rows_for(children[0], stage)
        result: Set[Row] = set()
        for child in children:
            result |= self._rows_for(child, stage)
        return result

    def _collect_join_leaves(self, node: IROp) -> Optional[List[JoinProjectOp]]:
        """All σπ⋈ leaves below ``node``; None if any leaf is not compilable."""
        leaves: List[JoinProjectOp] = []
        stack: List[IROp] = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, JoinProjectOp):
                leaves.append(current)
            elif isinstance(current, (UnionOp, RelationUnionOp, SequenceOp)):
                stack.extend(current.children)
            else:
                return None
        leaves.reverse()
        return leaves

    # -- adaptive path --------------------------------------------------------------

    def _granularity_matches(self, granularity: CompilationGranularity, stage: str) -> bool:
        if not self._jit_reordering:
            return False
        if stage == "seed":
            # Seeding is always optimized (when enabled) at the σπ⋈ level via
            # _maybe_reorder_seed; code generation only starts inside the loop.
            return False
        return self.config.granularity == granularity

    def _maybe_reorder_seed(self, node: JoinProjectOp, stage: str) -> JoinPlan:
        plan = node.plan
        if (
            stage == "seed"
            and self.optimizer is not None
            and self.config.optimize_seed
            and self.config.mode in (ExecutionMode.JIT, ExecutionMode.AOT)
        ):
            optimized, decision = self.optimizer.optimize_plan(
                plan,
                storage_cardinality_view(self.storage),
                storage_index_view(self.storage),
            )
            self.profile.record_reorder(node.node_id, plan.rule_name, "seed", decision)
            return optimized
        return plan

    def _interpret_plan(self, plan: JoinPlan) -> Set[Row]:
        if self.evaluator.executor == "vectorized":
            self.profile.record_vectorized()
        else:
            self.profile.record_interpreted()
        return self.evaluator.evaluate(plan)

    def _interpret_plans(self, plans: Sequence[JoinPlan]) -> Set[Row]:
        result: Set[Row] = set()
        for plan in plans:
            result |= self._interpret_plan(plan)
        return result

    def _reorder_plans(self, nodes: Sequence[JoinProjectOp], stage: str,
                       ) -> Tuple[List[JoinPlan], List[ReorderRecord]]:
        """Re-plan every node; the plans and their recorded decisions."""
        assert self.optimizer is not None
        cardinalities = storage_cardinality_view(self.storage)
        indexes = storage_index_view(self.storage)
        ordered: List[JoinPlan] = []
        records: List[ReorderRecord] = []
        for node in nodes:
            optimized, decision = self.optimizer.optimize_plan(
                node.plan, cardinalities, indexes
            )
            records.append(self.profile.record_reorder(
                node.node_id, node.plan.rule_name, stage, decision
            ))
            if self._block_kernels:
                # Profile how the batch executor will run the chosen order.
                self.profile.record_block_plan(
                    node.plan.rule_name,
                    annotate_block_strategies(optimized, indexes),
                )
            ordered.append(
                self._orders.setdefault((node.node_id, optimized.sources), optimized)
            )
        return ordered, records

    def _adaptive_rows(self, node: IROp, join_nodes: Sequence[JoinProjectOp],
                       stage: str) -> Set[Row]:
        """The JIT safe-point logic for one node at the configured granularity."""
        if self.optimizer is None:
            return self._interpret_plans([n.plan for n in join_nodes])

        if self.compilation is None:
            # Pure IR regeneration (AOT+online or reorder-only execution).
            return self._interpret_plans(self._reorder_plans(join_nodes, "jit")[0])

        # The freshness test gates re-optimization: while the artifact's
        # compile-time cardinality snapshot is still representative, neither
        # the reordering algorithm nor the compiler runs again (paper §V-B2).
        current_snapshot = self._snapshots.take(self.storage, self._current_iteration)
        artifact = self.compilation.current_artifact(node.node_id)
        if artifact is not None:
            compiled_at = self.compilation.artifact_snapshot(node.node_id)
            if self.freshness.is_fresh(compiled_at, current_snapshot):
                self.profile.record_compiled()
                return artifact(self.storage)

        ordered_plans, records = self._reorder_plans(join_nodes, "jit")

        # A re-plan that lands on orders this node already compiled needs no
        # code generation: that artifact runs again, valid as of now.
        artifact = self.compilation.reuse(
            node.node_id, ordered_plans, current_snapshot
        )
        if artifact is not None:
            for record in records:
                record.reason = "reused-order"
            self.profile.artifacts_reused += 1
            self.profile.record_compiled()
            return artifact(self.storage)

        if self.compilation.is_compiling(node.node_id):
            # Asynchronous compilation still running: keep interpreting.
            return self._interpret_plans(ordered_plans)

        for record in records:
            record.reason = "recompiled"

        continuations: Optional[List[ArtifactFunction]] = None
        if self.config.compile_mode == "snippet":
            continuations = [
                _make_continuation(plan, self.evaluator) for plan in ordered_plans
            ]

        # The relation (RelationUnionOp), the rule (UnionOp) or the leaf's rule.
        label = (getattr(node, "relation", None) or getattr(node, "rule_name", None)
                 or node.plan.rule_name)  # type: ignore[attr-defined]
        if self.config.async_compilation:
            self.tracer.event(
                "compile-async", node=node.node_id, label=str(label),
                backend=self.config.backend,
            )
            self.compilation.compile_async(
                node.node_id, ordered_plans, self.storage, current_snapshot,
                mode=self.config.compile_mode,
                continuations=continuations, label=str(label),
                evaluator=self.evaluator,
            )
            return self._interpret_plans(ordered_plans)

        with self.tracer.span(
            "compile", node=node.node_id, label=str(label),
            backend=self.config.backend,
        ):
            artifact = self.compilation.compile_now(
                node.node_id, ordered_plans, self.storage, current_snapshot,
                mode=self.config.compile_mode,
                continuations=continuations, label=str(label),
                evaluator=self.evaluator,
            )
        self.profile.record_compiled()
        return artifact(self.storage)

    # -- aggregation ------------------------------------------------------------------

    def _aggregate_rows(self, node: AggregateOp, stage: str) -> Set[Row]:
        plan = node.plan
        if (
            stage == "seed"
            and self.optimizer is not None
            and self.config.optimize_seed
            and self.config.mode in (ExecutionMode.JIT, ExecutionMode.AOT)
        ):
            plan, decision = self.optimizer.optimize_plan(
                plan,
                storage_cardinality_view(self.storage),
                storage_index_view(self.storage),
            )
            self.profile.record_reorder(node.node_id, plan.rule_name, "seed", decision)

        # The rule AST stays raw; bindings are storage-domain (encoded
        # under interning).  Group keys therefore project through the plan's
        # value domain — variables pass through, raw head constants and
        # computed expressions are interned — while the aggregated values
        # decode to raw for the arithmetic and the result re-interns.
        symbols = self.storage.symbols
        head_terms = node.head_terms
        aggregate_positions: Dict[int, Aggregate] = {
            i: term for i, term in enumerate(head_terms) if isinstance(term, Aggregate)
        }
        key_terms = [
            (i, term) for i, term in enumerate(head_terms)
            if i not in aggregate_positions
        ]
        groups: Dict[Tuple, Dict[int, List]] = {}
        for bindings in self.evaluator.bindings(plan):
            key = tuple(
                bindings[term] if isinstance(term, Variable)
                else symbols.intern(evaluate_raw_term(term, bindings, symbols))
                for _i, term in key_terms
            )
            bucket = groups.setdefault(key, {i: [] for i in aggregate_positions})
            for i, aggregate in aggregate_positions.items():
                bucket[i].append(
                    symbols.resolve(aggregate.target.substitute(bindings))
                )

        self.profile.record_interpreted()
        out: Set[Row] = set()
        for key, collected in groups.items():
            key_iterator = iter(key)
            row: List = []
            for i, term in enumerate(head_terms):
                if i in aggregate_positions:
                    row.append(
                        symbols.intern(
                            evaluate_aggregate(
                                aggregate_positions[i].func, collected[i]
                            )
                        )
                    )
                else:
                    row.append(next(key_iterator))
            out.add(tuple(row))
        return out


def _make_continuation(plan: JoinPlan,
                       evaluator: SubqueryEvaluator) -> ArtifactFunction:
    """A continuation that hands one plan back to the executor's own
    interpreter (same storage, tracer, governor and batch counters)."""

    def continuation(storage: StorageManager) -> Set[Row]:
        return evaluator.evaluate(plan)

    return continuation
