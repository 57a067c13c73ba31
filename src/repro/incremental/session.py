"""The long-lived incremental evaluation session.

:class:`IncrementalSession` converts the engine from single-shot to
service-shaped: one session owns its storage across arbitrarily many
fixpoints, accepts batched fact mutations, repairs the fixpoint
incrementally, and memoizes query results until a mutation actually touches
a dependency.  The IR tree, the schema-selected indexes and (in AOT mode)
the ahead-of-time join-order decisions are all built once at session start
and reused by every update.

Update strategies
-----------------

* **Insertions** seed Delta-Known with the genuinely new rows and run the
  update IR (:func:`repro.ir.builder.build_update_ir`) — a single semi-naive
  loop whose delta choice ranges over every positive atom, so a change to any
  relation propagates through recursive and non-recursive rules alike.
* **Retractions** run delete-and-rederive (:mod:`repro.incremental.dred`):
  over-delete the derivation cone, physically remove it (hash indexes are
  maintained row-by-row), re-seed the survivors, and propagate.
* Programs with negation or aggregation are maintained by transparent
  **full recomputation** over the session's base facts — same API, same
  results, no incremental speedup.  ``report.strategy`` says which path ran.

Every :class:`~repro.core.config.ExecutionMode` is supported; updates are
executed through the ordinary :class:`~repro.core.executor.IRExecutor`, so
JIT configurations keep compiling per-update and AOT configurations reuse
their frozen plans.
"""

from __future__ import annotations

import hashlib
import threading
import time
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # repro.api sits above this layer; import only for types
    from repro.api.result import ResultSet

from repro.core.config import EngineConfig
from repro.core.executor import IRExecutor
from repro.core.join_order import JoinOrderOptimizer
from repro.core.profile import RuntimeProfile
from repro.relational.storage import DatabaseKind
from repro.datalog.fingerprint import fingerprint_program
from repro.datalog.program import DatalogProgram
from repro.engine.engine import (
    ExecutionEngine,
    apply_aot_if_configured,
    prepare_evaluation,
)
from repro.engine.indexing import select_retraction_indexes
from repro.incremental.cache import ResultCache
from repro.incremental.dred import (
    RederiveStep,
    over_delete,
    rederivation_seeds,
    rederive_plans,
    update_plans_by_delta,
)
from repro.ir.builder import build_update_ir
from repro.ir.encoding import encode_tree
from repro.ir.ops import ProgramOp
from repro.relational.columnar import ColumnarBlock
from repro.relational.operators import SubqueryEvaluator
from repro.relational.relation import Row
from repro.resilience.errors import ResilienceError, WorkerFailed
from repro.resilience.limits import NOOP_GOVERNOR

RowBatch = Iterable[Sequence[object]]


@dataclass
class _SessionShardState:
    """The session's persistent shard-parallel propagation machinery."""

    spec: "object"      # repro.parallel.partition.PartitionSpec
    sharded: "object"   # repro.parallel.sharded_storage.ShardedStorage
    pool: "object"      # repro.parallel.executor.WorkerPool
    #: Workers interpret through the vectorized executor (no compiled
    #: backend), so each drained batch also counts as one vectorized
    #: sub-query evaluation.
    vectorized: bool = False


@dataclass
class UpdateReport:
    """What one mutation batch did to the session's fixpoint."""

    strategy: str = "incremental"          # "incremental[-sharded]" or "recompute"
    inserted: int = 0                      # genuinely new rows asserted
    retracted: int = 0                     # base rows actually retracted
    over_deleted: int = 0                  # size of the DRed deletion cone
    rederived: int = 0                     # cone rows that survived re-derivation
    propagated: int = 0                    # facts promoted by delta propagation
    seconds: float = 0.0


def _config_cache_key(config: EngineConfig) -> str:
    """A deterministic cache-key component covering every semantics-relevant knob."""
    return "|".join(
        str(part)
        for part in (
            config.mode.value,
            config.backend,
            config.granularity.value,
            config.async_compilation,
            config.compile_mode,
            config.use_indexes,
            config.evaluator_style,
            config.executor,
            config.optimize_seed,
            config.aot_sort.value,
            config.aot_online,
            config.interning,
        )
    )


def _dependency_closure(program: DatalogProgram) -> Dict[str, FrozenSet[str]]:
    """Map each relation to every relation its contents can depend on."""
    direct: Dict[str, Set[str]] = {name: {name} for name in program.relation_names()}
    for rule in program.rules:
        direct.setdefault(rule.head_relation, {rule.head_relation}).update(
            atom.relation for atom in rule.body_atoms()
        )
    changed = True
    while changed:
        changed = False
        for name, deps in direct.items():
            expanded: Set[str] = set(deps)
            for dep in deps:
                expanded |= direct.get(dep, set())
            if expanded != deps:
                direct[name] = expanded
                changed = True
    return {name: frozenset(deps) for name, deps in direct.items()}


class IncrementalSession:
    """A long-lived evaluation of one program over a changing fact base.

    Parameters
    ----------
    program:
        The Datalog program.  The session copies it, so later mutations of
        the caller's object cannot desynchronise the session's IR.
    config:
        Any :class:`EngineConfig`; defaults to the interpreted configuration.
    cache:
        Optional shared :class:`ResultCache`.  Entries are keyed by program
        fingerprint (including initial facts) and configuration, and guarded
        by per-relation validity tokens (generation counter + mutation
        digest over the queried relation's dependency cone), so sharing is
        always safe: sessions share an entry exactly when that cone's
        mutation history is identical.  By default each session gets a
        private cache.
    metrics:
        Optional shared :class:`~repro.telemetry.MetricsRegistry`; a
        :class:`~repro.api.database.Database` passes its own so totals
        aggregate across every connection.  Defaults to the configured
        telemetry's registry (or a private one).
    catalog:
        Optional system catalog (duck-typed; see :mod:`repro.introspect`).
        When the program's rules read ``sys_`` relations, the catalog
        materializes their rows as ordinary base facts at setup and
        re-snapshots them before each query, so introspection data joins
        with user relations like any other EDB.  Programs reading the
        catalog always take the recompute update path — catalog contents
        change outside the mutation API, so incremental maintenance
        cannot track them.
    """

    def __init__(
        self,
        program: DatalogProgram,
        config: Optional[EngineConfig] = None,
        cache: Optional[ResultCache] = None,
        metrics=None,
        catalog=None,
    ) -> None:
        self.program = program.copy()
        self.config = config or EngineConfig()
        self.profile = RuntimeProfile()
        from repro.telemetry.config import metrics_of

        self.metrics = metrics if metrics is not None else metrics_of(
            self.config.telemetry
        )
        self.tracer = self.config.tracer()
        #: The trace of the most recent traced mutation/evaluation (None
        #: when tracing is off); surfaced through ``Connection.explain()``.
        self.last_trace = None

        self._catalog = catalog
        self._catalog_names: Tuple[str, ...] = (
            tuple(catalog.names_in(self.program)) if catalog is not None else ()
        )
        self._catalog_frozen = False

        setup_start = time.perf_counter()
        self.storage, self.tree = prepare_evaluation(
            self.program, self.config, self.profile, catalog=catalog
        )
        # Catalog-reading programs fall back to recompute: sys_ rows change
        # outside the mutation API (every query/span moves them), so the
        # delta/DRed machinery cannot maintain them.
        self.incremental_capable = not self._catalog_names and not any(
            rule.negated_atoms() or rule.has_aggregation()
            for rule in self.program.rules
        )
        self._update_tree: Optional[ProgramOp] = None
        if self.incremental_capable:
            if self.config.use_indexes:
                for relation, column in sorted(select_retraction_indexes(self.program)):
                    self.storage.register_index(relation, column)
            self._update_tree = build_update_ir(self.program, check_safety=False)
            encode_tree(self._update_tree, self.storage.symbols)
            # DRed plans depend only on the immutable program: build once
            # (constants pre-encoded into the session's symbol domain) and
            # keep one evaluator beside them, so every retraction batch
            # runs kernels lowered by the first.
            symbols = self.storage.symbols
            self._dred_delta_plans = update_plans_by_delta(self.program, symbols)
            self._dred_rederive_plans = rederive_plans(self.program, symbols)
            self._dred_optimizer = JoinOrderOptimizer(self.config.selectivity)
            self._dred_evaluator = SubqueryEvaluator(
                self.storage, self.config.evaluator_style,
                executor=self.config.executor, tracer=self.tracer,
            )
            apply_aot_if_configured(
                self._update_tree, self.config, self.storage, self.profile
            )
        self.setup_seconds = time.perf_counter() - setup_start

        self.cache = cache if cache is not None else ResultCache()
        self.program_fingerprint = fingerprint_program(self.program)
        # Cache keys embed the *initial* facts too: two sessions whose
        # programs differ only in their EDB could otherwise collide on key
        # and generation vector alike.  The ResultCache is in-process, so
        # an order-independent builtin hash of the fact set is enough (and
        # ~10x cheaper than canonicalising a 10k-fact EDB to text); the
        # canonical-text digest remains the fallback for unhashable facts.
        try:
            edb_token: object = hash(frozenset(self.program.facts))
        except TypeError:
            edb_token = fingerprint_program(self.program, include_facts=True)
        self._cache_fingerprint = (self.program_fingerprint, edb_token)
        # Per-relation rolling digests of the mutations applied to each
        # relation.  Generation counters alone cannot distinguish *diverged*
        # sessions sharing a cache (different mutations advance them
        # identically), so cache validity tokens pair the counter with the
        # relation's mutation digest: sessions share an entry exactly when
        # the queried relation's whole dependency cone has identical history.
        self._mutation_digests: Dict[str, str] = {
            name: "0" for name in self.program.relation_names()
        }
        # Catalog relations: the digest of the snapshot materialized at
        # setup, advanced by _refresh_catalog whenever the snapshot changes
        # — so cache validity tokens diverge exactly when catalog state does.
        if self._catalog is not None:
            self._mutation_digests.update(
                self._catalog.digests(self._catalog_names)
            )
        self._config_key = _config_cache_key(self.config)
        self._dependencies = _dependency_closure(self.program)
        self._evaluated = False
        # Decoded-result memo for :meth:`fetch`: relation -> (encoded
        # frozenset, decoded frozenset).  Validity is by *identity* of the
        # encoded set — the ResultCache returns the same object while the
        # entry is valid, so a storage mutation (new encoded set) misses
        # here automatically and repeat fetches skip the O(n) decode.
        self._decoded_results: Dict[str, Tuple[FrozenSet[Row], FrozenSet[Row]]] = {}
        self.updates_applied = 0
        self.last_report: Optional[UpdateReport] = None
        # Shard-parallel update propagation (see _propagate_parallel): the
        # per-shard replicas and their worker pool are built lazily on the
        # first batch that needs them and then kept in sync across batches.
        self._shard_state = None
        # MVCC snapshot publication (opt-in; see enable_snapshots).  The
        # write lock serializes apply() so concurrent callers — the server
        # funnels all mutations through one worker thread, but embedded
        # callers may not — never interleave two fixpoint repairs.
        self._write_lock = threading.Lock()
        self.snapshots = None  # Optional[SnapshotManager]
        # Durable-writer hook (see repro.durability): when a manager is
        # attached, every apply() logs its batch to the WAL before the
        # batch's snapshot publishes.  None for non-durable sessions.
        self._durability = None  # Optional[DurabilityManager]
        # Resilience accounting surfaced through ``sys_resilience``:
        # taxonomy-code -> count of queries aborted by governance, plus
        # shard-propagation rebuild events.
        self.resilience_events: Dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release pooled resources (idempotent; only needed when sharded)."""
        if self._shard_state is not None:
            self._shard_state.pool.close()
            self._shard_state = None

    def __enter__(self) -> "IncrementalSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- evaluation -------------------------------------------------------------

    def _execute(self, tree: ProgramOp, governor=None) -> RuntimeProfile:
        profile = RuntimeProfile()
        from repro.engine.engine import sharding_active

        if tree is self.tree and sharding_active(self.config):
            # The initial fixpoint (and any full rebuild) takes the same
            # shard-parallel path a sharded ExecutionEngine would.
            from repro.parallel.executor import ParallelEvaluator

            ParallelEvaluator(
                self.program, self.config, self.storage, tree, profile,
                governor=governor,
            ).run()
        else:
            executor = IRExecutor(
                self.storage, self.config, profile, governor=governor
            )
            executor.execute(tree)
        self._absorb_profile(profile)
        return profile

    def _absorb_profile(self, profile: RuntimeProfile) -> None:
        """Fold one execution's profile into the session-lifetime profile.

        ``self.profile`` accumulates every fixpoint and update the session
        ran, so ``Connection.explain()`` can surface the adaptive join-order
        and code-generation decisions taken across the session's lifetime.
        """
        self.profile.iterations.extend(profile.iterations)
        self.profile.reorders.extend(profile.reorders)
        self.profile.compile_events.extend(profile.compile_events)
        self.profile.block_plans.extend(profile.block_plans)
        self.profile.absorb_block_stats(profile.block_joins)
        self.profile.sources.interpreted += profile.sources.interpreted
        self.profile.sources.compiled += profile.sources.compiled
        self.profile.sources.vectorized += profile.sources.vectorized
        self.profile.wall_seconds += profile.wall_seconds
        # Size-like fields: the latest snapshot wins (they describe current
        # state, not deltas); counter-like cache/pool fields accumulate.
        self.profile.result_sizes.update(profile.result_sizes)
        if profile.symbol_stats:
            self.profile.symbol_stats = dict(profile.symbol_stats)
        for result, count in profile.cache_probes.items():
            self.profile.cache_probes[result] = (
                self.profile.cache_probes.get(result, 0) + count
            )
        self.profile.pool_degradations += profile.pool_degradations
        self.profile.worker_failures += profile.worker_failures
        self.metrics.absorb_profile(profile)

    def _ensure_evaluated(self, governor=None) -> None:
        if self._evaluated:
            return
        try:
            self._execute(self.tree, governor)
        except ResilienceError as error:
            # An aborted fixpoint leaves storage mid-derivation; re-running
            # from that state could silently MISS derivations (delta seeding
            # dedupes against already-derived rows).  Reset to ground state
            # so the next query recomputes from scratch.
            self._record_resilience_abort(error)
            self._reset_to_base()
            raise
        self._evaluated = True

    def _record_resilience_abort(self, error: ResilienceError) -> None:
        self.resilience_events[error.code] = (
            self.resilience_events.get(error.code, 0) + 1
        )
        self.metrics.counter("resilience_aborts_total", code=error.code).inc()

    def refresh(self) -> None:
        """Force the initial fixpoint computation (otherwise lazy)."""
        self._ensure_evaluated()

    # -- MVCC snapshots (opt-in; the serving layer's read path) -------------------

    def enable_snapshots(self):
        """Turn on MVCC snapshot publication and publish the initial version.

        Idempotent.  After this, every :meth:`apply` publishes one
        :class:`~repro.incremental.snapshots.StorageSnapshot` at its commit
        point, so readers (the query server's connections) serve from the
        last committed version without ever blocking behind a writer's
        fixpoint.  Opt-in because publishing costs one frozen-rows probe per
        relation per batch — embedded single-threaded use shouldn't pay it.
        """
        if self.snapshots is None:
            from repro.incremental.snapshots import SnapshotManager

            self.snapshots = SnapshotManager(self.storage, metrics=self.metrics)
            self.publish_snapshot()
        return self.snapshots

    def publish_snapshot(self):
        """Publish the current fixpoint as the next committed version."""
        if self.snapshots is None:
            raise RuntimeError("snapshots not enabled; call enable_snapshots()")
        self._ensure_evaluated()
        return self.snapshots.publish()

    # -- durability (opt-in; see repro.durability) --------------------------------

    def attach_durability(self, manager) -> None:
        """Make this session the durable writer behind ``manager``.

        Called by :meth:`~repro.durability.manager.DurabilityManager.open`
        *after* recovery — replayed batches are already in the log and
        must not be re-appended.  One manager at a time.
        """
        if self._durability is not None and self._durability is not manager:
            raise RuntimeError("a durability manager is already attached")
        self._durability = manager

    def detach_durability(self, manager) -> None:
        """Stop logging mutations (idempotent; manager identity checked)."""
        if self._durability is manager:
            self._durability = None

    def restore_fixpoint(
        self, states: Mapping[str, Tuple[Set[Row], Set[Row]]]
    ) -> None:
        """Install recovered ``{name: (derived, base)}`` rows as the fixpoint.

        The warm-restart entry point: rows come from a checkpoint already
        aligned to this session's symbol domain, so no evaluation runs —
        the session behaves exactly as if it had computed this fixpoint
        itself.  Publishes a snapshot when MVCC is enabled.
        """
        with self._write_lock:
            for name, (derived, base) in states.items():
                self.storage.restore_state(name, derived, base)
            self._decoded_results.clear()
            self._evaluated = True
            if self.snapshots is not None:
                self.snapshots.publish()

    # -- mutation ---------------------------------------------------------------

    def insert_facts(self, relation: str, rows: RowBatch) -> UpdateReport:
        """Assert a batch of facts and repair the fixpoint incrementally."""
        return self.apply({relation: rows}, None)

    def retract_facts(self, relation: str, rows: RowBatch) -> UpdateReport:
        """Retract a batch of *base* facts (rows never asserted are ignored)."""
        return self.apply(None, {relation: rows})

    def apply(
        self,
        inserts: Optional[Mapping[str, RowBatch]] = None,
        retracts: Optional[Mapping[str, RowBatch]] = None,
    ) -> UpdateReport:
        """Apply one mixed mutation batch: retractions first, then insertions.

        A row both retracted and inserted in the same batch ends up present.
        Returns an :class:`UpdateReport`; the session is at fixpoint again
        when this method returns.  Batches are serialized by the session's
        write lock; with snapshots enabled the repaired fixpoint is
        published as the next committed version before the lock drops.
        """
        started = time.perf_counter()
        with self._write_lock, self.tracer.span(
            "mutation", root=True, program=self.program_fingerprint[:12]
        ) as span:
            # The whole mutation path runs ungoverned — session-wide
            # ``config.limits`` are *query* governance, and a write must
            # never be bounced (or half-applied) by a read deadline.
            self._ensure_evaluated(NOOP_GOVERNOR)
            durability = self._durability
            if durability is not None:
                # Materialize the raw batches up front: _normalise consumes
                # them (they may be generators), and the WAL logs exactly
                # what the caller handed in — raw-domain rows, replayable
                # through this same method.
                inserts = {
                    name: [tuple(row) for row in rows]
                    for name, rows in (inserts or {}).items()
                }
                retracts = {
                    name: [tuple(row) for row in rows]
                    for name, rows in (retracts or {}).items()
                }
            insert_rows = self._normalise(inserts)
            retract_rows = self._normalise(retracts, allocate=False)

            if self.incremental_capable:
                report = self._apply_incremental(insert_rows, retract_rows)
            else:
                report = self._apply_recompute(insert_rows, retract_rows)
            if durability is not None:
                # Log before the snapshot publishes: a version readers can
                # see must already be recoverable (per the fsync policy).
                durability.record_batch(inserts, retracts)
            if self.snapshots is not None:
                self.snapshots.publish()
            report.seconds = time.perf_counter() - started
            span.set(
                strategy=report.strategy, inserted=report.inserted,
                retracted=report.retracted, propagated=report.propagated,
                rederived=report.rederived, over_deleted=report.over_deleted,
            )
        if span.trace is not None:
            self.last_trace = span.trace
        self.updates_applied += 1
        self.last_report = report
        self.metrics.counter("mutations_total", strategy=report.strategy).inc()
        self.metrics.counter("rows_inserted_total").inc(report.inserted)
        self.metrics.counter("rows_retracted_total").inc(report.retracted)
        self.metrics.histogram("mutation_seconds").observe(report.seconds)
        return report

    def _advance_mutation_digests(
        self,
        inserts: Dict[str, Set[Row]],
        retracts: Dict[str, Set[Row]],
    ) -> None:
        """Fold one batch's *effective* changes into the touched digests.

        Callers pass only rows that actually changed state (genuinely new
        inserts, base rows actually retracted): a no-op batch must not
        advance any digest, or it would invalidate still-valid cache entries
        and permanently fork a replica off a shared cache.
        """
        touched: Dict[str, "hashlib._Hash"] = {}
        for tag, batch in (("+", inserts), ("-", retracts)):
            for name in batch:
                digest = touched.get(name)
                if digest is None:
                    digest = hashlib.sha256(
                        self._mutation_digests[name].encode("utf-8")
                    )
                    touched[name] = digest
                rows = ";".join(sorted(repr(row) for row in batch[name]))
                digest.update(f"{tag}{rows}\n".encode("utf-8"))
        for name, digest in touched.items():
            self._mutation_digests[name] = digest.hexdigest()

    def _normalise(
        self, batch: Optional[Mapping[str, RowBatch]], allocate: bool = True
    ) -> Dict[str, Set[Row]]:
        """Validate one mutation batch and encode it into the storage domain.

        This is the session's interning boundary: everything downstream
        (delta seeding, DRed, shard scatter, the base-row ledger) works on
        encoded rows.  ``allocate=False`` is the retraction path — a value
        the symbol table has never seen cannot occur in any stored row, so
        such rows are dropped here instead of allocating ids for them.
        """
        symbols = self.storage.symbols
        normalised: Dict[str, Set[Row]] = {}
        for name, rows in (batch or {}).items():
            arity = self.storage.arity_of(name)  # raises on unknown relations
            row_set = {tuple(row) for row in rows}
            for row in row_set:
                if len(row) != arity:
                    raise ValueError(
                        f"relation {name!r} has arity {arity}, got row {row!r}"
                    )
            if allocate:
                encoded = set(symbols.intern_rows(row_set))
            else:
                encoded = {
                    encoded_row
                    for encoded_row in map(symbols.lookup_row, row_set)
                    if encoded_row is not None
                }
            if encoded:
                normalised[name] = encoded
        return normalised

    def _apply_incremental(
        self,
        inserts: Dict[str, Set[Row]],
        retracts: Dict[str, Set[Row]],
    ) -> UpdateReport:
        report = UpdateReport(strategy="incremental")

        # -- retractions: delete-and-rederive ---------------------------------
        seeded = 0
        eligible: Dict[str, Set[Row]] = {}
        for name, rows in retracts.items():
            base = {row for row in rows if self.storage.is_base_row(name, row)}
            for row in base:
                self.storage.forget_base_row(name, row)
            if base:
                eligible[name] = base
        if eligible:
            report.retracted = sum(len(rows) for rows in eligible.values())
            evaluator = self._dred_evaluator
            with self.tracer.span("dred:over-delete") as dred_span:
                cone = over_delete(
                    self.program, self.storage, eligible, evaluator,
                    plans_by_delta=self._dred_delta_plans,
                )
                report.over_deleted = cone.total()
                dred_span.set(rows=report.over_deleted)
            for name, rows in cone.deleted.items():
                self.storage.retract_rows(name, rows)
                if self._shard_state is not None:
                    # Keep the persistent shard replicas consistent with the
                    # deletion cone so insert batches after a retraction can
                    # still propagate shard-parallel without a rebuild.
                    self._shard_state.sharded.retract_rows(name, rows)
            with self.tracer.span("dred:rederive") as dred_span:
                steps: List[RederiveStep] = []
                seeds = rederivation_seeds(
                    self.program, self.storage, cone, evaluator,
                    plans=self._dred_rederive_plans,
                    optimizer=self._dred_optimizer, steps=steps,
                )
                for name, rows in seeds.items():
                    report.rederived += self.storage.seed_delta(name, rows)
                dred_span.set(rows=report.rederived)
                self._record_rederivation(steps, dred_span)
            seeded += report.rederived

        # -- insertions --------------------------------------------------------
        effective_inserts: Dict[str, Set[Row]] = {}
        for name, rows in inserts.items():
            new_rows = {
                row for row in rows if row not in self.storage.derived(name)
            }
            if new_rows:
                effective_inserts[name] = new_rows
            report.inserted += self.storage.seed_delta(name, rows)
            for row in rows:
                self.storage.insert_base(name, row)
        seeded += report.inserted

        # One semi-naive propagation covers both phases: rederivation
        # survivors and fresh insertions are all just delta seeds by now.
        # Propagation runs ungoverned even when session-wide limits are
        # configured: QueryLimits bound *queries*, and a mid-propagation
        # abort would leave base rows inserted, deltas half-consumed and
        # ``_evaluated`` still True — later reads would silently serve an
        # incomplete fixpoint, and the WAL (written after apply) would
        # diverge from in-memory state.
        if seeded:
            if self._sharded_propagation():
                report.propagated = self._propagate_parallel()
                report.strategy = "incremental-sharded"
            else:
                profile = self._execute(self._update_tree, NOOP_GOVERNOR)
                report.propagated = sum(it.promoted for it in profile.iterations)
        self._advance_mutation_digests(effective_inserts, eligible)
        return report

    def _record_rederivation(self, steps: Sequence[RederiveStep], span) -> None:
        """Make one batch's re-derivation choices visible: counter, span, profile."""
        for step in steps:
            self.metrics.counter(
                "dred_rederive_rows_total", how=step.how
            ).inc(step.pending)
            if step.decision is not None:
                self.profile.record_reorder(-1, step.rule_name, "dred", step.decision)
        span.set(
            pending=sum(s.pending for s in steps if s.how != "base"),
            survivors=sum(s.survivors for s in steps),
            order="; ".join(
                f"{s.rule_name}: {', '.join(s.decision.chosen_order)}"
                for s in steps if s.decision is not None
            ),
        )

    # -- shard-parallel propagation ----------------------------------------------

    def _sharded_propagation(self) -> bool:
        from repro.engine.engine import sharding_active

        return self.incremental_capable and sharding_active(self.config)

    def _build_shard_state(self):
        """Build the persistent per-shard replicas for update propagation.

        The update tree's delta choice ranges over *every* positive atom, so
        no pivot-aligned partitioning exists: propagation always runs the
        replicated strategy — each shard mirrors the whole derived database
        and owns a hash slice of every delta.  The fork pool is excluded
        here: children would stop seeing the coordinator's between-batch
        replica maintenance, so an explicit ``pool="process"`` request
        degrades to serial for session propagation (full evaluations still
        honour it).
        """
        from repro.ir.builder import collect_loop_plans
        from repro.parallel.exchange import ExchangeRouter
        from repro.parallel.executor import (
            ShardWorker,
            make_pool,
            resolve_pool_kind,
            resolve_shard_backend,
        )
        from repro.parallel.partition import PartitionSpec
        from repro.parallel.sharded_storage import ShardedStorage

        sharding = self.config.sharding
        relations = self.storage.relation_names()
        spec = PartitionSpec(
            shards=sharding.shards,
            columns={name: 0 for name in relations},
            replicated=frozenset(),
            aligned=False,
        )
        sharded = ShardedStorage(spec, self.storage)
        for name in relations:
            sharded.replicate_derived(self.storage, name)
        groups = collect_loop_plans(self._update_tree.strata[0].loop)
        if groups is None:  # pragma: no cover - update trees are always flat
            return None
        router = ExchangeRouter(spec)
        workers = [
            ShardWorker(shard, sharded.shard(shard), groups, relations, router=router)
            for shard in range(spec.shards)
        ]
        backend_name = resolve_shard_backend(self.config)
        for worker in workers:
            worker.prepare(
                backend_name, self.config.evaluator_style, self.config.executor,
                trace=self.tracer.enabled,
            )
        pool_kind = resolve_pool_kind(sharding, spec.shards)
        if pool_kind == "process":
            pool_kind = "serial"
            self.profile.pool_degradations += 1
            self.metrics.counter("pool_degradations_total").inc()
        pool = make_pool(pool_kind, workers)
        return _SessionShardState(
            spec=spec, sharded=sharded, pool=pool,
            vectorized=backend_name is None and self.config.executor == "vectorized",
        )

    def _propagate_parallel(self) -> int:
        """Propagate the just-seeded deltas through the shard pool.

        The global storage has already absorbed the seeds (Derived and
        Delta-Known); the shards receive the seed rows (replica maintenance
        plus owner-sliced deltas) and iterate exchange rounds to global
        quiescence, folding each round's accepted rows back into the global
        storage as they appear.  Returns the number of propagated facts —
        the same count the serial update tree would report.
        """
        from repro.parallel.exchange import QuiescenceTracker
        from repro.parallel.executor import run_replicated_rounds

        fresh = self._shard_state is None
        if fresh:
            self._shard_state = self._build_shard_state()
        state = self._shard_state
        if state is None:  # pragma: no cover - defensive fallback
            profile = self._execute(self._update_tree, NOOP_GOVERNOR)
            return sum(it.promoted for it in profile.iterations)

        def absorb(accepted: Mapping[str, Sequence[Sequence[object]]]) -> None:
            for name, rows in accepted.items():
                self.storage.absorb_rows(name, rows)

        try:
            for name in self.storage.relation_names():
                delta = self.storage.relation(name, DatabaseKind.DELTA_KNOWN)
                if not len(delta):
                    continue
                # Move the seeded delta around in block form: one columnar
                # batch per relation feeds both replica maintenance and the
                # owner split, which hashes the partition column column-wise.
                block = ColumnarBlock.from_relation(delta)
                if not fresh:
                    # Replicas built earlier have not seen this batch's seeds.
                    state.sharded.broadcast_derived(name, block)
                state.sharded.scatter_delta(name, block)

            # The update tree is one flat stratum; the span mirrors the
            # level a serial propagation would produce, and worker-recorded
            # spans are reparented onto it below.
            tracker = QuiescenceTracker()
            with self.tracer.span("stratum", index=0, strategy="replicated",
                                  shards=state.spec.shards) as span:
                result = run_replicated_rounds(
                    state.pool,
                    state.spec.shards,
                    max_rounds=min(
                        self.config.max_iterations, self.config.sharding.max_rounds
                    ),
                    tracker=tracker,
                    on_accepted=absorb,
                )
                if self.tracer.enabled:
                    for records in state.pool.invoke("drain_spans"):
                        self.tracer.merge_buffer(records, parent=span)
        except WorkerFailed:
            # A shard died (or was fault-injected) mid-propagation.  The
            # global storage may hold a partially-absorbed round — and delta
            # seeding dedupes against derived rows, so re-driving the update
            # tree from that state could MISS derivations.  The one always-
            # correct recovery is a full recompute from base facts.
            state.pool.close()
            self._shard_state = None
            self.profile.worker_failures += 1
            self.metrics.counter("worker_failures_total").inc()
            self.resilience_events["propagation_rebuilds"] = (
                self.resilience_events.get("propagation_rebuilds", 0) + 1
            )
            self._reset_to_base()
            # Ungoverned like every mutation-path execution: a governed
            # recovery aborting mid-recompute would strand storage between
            # base and fixpoint with the abort already swallowed here.
            profile = self._execute(self.tree, NOOP_GOVERNOR)
            self._evaluated = True
            return sum(it.promoted for it in profile.iterations)

        # Fold this propagation into the lifetime profile exactly like a
        # serial update execution would: per-round iteration records, the
        # workers' batch counters, and the post-update relation sizes —
        # without this, session reuse under sharding under-reported in
        # ``explain()`` and the metrics registry.
        rounds_profile = RuntimeProfile()
        for stats in tracker.rounds:
            rounds_profile.record_iteration(
                0, stats.round_index, stats.promoted, None, 0.0
            )
        from repro.parallel.executor import drain_pool_vectorized_stats

        drain_pool_vectorized_stats(state.pool, rounds_profile, state.vectorized)
        state.sharded.clear_deltas()
        self.storage.clear_deltas(self.storage.relation_names())
        for name in self.storage.relation_names():
            rounds_profile.result_sizes[name] = self.storage.cardinality(name)
        rounds_profile.record_symbol_stats(self.storage.symbols)
        self._absorb_profile(rounds_profile)
        return result.promoted

    def _apply_recompute(
        self,
        inserts: Dict[str, Set[Row]],
        retracts: Dict[str, Set[Row]],
    ) -> UpdateReport:
        """Fallback for programs with negation/aggregation: recompute from base."""
        report = UpdateReport(strategy="recompute")
        effective_retracts: Dict[str, Set[Row]] = {}
        effective_inserts: Dict[str, Set[Row]] = {}
        for name, rows in retracts.items():
            for row in rows:
                if self.storage.forget_base_row(name, row):
                    report.retracted += 1
                    effective_retracts.setdefault(name, set()).add(row)
        for name, rows in inserts.items():
            for row in rows:
                # Count rows new to Derived — the same meaning `inserted`
                # has on the incremental path (seed_delta's count); rows
                # already derived don't change the fixpoint but still become
                # base rows.
                if row not in self.storage.derived(name):
                    report.inserted += 1
                    effective_inserts.setdefault(name, set()).add(row)
                self.storage.insert_base(name, row)
        # A no-op batch (nothing retracted, every insert already derived)
        # keeps the fixpoint: skip the full recompute and its cache-wide
        # generation churn.
        if effective_retracts or effective_inserts:
            self._rebuild_from_base()
        self._advance_mutation_digests(effective_inserts, effective_retracts)
        return report

    def _reset_to_base(self) -> None:
        """Discard every derived row, keeping base facts.

        After an aborted or failed fixpoint this restores the one state
        evaluation is always correct from: ground facts only, no deltas,
        no partial derivations.  The session is marked unevaluated so the
        next read recomputes.
        """
        names = self.storage.relation_names()
        base = {name: self.storage.base_rows(name) for name in names}
        self.storage.reset_idb(names)
        for name, rows in base.items():
            for row in rows:
                self.storage.insert_base(name, row)
        self._decoded_results.clear()
        self._evaluated = False

    def _rebuild_from_base(self) -> None:
        """Clear every database, re-load base rows, re-run the main tree.

        Ungoverned: rebuilds run on the mutation/maintenance path (recompute
        strategy, catalog refresh), where an abort would strand storage
        between base and fixpoint — see :meth:`_apply_incremental`.
        """
        self._reset_to_base()
        self._execute(self.tree, NOOP_GOVERNOR)
        self._evaluated = True

    # -- queries ----------------------------------------------------------------

    def _refresh_catalog(self) -> None:
        """Re-snapshot the program's ``sys_`` relations before serving a query.

        When a catalog relation's contents changed since the last snapshot,
        the fresh rows replace the stale base facts, the relation's mutation
        digest advances (cache entries over the old snapshot stop matching),
        and — because catalog readers are recompute-strategy sessions — the
        fixpoint is rebuilt from base so rules over ``sys_`` see the new rows.
        """
        if self._catalog is None or not self._catalog_names:
            return
        if self._catalog_frozen:
            return
        changed = self._catalog.refresh(self.storage, self._catalog_names)
        if not changed:
            return
        self._mutation_digests.update(changed)
        if self._evaluated:
            self._rebuild_from_base()

    def fetch_encoded(self, relation: str, limits=None,
                      token=None) -> FrozenSet[Row]:
        """Storage-domain tuples of ``relation``, served from cache when valid.

        The cache holds *encoded* rows — under dictionary encoding a cached
        result is a frozenset of int tuples, one copy of each string living
        in the symbol table — and :class:`~repro.api.result.QueryResult`
        decodes lazily at its boundary.  Symbol ids are deterministic per
        (program, configuration, mutation history), which is exactly the
        cache key + validity-token granularity, so shared entries decode
        identically in every session allowed to hit them.
        """
        governor = self.config.governor(limits, token)
        self._refresh_catalog()
        self._ensure_evaluated(governor)
        dependencies = self._dependencies.get(relation, frozenset((relation,)))
        tokens = {
            name: f"{generation}:{self._mutation_digests[name]}"
            for name, generation in self.storage.generations(dependencies).items()
        }
        key = (self._cache_fingerprint, self._config_key, relation)
        cached = self.cache.lookup(key, tokens)
        self._record_cache_probe(relation, hit=cached is not None)
        if cached is not None:
            rows = cached
        else:
            rows = frozenset(self.storage.tuples(relation))
            self.cache.store(key, tokens, rows)
        if governor.active and rows:
            # Conservative machine-word estimate (8 bytes per column);
            # the result stays cached — the limit bounds this query's
            # response, not the fixpoint.
            arity = len(next(iter(rows)))
            try:
                governor.check_result_bytes(len(rows) * arity * 8)
            except ResilienceError as error:
                self._record_resilience_abort(error)
                raise
        return rows

    def _record_cache_probe(self, relation: str, hit: bool) -> None:
        """Count one ResultCache probe and annotate the ambient span."""
        result = "hit" if hit else "miss"
        self.metrics.counter("result_cache_total", result=result).inc()
        if self.tracer.enabled:
            from repro.telemetry.spans import current_span

            span = current_span()
            if span is not None and not span.noop:
                span.set(cache=result)
                span.event("result-cache", relation=relation, result=result)

    def fetch(self, relation: str, limits=None, token=None) -> FrozenSet[Row]:
        """The current (raw-domain) tuples of ``relation``.

        Decoding is memoised per cached encoded set, so repeat fetches of
        an unchanged relation return the same frozenset object instead of
        re-resolving every row through the symbol table.

        ``limits`` (a :class:`~repro.resilience.limits.QueryLimits`) and
        ``token`` (a :class:`~repro.resilience.cancel.CancellationToken`)
        govern any fixpoint this read has to run: the evaluation aborts
        with a typed :class:`~repro.resilience.errors.ResilienceError`
        when a bound is hit, leaving the session consistent (ground state;
        the next read recomputes).
        """
        rows = self.fetch_encoded(relation, limits, token)
        symbols = self.storage.symbols
        if symbols.identity:
            return rows
        memo = self._decoded_results.get(relation)
        if memo is not None and memo[0] is rows:
            return memo[1]
        decoded = frozenset(symbols.resolve_rows(rows))
        self._decoded_results[relation] = (rows, decoded)
        return decoded

    def query(self, relation: str) -> FrozenSet[Row]:
        """Deprecated: use :meth:`fetch` (or ``Connection.query`` for
        :class:`~repro.api.result.QueryResult` objects)."""
        warnings.warn(
            "IncrementalSession.query() is deprecated; use "
            "IncrementalSession.fetch() or a repro.Database connection, whose "
            "query() returns QueryResult objects",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.fetch(relation)

    def results(self) -> Dict[str, FrozenSet[Row]]:
        """Every IDB relation's tuples (cached individually)."""
        return {name: self.fetch(name) for name in self.program.idb_relations()}

    def resilience_stats(self):
        """``sys_resilience`` rows: ``(kind, name, value)`` counters.

        Covers governance aborts by taxonomy code, shard degradations and
        worker failures from the lifetime profile, and — when a fault
        registry is installed — per-point hit/injection counts.
        """
        from repro.resilience import faults as fault_registry

        rows = [
            ("profile", "worker_failures", self.profile.worker_failures),
            ("profile", "pool_degradations", self.profile.pool_degradations),
        ]
        for name in sorted(self.resilience_events):
            rows.append(("event", name, self.resilience_events[name]))
        rows.extend(fault_registry.active().stat_rows())
        return rows

    # -- verification helpers ----------------------------------------------------

    def snapshot_program(self) -> DatalogProgram:
        """The program with the session's *current* base facts as its EDB.

        Catalog (``sys_``) relations are declared but get no facts — the
        safety checker rejects user facts in the reserved namespace; their
        rows are replayed storage-to-storage by :meth:`recompute` instead.
        """
        from repro.datalog.safety import RESERVED_RELATION_PREFIX

        clone = DatalogProgram(self.program.name)
        for name, decl in self.program.relations.items():
            clone.declare_relation(name, decl.arity)
        symbols = self.storage.symbols
        for name in self.storage.relation_names():
            if name.startswith(RESERVED_RELATION_PREFIX):
                continue
            base = self.storage.base_rows(name)
            if not symbols.identity:
                base = set(symbols.resolve_rows(base))
            for row in sorted(base, key=repr):
                clone.add_fact(name, row)
        for rule in self.program.rules:
            clone.add_rule(rule.head, rule.body, rule.name)
        return clone

    def recompute(self, config: Optional[EngineConfig] = None) -> "ResultSet":
        """From-scratch evaluation of the current base facts (fresh engine).

        The session's *current* catalog snapshot rides along: ``sys_`` base
        rows are replayed into the fresh engine's storage (re-interned in
        its symbol domain) rather than refreshed from live engine state, so
        :meth:`self_check` compares both evaluations over identical inputs.

        The reference evaluation is diagnostic maintenance, not a query:
        session-wide ``config.limits`` are stripped (an explicit ``config``
        argument is honoured as given), so :meth:`self_check` works on
        governed sessions instead of bouncing off their query bounds.
        """
        if config is None:
            config = self.config
            if config.limits is not None:
                config = config.with_(limits=None)
        engine = ExecutionEngine(self.snapshot_program(), config)
        symbols = self.storage.symbols
        for name in self._catalog_names:
            rows = self.storage.base_rows(name)
            if not symbols.identity:
                rows = set(symbols.resolve_rows(rows))
            for row in engine.storage.symbols.intern_rows(rows):
                engine.storage.insert_base(name, row)
        return engine.evaluate()

    def self_check(self) -> None:
        """Assert the incremental state equals a from-scratch evaluation.

        The catalog is refreshed once up front and then frozen for the
        duration of the check: :meth:`recompute` replays that snapshot,
        and the comparison fetches must read the same snapshot — a live
        ring buffer may well have grown since the last user-visible read
        (the traced query that produced it lands in the ring *after* the
        catalog refresh that served it), which is drift, not divergence.
        """
        self._ensure_evaluated()
        self._refresh_catalog()
        reference = self.recompute()
        self._catalog_frozen = True
        try:
            for name, expected in reference.items():
                actual = set(self.fetch(name))
                if actual != set(expected):
                    missing = set(expected) - actual
                    extra = actual - set(expected)
                    raise AssertionError(
                        f"incremental state diverged on {name!r}: "
                        f"{len(missing)} missing, {len(extra)} extra"
                    )
        finally:
            self._catalog_frozen = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        strategy = "incremental" if self.incremental_capable else "recompute"
        return (
            f"IncrementalSession({self.program.name!r}, strategy={strategy}, "
            f"updates={self.updates_applied})"
        )
