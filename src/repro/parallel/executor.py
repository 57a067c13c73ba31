"""Worker pools and the shard-parallel fixpoint driver.

The :class:`ParallelEvaluator` evaluates a program's fixpoint across N
shards.  Per recursive stratum it

1. runs the ordinary seeding pass on the global storage (through the
   standard :class:`~repro.core.executor.IRExecutor`, so aggregate rules and
   JIT seed reordering behave exactly as in single-shard evaluation),
2. picks a placement (:mod:`repro.parallel.partition`) and scatters the
   seeded state into a :class:`~repro.parallel.sharded_storage.ShardedStorage`,
3. drives shard-local semi-naive iterations on a worker pool, exchanging
   freshly derived tuples between rounds (:mod:`repro.parallel.exchange`),
4. merges the shard results back into the global storage deterministically.

Two loop strategies exist, chosen by the partitioning analysis:

* **aligned** — the pivot-aligned partitioning makes every shard's fixpoint
  self-contained, so each worker runs its whole loop as one task and the
  exchange step is provably idle;
* **replicated** — every shard mirrors the stratum's derived database and
  owns a slice of the delta; each round evaluates shard-local deltas, routes
  derived tuples to their owners, and broadcasts accepted tuples so the
  replicas stay complete.  This is the sound fallback for any positive
  recursive stratum (and the engine of the incremental session's
  shard-parallel update propagation).

Worker pools: serial round-robin (always safe — used whenever the machine
has fewer cores than shards, and under pytest/CI), a ``fork``-based process
pool whose children inherit their shard state and exchange picklable row
batches over pipes (the ``auto`` choice on multi-core machines — shard
evaluation is pure Python, so only processes escape the GIL), and an
opt-in thread pool.  Shard workers evaluate their
frozen plans through a one-shot compiled artifact (see
:class:`~repro.core.config.ShardingConfig.shard_backend`): unlike the
adaptive single-shard JIT, a shard's plans never change after setup, so one
compilation per shard amortises over every round — this is what makes the
subsystem faster than the plain interpreter even on a single core, with the
pool adding real parallelism on multi-core machines.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.backends.base import get_backend
from repro.core.config import EngineConfig, ExecutionMode, ShardingConfig
from repro.core.executor import IRExecutor
from repro.core.join_order import (
    JoinOrderOptimizer,
    storage_cardinality_view,
    storage_index_view,
)
from repro.core.profile import RuntimeProfile
from repro.datalog.program import DatalogProgram
from repro.ir.builder import collect_loop_plans
from repro.ir.encoding import plan_allocates
from repro.ir.ops import ProgramOp, StratumOp
from repro.parallel.exchange import (
    ExchangeRouter,
    Outboxes,
    QuiescenceTracker,
    merge_outboxes,
)
from repro.parallel.partition import PartitionSpec, plan_stratum_partitioning
from repro.parallel.sharded_storage import ShardedStorage
from repro.relational.operators import JoinPlan, SubqueryEvaluator
from repro.relational.relation import Row
from repro.relational.storage import DatabaseKind, StorageManager
from repro.resilience import faults
from repro.resilience.cancel import NOOP_TOKEN, CancellationToken
from repro.resilience.errors import ResilienceError, WorkerFailed, error_from_code
from repro.resilience.limits import NOOP_GOVERNOR
from repro.telemetry.spans import NOOP_TRACER, SpanBuffer


# ---------------------------------------------------------------------------
# Worker pools
# ---------------------------------------------------------------------------


class WorkerPool:
    """Invokes one method on every shard worker and gathers ordered results."""

    kind = "abstract"

    def __init__(self, workers: Sequence["ShardWorker"]) -> None:
        self.workers = list(workers)

    def invoke(self, method: str, args_per_worker: Optional[Sequence[tuple]] = None) -> List[Any]:
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources (idempotent)."""


class SerialPool(WorkerPool):
    """Round-robin execution in the calling thread.

    The degradation target required on single-core machines: with
    ``shards > os.cpu_count()`` there is no parallel speedup to be had, so
    the shards simply take turns — same results, no oversubscription, and
    nothing that could deadlock.
    """

    kind = "serial"

    def invoke(self, method, args_per_worker=None):
        faults.fire("pool.invoke", WorkerFailed)
        args_per_worker = args_per_worker or [()] * len(self.workers)
        return [
            getattr(worker, method)(*args)
            for worker, args in zip(self.workers, args_per_worker)
        ]


class ThreadWorkerPool(WorkerPool):
    """A persistent thread pool; workers mutate only their own shard state."""

    kind = "thread"

    def __init__(self, workers: Sequence["ShardWorker"], max_workers: int) -> None:
        super().__init__(workers)
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-shard"
        )

    def invoke(self, method, args_per_worker=None):
        faults.fire("pool.invoke", WorkerFailed)
        args_per_worker = args_per_worker or [()] * len(self.workers)
        futures = [
            self._executor.submit(getattr(worker, method), *args)
            for worker, args in zip(self.workers, args_per_worker)
        ]
        return [future.result() for future in futures]

    def close(self):
        self._executor.shutdown(wait=True)


def _fork_worker_main(connection, worker: "ShardWorker") -> None:
    """Child process loop: execute piped commands against the inherited shard."""
    try:
        while True:
            method, args = connection.recv()
            if method == "__stop__":
                break
            try:
                connection.send(("ok", getattr(worker, method)(*args)))
            except ResilienceError as error:
                # Ship the taxonomy code so the coordinator re-raises the
                # same class (a worker hitting its deadline must surface as
                # DeadlineExceeded, not as a generic worker failure).
                connection.send(("resilience", (error.code, str(error))))
            except Exception as error:  # surface, don't kill the pipe
                connection.send(("error", f"{type(error).__name__}: {error}"))
    finally:
        connection.close()


class ForkWorkerPool(WorkerPool):
    """One forked process per shard; state is inherited, batches are pickled.

    Only the interpreted/compiled shard state needs to survive the fork —
    it is inherited by memory copy, so nothing about the worker itself must
    be picklable.  Per-round traffic (row batches: tuples of plain values)
    is pickled over pipes, which is why this pool is only offered where the
    data is picklable and the ``fork`` start method exists.
    """

    kind = "process"

    def __init__(self, workers: Sequence["ShardWorker"],
                 join_timeout: float = 5.0) -> None:
        super().__init__(workers)
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self.join_timeout = join_timeout
        self._connections = []
        self._processes = []
        for worker in self.workers:
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_fork_worker_main, args=(child_end, worker), daemon=True
            )
            process.start()
            child_end.close()
            self._connections.append(parent_end)
            self._processes.append(process)
        self._closed = False

    def invoke(self, method, args_per_worker=None):
        faults.fire("pool.invoke", WorkerFailed)
        args_per_worker = args_per_worker or [()] * len(self.workers)
        for shard, (connection, args) in enumerate(
            zip(self._connections, args_per_worker)
        ):
            try:
                connection.send((method, args))
            except (BrokenPipeError, OSError):
                self._reap(shard)
                raise WorkerFailed(
                    f"shard {shard} worker died (pipe closed before send)",
                    shard=shard, method=method,
                ) from None
        results = []
        for shard, connection in enumerate(self._connections):
            try:
                status, payload = connection.recv()
            except (EOFError, ConnectionResetError, OSError) as error:
                # The child vanished mid-call (SIGKILL, OOM, segfault).
                # Reap the corpse now so no zombie outlives the pool, then
                # let the caller degrade and re-run the stratum.
                self._reap(shard)
                raise WorkerFailed(
                    f"shard {shard} worker died mid-invoke "
                    f"({type(error).__name__})",
                    shard=shard, method=method,
                ) from None
            if status == "resilience":
                code, message = payload
                raise error_from_code(code, message, shard=shard)
            if status != "ok":
                raise RuntimeError(f"shard {shard} worker failed: {payload}")
            results.append(payload)
        return results

    def _reap(self, shard: int) -> None:
        """Collect one dead (or dying) child so it cannot linger as a zombie."""
        process = self._processes[shard]
        if process.is_alive():
            process.terminate()
        process.join(timeout=self.join_timeout)
        if process.is_alive():  # pragma: no cover - SIGTERM-immune child
            process.kill()
            process.join()

    def close(self):
        if self._closed:
            return
        self._closed = True
        for connection in self._connections:
            try:
                connection.send(("__stop__", ()))
            except (BrokenPipeError, OSError):  # child already gone
                pass
        for process in self._processes:
            process.join(timeout=self.join_timeout)
            if process.is_alive():
                # The child ignored __stop__ (wedged or mid-task): escalate
                # SIGTERM -> SIGKILL and always reap — join(timeout) alone
                # used to give up silently and leak the process.
                process.terminate()
                process.join(timeout=self.join_timeout)
                if process.is_alive():
                    process.kill()
                    process.join()
        for connection in self._connections:
            connection.close()


def drain_pool_vectorized_stats(pool: WorkerPool, profile: RuntimeProfile,
                                interpreted: bool) -> None:
    """Fold every worker's (reset-on-read) batch counters into ``profile``.

    Shared by the one-shot :class:`ParallelEvaluator` pools and the
    incremental session's persistent pool, so sharded runs report the same
    explain() counters as single-shard runs, whether the workers' kernels
    ran inside compiled artifacts or under the vectorized interpreter
    (``interpreted``: each batch is then also one vectorized sub-query
    evaluation).
    """
    for stats in pool.invoke("drain_vectorized_stats"):
        profile.absorb_block_stats(stats)
        if interpreted:
            profile.sources.vectorized += stats.get("batches", 0)


def fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def resolve_pool_kind(sharding: ShardingConfig, shards: int) -> str:
    """Decide which pool to use, degrading gracefully on small machines.

    ``auto`` only parallelises when the machine has a core per shard and we
    are not inside pytest/CI (single-core runners and test harnesses get
    serial round-robin — identical results, no oversubscription).  Where it
    does parallelise it prefers the forked-process pool: shard evaluation is
    pure Python, so threads contend on the GIL and add synchronisation
    without overlap — only processes deliver real parallelism.  The thread
    pool remains an explicit opt-in (useful where forking is hostile, e.g.
    embedded interpreters).  An explicit ``process`` request falls back to
    serial where ``fork`` is unavailable rather than failing.
    """
    requested = sharding.pool
    cpus = os.cpu_count() or 1
    if requested == "serial":
        return "serial"
    if requested == "thread":
        return "thread"
    if requested == "process":
        return "process" if fork_available() else "serial"
    # "auto"
    if shards > cpus or cpus <= 1:
        return "serial"
    if "PYTEST_CURRENT_TEST" in os.environ or os.environ.get("CI"):
        return "serial"
    return "process" if fork_available() else "serial"


def make_pool(kind: str, workers: Sequence["ShardWorker"]) -> WorkerPool:
    if kind == "thread":
        cpus = os.cpu_count() or 1
        return ThreadWorkerPool(workers, max_workers=min(len(workers), max(1, cpus)))
    if kind == "process":
        return ForkWorkerPool(workers)
    return SerialPool(workers)


def shard_stat_rows(config: EngineConfig, pool=None, degradations: int = 0):
    """The ``sys_shards`` catalog rows for one configuration.

    One ``(shard, pool_kind, degradations)`` row per shard.  ``pool`` is a
    live :class:`WorkerPool` when the session has built its shard state (its
    ``kind`` is authoritative — it reflects any degradation that already
    happened); otherwise the kind is what :func:`resolve_pool_kind` would
    pick right now.  Non-sharded configurations have no shard topology:
    empty.
    """
    from repro.engine.engine import sharding_active

    if not sharding_active(config):
        return []
    sharding = config.sharding
    kind = pool.kind if pool is not None else resolve_pool_kind(
        sharding, sharding.shards
    )
    return [
        (shard, kind, int(degradations)) for shard in range(sharding.shards)
    ]


# ---------------------------------------------------------------------------
# Shard workers
# ---------------------------------------------------------------------------


class ShardWorker:
    """Evaluates one shard's loop plans against its local storage.

    ``groups`` are ``(relation, plans)`` pairs extracted from the loop body;
    :meth:`prepare` freezes each group into either a one-shot compiled
    artifact or an interpreted closure.  The worker never touches another
    shard's storage: cross-shard rows leave through outboxes and arrive via
    :meth:`ingest_and_collect` / :meth:`finish_round`, all invoked by the
    coordinator at round barriers.
    """

    def __init__(
        self,
        shard_id: int,
        storage: StorageManager,
        groups: Sequence[Tuple[str, Sequence[JoinPlan]]],
        swap_relations: Sequence[str],
        router: Optional[ExchangeRouter] = None,
    ) -> None:
        self.shard_id = shard_id
        self.storage = storage
        self.groups = [(relation, list(plans)) for relation, plans in groups]
        self.swap_relations = list(swap_relations)
        self.router = router
        self._evaluate_group: List[Callable[[], Set[Row]]] = []
        self._evaluators: List[SubqueryEvaluator] = []
        #: In-shard span recorder (see :class:`SpanBuffer`): populated by
        #: ``prepare(..., trace=True)``, drained by the coordinator through
        #: the pool and remapped into the live trace.
        self.telemetry: Optional[SpanBuffer] = None
        self._round = 0

    def prepare(self, backend_name: Optional[str], style: str,
                executor: str = "pushdown", trace: bool = False) -> None:
        """Freeze each plan group into its evaluation closure.

        Must run before the pool starts (fork children inherit the compiled
        artifacts; threads share them read-only).  ``style``/``executor``
        configure the shard's interpreter: the interpreting closure runs
        on it, and every backend's artifact either hands work back to it
        (``irgen``) or runs its block kernels (the rest), so its batch
        counters see every group.  ``trace`` attaches a :class:`SpanBuffer`
        recording per-round worker spans.
        """
        self._evaluate_group = []
        self._evaluators = []
        self.telemetry = SpanBuffer() if trace else None
        self._round = 0
        tracer = self.telemetry if self.telemetry is not None else NOOP_TRACER
        for relation, plans in self.groups:
            evaluator = SubqueryEvaluator(
                self.storage, style, executor=executor, tracer=tracer
            )
            self._evaluators.append(evaluator)
            if backend_name:
                artifact = get_backend(backend_name).compile_plans(
                    plans, self.storage, evaluator=evaluator,
                )
                self._evaluate_group.append(
                    (lambda artifact=artifact: artifact(self.storage))
                )
            else:
                def interpret(plans=plans, evaluator=evaluator) -> Set[Row]:
                    rows: Set[Row] = set()
                    for plan in plans:
                        rows |= evaluator.evaluate(plan)
                    return rows
                self._evaluate_group.append(interpret)

    def drain_spans(self) -> List[Dict[str, Any]]:
        """This shard's recorded span dicts, reset after reading.

        Pulled through the pool (fork children own their buffers) and merged
        into the coordinator trace via ``Tracer.merge_buffer``.
        """
        return self.telemetry.drain() if self.telemetry is not None else []

    def drain_vectorized_stats(self) -> Dict[str, int]:
        """This shard's accumulated batch counters, reset after reading.

        Pulled through the pool at merge time (fork children own their
        evaluators) so parallel+vectorized runs report batch/strategy counts
        in the profile just like single-shard runs; draining keeps a
        persistent session pool from double-counting across batches.
        """
        merged: Dict[str, int] = {}
        for evaluator in self._evaluators:
            stats = evaluator.vectorized_stats
            if stats:
                for key, value in stats.items():
                    merged[key] = merged.get(key, 0) + value
                    stats[key] = 0
        return merged

    # -- aligned strategy --------------------------------------------------------

    def run_local_fixpoint(self, max_iterations: int,
                           deadline: Optional[float] = None) -> Tuple[int, int]:
        """Run the shard's semi-naive loop to local fixpoint.

        Used by the aligned strategy, where pivot alignment guarantees every
        derivable row is locally owned — so the whole loop is one pool task.
        ``deadline`` is an absolute monotonic instant (CLOCK_MONOTONIC is
        system-wide, so the coordinator's deadline is meaningful inside a
        forked child); the loop checks it cooperatively each iteration and
        raises :class:`~repro.resilience.errors.DeadlineExceeded`, which the
        fork pool ships back as a typed error.  Returns ``(iterations,
        promoted_total)``.
        """
        iterations = 0
        promoted_total = 0
        tracer = self.telemetry if self.telemetry is not None else NOOP_TRACER
        token = (CancellationToken(deadline=deadline) if deadline is not None
                 else NOOP_TOKEN)
        while True:
            if token.active:
                token.check()
            iterations += 1
            span = tracer.span("iteration", shard=self.shard_id, round=iterations)
            for (relation, _plans), evaluate in zip(self.groups, self._evaluate_group):
                self.storage.insert_new_batch(relation, evaluate())
            promoted = self.storage.swap_and_clear(self.swap_relations)
            span.set(promoted=promoted).finish()
            promoted_total += promoted
            if promoted == 0 or iterations >= max_iterations:
                return iterations, promoted_total

    # -- replicated strategy (one exchange round at a time) ----------------------

    def evaluate_round(self) -> Tuple[int, Outboxes]:
        """Evaluate this shard's delta slice; keep owned rows, export the rest."""
        assert self.router is not None
        self._round += 1
        tracer = self.telemetry if self.telemetry is not None else NOOP_TRACER
        span = tracer.span("iteration", shard=self.shard_id, round=self._round)
        accepted_local = 0
        outboxes: Outboxes = {}
        try:
            for (relation, _plans), evaluate in zip(self.groups, self._evaluate_group):
                produced = evaluate()
                if not produced:
                    continue
                local, routed = self.router.route(relation, produced, self.shard_id)
                accepted_local += self.storage.insert_new_batch(relation, set(local))
                for owner, batches in routed.items():
                    box = outboxes.setdefault(owner, {})
                    for name, rows in batches.items():
                        box.setdefault(name, []).extend(rows)
        finally:
            span.set(accepted=accepted_local).finish()
        return accepted_local, outboxes

    def ingest_and_collect(
        self, inbox: Mapping[str, Sequence[Sequence[Any]]]
    ) -> Tuple[int, Dict[str, List[Row]]]:
        """Accept delivered rows, then report this round's full delta batch.

        Delivered rows deduplicate against the local Derived replica exactly
        like locally derived ones.  The returned batch (the Delta-New
        contents: local + delivered acceptances) is what the coordinator
        broadcasts for replica maintenance.  Rows are returned unsorted —
        every consumer folds them into set-backed relations, and sorting
        would break on relations whose columns mix value types.
        """
        accepted = 0
        for relation, rows in inbox.items():
            accepted += self.storage.insert_new_many(relation, rows)
        batch = {
            relation: list(self.storage.tuples(relation, DatabaseKind.DELTA_NEW))
            for relation in self.swap_relations
            if self.storage.cardinality(relation, DatabaseKind.DELTA_NEW)
        }
        return accepted, batch

    def finish_round(self, foreign: Mapping[str, Sequence[Sequence[Any]]]) -> int:
        """Promote the local delta, then absorb other owners' accepted rows.

        The swap runs first so foreign rows never enter this shard's delta:
        they are owned — and delta-joined — elsewhere; here they only keep
        the Derived replica complete.
        """
        promoted = self.storage.swap_and_clear(self.swap_relations)
        for relation, rows in foreign.items():
            self.storage.absorb_rows(relation, rows)
        return promoted

    # -- result collection -------------------------------------------------------

    def collect_derived(self, relations: Sequence[str]) -> Dict[str, List[Row]]:
        """This shard's Derived rows (the merge path for every pool kind).

        Fork-pool children mutate their own copy of the shard state, so the
        coordinator must always pull results through the pool instead of
        reading its (stale, for forked pools) worker objects directly.
        Rows come back unsorted: the merge target is set-backed, so the
        result does not depend on row order, and sorting would break on
        relations whose columns mix value types.
        """
        return {
            relation: list(self.storage.relation(relation).rows())
            for relation in relations
        }


# ---------------------------------------------------------------------------
# The replicated-strategy round driver
# ---------------------------------------------------------------------------


@dataclass
class RoundDriverResult:
    rounds: int = 0
    exchanged: int = 0
    promoted: int = 0


def run_replicated_rounds(
    pool: WorkerPool,
    shards: int,
    max_rounds: int,
    tracker: Optional[QuiescenceTracker] = None,
    on_accepted: Optional[Callable[[Dict[str, List[Row]]], None]] = None,
    governor=NOOP_GOVERNOR,
) -> RoundDriverResult:
    """Drive exchange rounds until the two-phase quiescence check passes.

    ``on_accepted`` receives every round's accepted rows (relation → rows),
    which is how the incremental session folds shard-parallel propagation
    results into its global storage as they appear.  ``governor`` (a
    :class:`~repro.resilience.limits.QueryGovernor`) is polled at every
    round boundary — one exchange round is the replicated strategy's
    cancellation granularity.
    """
    tracker = tracker if tracker is not None else QuiescenceTracker()
    result = RoundDriverResult()
    while result.rounds < max_rounds:
        result.rounds += 1
        stats = tracker.begin_round()

        evaluated = pool.invoke("evaluate_round")
        stats.accepted_local = sum(accepted for accepted, _ in evaluated)
        inboxes = merge_outboxes([outboxes for _, outboxes in evaluated], shards)
        stats.exchanged = sum(
            len(rows) for inbox in inboxes for rows in inbox.values()
        )

        ingested = pool.invoke("ingest_and_collect", [(inbox,) for inbox in inboxes])
        stats.accepted_delivered = sum(accepted for accepted, _ in ingested)

        accepted_rows: Dict[str, List[Row]] = {}
        for _, batch in ingested:
            for relation, rows in batch.items():
                accepted_rows.setdefault(relation, []).extend(rows)
        if on_accepted is not None and accepted_rows:
            on_accepted(accepted_rows)

        foreign_per_shard: List[Dict[str, List[Row]]] = []
        for shard in range(shards):
            foreign: Dict[str, List[Row]] = {}
            for other, (_, batch) in enumerate(ingested):
                if other == shard:
                    continue
                for relation, rows in batch.items():
                    foreign.setdefault(relation, []).extend(rows)
            foreign_per_shard.append(foreign)

        promoted = pool.invoke("finish_round", [(f,) for f in foreign_per_shard])
        stats.promoted = sum(promoted)
        result.exchanged += stats.exchanged
        result.promoted += stats.promoted
        if tracker.global_fixpoint(stats):
            break
        if governor.active:
            governor.on_round(stats.promoted)
    return result


# ---------------------------------------------------------------------------
# The parallel evaluator
# ---------------------------------------------------------------------------


@dataclass
class StratumRunReport:
    """How one stratum was evaluated."""

    index: int
    strategy: str                     # "serial" | "aligned" | "replicated"
    shards: int = 1
    pool: str = "serial"
    rounds: int = 0
    exchanged: int = 0
    promoted: int = 0
    seconds: float = 0.0
    partition_reasons: Dict[str, str] = field(default_factory=dict)


@dataclass
class ParallelRunReport:
    """Everything the shard-parallel evaluation did."""

    shards: int
    strata: List[StratumRunReport] = field(default_factory=list)
    seconds: float = 0.0

    def strategies(self) -> List[str]:
        return [stratum.strategy for stratum in self.strata]

    def total_exchanged(self) -> int:
        return sum(stratum.exchanged for stratum in self.strata)


def resolve_shard_backend(config: EngineConfig) -> Optional[str]:
    """Which backend shard workers compile their frozen plans with.

    See :class:`~repro.core.config.ShardingConfig.shard_backend`.  AOT mode
    interprets by default so its reorder-only character is preserved; the
    JIT modes keep their configured backend; interpreted mode defaults to
    the cheap-to-invoke ``bytecode`` backend, whose artifacts run the same
    block kernels as the vectorized executor, so a pushdown configuration's
    shard workers run them too.
    """
    assert config.sharding is not None
    choice = config.sharding.shard_backend
    if choice == "none":
        return None
    if choice != "auto":
        return choice
    if config.mode == ExecutionMode.JIT:
        return config.backend
    if config.mode == ExecutionMode.AOT:
        return None
    if config.executor == "vectorized":
        # The batch pipeline plays the role of the one-shot compile: shard
        # workers interpret their frozen plans block-at-a-time instead.
        return None
    return "bytecode"


class ParallelEvaluator:
    """Evaluates one prepared program shard-parallel (see module docstring)."""

    def __init__(
        self,
        program: DatalogProgram,
        config: EngineConfig,
        storage: StorageManager,
        tree: ProgramOp,
        profile: Optional[RuntimeProfile] = None,
        governor=None,
    ) -> None:
        if config.sharding is None or config.sharding.shards < 2:
            raise ValueError("ParallelEvaluator requires a sharding config with shards >= 2")
        self.program = program
        self.config = config
        self.sharding = config.sharding
        self.storage = storage
        self.tree = tree
        self.profile = profile if profile is not None else RuntimeProfile()
        self.tracer = config.tracer()
        self.governor = governor if governor is not None else config.governor()
        self.report = ParallelRunReport(shards=self.sharding.shards)

    # -- public API --------------------------------------------------------------

    def run(self) -> ParallelRunReport:
        started = time.perf_counter()
        for stratum in self.tree.strata:
            stratum_started = time.perf_counter()
            with self.tracer.span("stratum", index=stratum.index) as span:
                report = self._run_stratum(stratum, span)
                span.set(
                    strategy=report.strategy, shards=report.shards,
                    pool=report.pool,
                )
            report.seconds = time.perf_counter() - stratum_started
            self.report.strata.append(report)
        self.report.seconds = time.perf_counter() - started
        self.profile.wall_seconds = self.report.seconds
        for name in self.storage.relation_names():
            self.profile.result_sizes[name] = self.storage.cardinality(name)
        self.profile.record_symbol_stats(self.storage.symbols)
        return self.report

    # -- per-stratum driver ------------------------------------------------------

    def _run_stratum(self, stratum: StratumOp, span=None) -> StratumRunReport:
        groups = collect_loop_plans(stratum.loop) if stratum.loop is not None else None
        if stratum.loop is None or groups is None:
            self._execute_serial(stratum)
            return StratumRunReport(index=stratum.index, strategy="serial")

        # 1. Seed on the global storage with the standard executor.
        self._execute_serial(
            StratumOp(stratum.index, stratum.relations, stratum.seed, None)
        )

        # 2. Placement.
        plans = [plan for _, group_plans in groups for plan in group_plans]
        arities = {
            name: self.storage.arity_of(name) for name in self.storage.relation_names()
        }
        fact_counts = {
            name: self.storage.cardinality(name)
            for name in self.storage.relation_names()
        }
        partitioning = plan_stratum_partitioning(
            self.sharding.shards, plans, stratum.relations, arities, fact_counts
        )
        spec = partitioning.spec
        if self.config.mode == ExecutionMode.JIT:
            groups = self._reorder_groups(groups)

        pool_kind = resolve_pool_kind(self.sharding, spec.shards)
        if (
            pool_kind == "process"
            and not self.storage.symbols.identity
            and any(plan_allocates(plan) for plan in plans)
        ):
            # Plans that compute fresh values (assignments, arithmetic
            # heads) can intern new symbols mid-fixpoint.  A forked child
            # allocating ids would diverge from its siblings' inherited
            # tables, so such strata stay in-process — on the thread pool,
            # where every worker interns through the one locked table and
            # shard parallelism survives (the report's ``pool`` column
            # shows the substitution).
            pool_kind = "thread"
            self.profile.pool_degradations += 1

        max_rounds = min(
            stratum.loop.max_iterations,
            self.config.max_iterations,
            self.sharding.max_rounds,
        )
        # Scatter/drive/merge runs under worker-failure degradation: the
        # global storage is only read until the merge, so when a shard
        # worker dies mid-stratum (detected and reaped by the pool) the
        # whole stage can be rebuilt from the still-pristine global state
        # and re-driven on the next-safer pool kind — a crashed worker
        # costs latency, never the answer.
        while True:
            report = StratumRunReport(
                index=stratum.index,
                strategy="aligned" if spec.aligned else "replicated",
                shards=spec.shards,
                pool=pool_kind,
                partition_reasons=dict(partitioning.reasons),
            )
            try:
                self._drive_stratum(
                    stratum, spec, groups, pool_kind, max_rounds, span, report
                )
                break
            except WorkerFailed:
                if pool_kind == "serial":
                    raise
                self.profile.worker_failures += 1
                self.profile.pool_degradations += 1
                pool_kind = "thread" if pool_kind == "process" else "serial"

        # Leave the global deltas the way a completed serial loop would.
        self.storage.clear_deltas(stratum.relations)
        return report

    def _drive_stratum(
        self,
        stratum: StratumOp,
        spec: PartitionSpec,
        groups: Sequence[Tuple[str, Sequence[JoinPlan]]],
        pool_kind: str,
        max_rounds: int,
        span,
        report: StratumRunReport,
    ) -> None:
        """One scatter → drive → merge attempt of a recursive stratum."""
        # 3. Scatter the seeded state.
        sharded = ShardedStorage(
            spec, self.storage, relations=set(spec.columns) | set(spec.replicated)
        )
        for name in sorted(spec.replicated):
            # Loop plans only ever *read* support relations, so every shard
            # can adopt the global copy by reference instead of duplicating it.
            sharded.share_derived(self.storage, name)
        for name in sorted(spec.columns):
            if spec.aligned:
                sharded.partition_derived(self.storage, name)
            else:
                sharded.replicate_derived(self.storage, name)
            sharded.scatter_delta(
                name, self.storage.tuples(name, DatabaseKind.DELTA_KNOWN)
            )

        # 4. Workers and pool.
        router = ExchangeRouter(spec)
        swap_relations = [r for r in stratum.relations if r in spec.columns]
        workers = [
            ShardWorker(
                shard, sharded.shard(shard), groups, swap_relations, router=router
            )
            for shard in range(spec.shards)
        ]
        backend_name = resolve_shard_backend(self.config)
        for worker in workers:
            worker.prepare(
                backend_name, self.config.evaluator_style, self.config.executor,
                trace=self.tracer.enabled,
            )
        pool = make_pool(pool_kind, workers)
        governor = self.governor

        try:
            if spec.aligned:
                results = pool.invoke(
                    "run_local_fixpoint",
                    [(max_rounds, governor.deadline)] * spec.shards,
                )
                report.rounds = max(iterations for iterations, _ in results)
                report.promoted = sum(promoted for _, promoted in results)
                self.profile.record_iteration(
                    stratum.index, report.rounds, report.promoted, None, 0.0
                )
                if governor.active:
                    governor.on_round(report.promoted)
            else:
                tracker = QuiescenceTracker()
                outcome = run_replicated_rounds(
                    pool, spec.shards, max_rounds, tracker=tracker,
                    governor=governor,
                )
                report.rounds = outcome.rounds
                report.exchanged = outcome.exchanged
                report.promoted = outcome.promoted
                for stats in tracker.rounds:
                    self.profile.record_iteration(
                        stratum.index, stats.round_index, stats.promoted, None, 0.0
                    )

            # 5. Merge (always through the pool: fork children own the state).
            # Aligned shards each hold a disjoint fragment, so all must be
            # collected; replicated shards converge to identical mirrors, so
            # only shard 0 is asked for rows (the rest collect nothing).
            merge_relations = swap_relations
            if spec.aligned:
                collect_args = [(merge_relations,)] * spec.shards
            else:
                collect_args = [(merge_relations,)] + [((),)] * (spec.shards - 1)
            collected = pool.invoke("collect_derived", collect_args)
            for shard_rows in collected:
                for name, rows in shard_rows.items():
                    self.storage.absorb_rows(name, rows)
            drain_pool_vectorized_stats(
                pool, self.profile,
                backend_name is None and self.config.executor == "vectorized",
            )
            if self.tracer.enabled and span is not None:
                # Reparent worker-recorded spans onto this stratum span
                # (fork children serialise theirs back over the pipe).
                for records in pool.invoke("drain_spans"):
                    self.tracer.merge_buffer(records, parent=span)
        finally:
            pool.close()

    # -- helpers -----------------------------------------------------------------

    def _execute_serial(self, stratum: StratumOp) -> None:
        # trace_strata=False: the coordinator already opened this stratum's
        # span, so the nested executor's iterations attach to it directly.
        executor = IRExecutor(
            self.storage, self.config, self.profile,
            tracer=self.tracer, trace_strata=False,
        )
        executor.execute(ProgramOp([stratum], name=self.tree.name))

    def _reorder_groups(
        self, groups: Sequence[Tuple[str, Sequence[JoinPlan]]]
    ) -> List[Tuple[str, List[JoinPlan]]]:
        """JIT composition: order each plan once, from post-seed cardinalities.

        The adaptive single-shard JIT re-decides join orders per iteration;
        shard plans are frozen at setup, so the decision is taken once here —
        against the global cardinalities the seeding pass just produced —
        then compiled once per shard.
        """
        optimizer = JoinOrderOptimizer(self.config.selectivity)
        cardinalities = storage_cardinality_view(self.storage)
        indexes = storage_index_view(self.storage)
        reordered: List[Tuple[str, List[JoinPlan]]] = []
        for relation, plans in groups:
            ordered = []
            for plan in plans:
                optimized, decision = optimizer.optimize_plan(plan, cardinalities, indexes)
                self.profile.record_reorder(0, plan.rule_name, "shard-setup", decision)
                ordered.append(optimized)
            reordered.append((relation, ordered))
        return reordered
