"""Execution configuration: mode, backend, granularity, staging options.

One :class:`EngineConfig` value describes every evaluation strategy the paper
compares, from the fully interpreted baselines of Table I through the JIT
configurations of Figs. 6–9 to the ahead-of-time ("macro") configurations of
Fig. 10.  Helper constructors build the named configurations used throughout
the benchmark harness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.relational.statistics import SelectivityModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.resilience.faults import FaultRegistry
    from repro.resilience.limits import QueryLimits
    from repro.telemetry.config import TelemetryConfig


class ExecutionMode(str, enum.Enum):
    """Top-level evaluation strategy."""

    #: Interpret the as-written plans; no reordering, no code generation.
    INTERPRETED = "interpreted"
    #: Just-in-time: reorder (and optionally compile) during execution.
    JIT = "jit"
    #: Ahead-of-time ("macro"): reorder plans before execution begins,
    #: optionally also enabling the online IRGenerator re-sorter.
    AOT = "aot"
    #: Naive evaluation (no delta relations); used by baselines and tests.
    NAIVE = "naive"


class CompilationGranularity(str, enum.Enum):
    """At which IROp node the JIT applies optimization + code generation.

    Higher granularity → fewer compilations over stale-er statistics; lower
    granularity → fresher delta cardinalities but more frequent compilation
    (paper §V-B2).
    """

    RELATION = "relation"   # the pink UnionOp*: once per relation per iteration
    RULE = "rule"           # the yellow UnionOp: once per rule per iteration
    JOIN = "join"           # the blue σπ⋈: before every n-way join


class AOTSortMode(str, enum.Enum):
    """What information the ahead-of-time optimizer may use (Fig. 10)."""

    NONE = "none"
    RULES_ONLY = "rules"          # selectivity heuristics only, no cardinalities
    FACTS_AND_RULES = "facts"     # initial EDB cardinalities + selectivity


@dataclass(frozen=True)
class ShardingConfig:
    """Configuration of the shard-parallel evaluation subsystem.

    Orthogonal to :class:`ExecutionMode`: any mode except NAIVE (a baseline
    kept deliberately simple) can be sharded.  ``shards=1`` means sharding
    is disabled — evaluation takes the ordinary single-shard engine path,
    so ``EngineConfig.parallel(shards=1)`` is exactly the standard engine.

    ``pool`` selects the worker pool: ``"auto"`` uses forked processes when
    the machine has enough cores for the requested shard count (shard
    evaluation is pure Python, so threads would contend on the GIL — only
    processes parallelise it) and falls back to serial round-robin
    otherwise (including under pytest/CI, where oversubscription hurts more
    than it helps); ``"serial"``, ``"thread"`` and ``"process"`` force a
    specific pool (``"process"`` requires the fork start method and
    degrades to serial where unavailable).

    ``shard_backend`` controls how workers evaluate their loop plans.  A
    shard's plans are frozen for the whole fixpoint, so — unlike the
    adaptive single-shard JIT, which must keep re-deciding — one compilation
    per shard at setup amortises over every round.  ``"auto"`` compiles with
    the ``bytecode`` backend (block kernels, like every code-generating
    backend) in interpreted mode, the configured JIT backend
    in JIT mode, and interprets the (pre-reordered) plans in AOT mode;
    ``"none"`` forces pure interpretation inside workers; any backend name
    forces that backend.
    """

    shards: int = 1
    pool: str = "auto"              # "auto" | "serial" | "thread" | "process"
    shard_backend: str = "auto"     # "auto" | "none" | a backend name
    max_rounds: int = 1_000_000

    def with_(self, **changes) -> "ShardingConfig":
        """A modified copy (dataclasses.replace wrapper)."""
        return replace(self, **changes)


@dataclass
class EngineConfig:
    """Every knob of one program evaluation."""

    mode: ExecutionMode = ExecutionMode.INTERPRETED
    backend: str = "irgen"
    granularity: CompilationGranularity = CompilationGranularity.RULE
    async_compilation: bool = False
    compile_mode: str = "full"                 # "full" or "snippet"
    use_indexes: bool = True
    evaluator_style: str = "push"              # "push" or "pull"
    #: Physical sub-query executor: ``"pushdown"`` is the tuple-at-a-time
    #: binding recursion (the oracle every other executor is tested
    #: against), ``"vectorized"`` the batch executor (lowered block kernels) —
    #: ``EngineConfig.with_(executor="vectorized")`` turns it on over any
    #: configuration, and :meth:`jit` configurations start with it.
    #: Orthogonal to mode/backend/sharding: it changes how interpreted
    #: sub-queries run (under the JIT: the seed stage, non-recursive strata,
    #: async waits, snippet continuations, ``irgen`` artifacts), never what
    #: they compute.  Compiled artifacts of the other backends are block
    #: kernels either way, so ``jit().with_(executor="pushdown")`` differs
    #: from the default JIT only in those interpreted stages.
    executor: str = "pushdown"                 # "pushdown" or "vectorized"
    #: Dictionary-encoded storage: intern every constant into a dense int
    #: domain at load/insert time and run the whole fixpoint over int
    #: tuples, decoding lazily at the QueryResult boundary.  On by default;
    #: ``interning=False`` keeps raw values end-to-end (the PR-4 behaviour)
    #: and doubles as the differential oracle the encoded engine is tested
    #: against.  Orthogonal to mode/backend/executor/sharding.
    interning: bool = True
    freshness_threshold: float = 0.2
    optimize_seed: bool = True
    max_iterations: int = 1_000_000
    selectivity: SelectivityModel = field(default_factory=SelectivityModel)
    aot_sort: AOTSortMode = AOTSortMode.NONE
    aot_online: bool = False
    collect_profile: bool = True
    sharding: Optional[ShardingConfig] = None
    #: Observability wiring (:class:`repro.telemetry.TelemetryConfig`).
    #: ``None`` (the default) means the zero-overhead no-op tracer and a
    #: private metrics registry — evaluation semantics never depend on it,
    #: so it is excluded from session configuration cache keys.
    telemetry: Optional["TelemetryConfig"] = None
    #: Session-wide default query bounds (:class:`repro.resilience.
    #: QueryLimits`); per-query limits passed to ``query(...)`` override.
    #: ``None`` means unbounded — the executors hold the zero-overhead
    #: ``NOOP_GOVERNOR``.  Like telemetry, limits never change what a
    #: successful evaluation computes, so they are excluded from session
    #: configuration cache keys.
    limits: Optional["QueryLimits"] = None
    #: Fault-injection schedule (:class:`repro.resilience.FaultRegistry` or
    #: an iterable of ``FaultSpec``/spec strings), installed process-wide
    #: when an evaluation is prepared.  ``None`` (the default) keeps every
    #: fault point on the free no-op path.  Test/chaos-only; excluded from
    #: cache keys for the same reason as telemetry.
    faults: Optional["FaultRegistry"] = None
    label: str = ""

    def tracer(self):
        """The tracer this configuration selects (no-op unless enabled)."""
        from repro.telemetry.config import tracer_of

        return tracer_of(self.telemetry)

    def governor(self, limits: Optional["QueryLimits"] = None, token=None):
        """A per-evaluation governor for ``limits`` (or this config's
        default limits), or the shared no-op when nothing is bounded."""
        from repro.resilience.limits import governor_of

        return governor_of(limits if limits is not None else self.limits,
                           token)

    def describe(self) -> str:
        """A short configuration name for result tables.

        Sharded configurations always carry their shard count (an ``xN``
        suffix), including labelled ones — a parallel configuration's name
        round-trips through :meth:`with_` without losing the shard count.
        The suffix is appended unconditionally to labels (no substring
        guessing), so a label must not embed the count itself.
        """
        suffix = "+vec" if self.executor == "vectorized" else ""
        if not self.interning:
            suffix += "+raw"
        if self.sharding is not None and self.sharding.shards > 1:
            suffix += f"x{self.sharding.shards}"
        if self.label:
            return self.label + suffix
        if self.mode == ExecutionMode.INTERPRETED:
            return "interpreted" + ("+idx" if self.use_indexes else "") + suffix
        if self.mode == ExecutionMode.NAIVE:
            return "naive"  # no shard suffix: NAIVE always bypasses sharding
        if self.mode == ExecutionMode.AOT:
            online = "+online" if self.aot_online else ""
            return f"macro-{self.aot_sort.value}{online}{suffix}"
        sync = "async" if self.async_compilation else "blocking"
        return f"jit-{self.backend}-{sync}-{self.granularity.value}{suffix}"

    # -- named configurations used by the benchmark harness --------------------

    @staticmethod
    def interpreted(use_indexes: bool = True) -> "EngineConfig":
        """The "unoptimized"/"hand-optimized" interpreted baseline of Table I."""
        return EngineConfig(mode=ExecutionMode.INTERPRETED, use_indexes=use_indexes)

    @staticmethod
    def naive(use_indexes: bool = True) -> "EngineConfig":
        return EngineConfig(mode=ExecutionMode.NAIVE, use_indexes=use_indexes)

    @staticmethod
    def jit(
        backend: str = "lambda",
        asynchronous: bool = False,
        granularity: CompilationGranularity = CompilationGranularity.RULE,
        use_indexes: bool = True,
        compile_mode: str = "full",
    ) -> "EngineConfig":
        """A JIT configuration (the "JIT <backend> <blocking|async>" bars).

        Whatever the JIT interprets — the seed stage, non-recursive strata,
        sub-queries waiting on an asynchronous compilation, ``irgen``
        artifacts — runs on the same block kernels its compiled artifacts
        do (``executor="vectorized"``), so adapting never falls back to a
        slower evaluator than the one it compiles for.
        ``.with_(executor="pushdown")`` interprets tuple at a time instead:
        the oracle the kernels are tested against.
        """
        return EngineConfig(
            mode=ExecutionMode.JIT,
            backend=backend,
            async_compilation=asynchronous,
            granularity=granularity,
            use_indexes=use_indexes,
            compile_mode=compile_mode,
            executor="vectorized",
        )

    @staticmethod
    def aot(
        sort: AOTSortMode = AOTSortMode.FACTS_AND_RULES,
        online: bool = False,
        use_indexes: bool = True,
    ) -> "EngineConfig":
        """An ahead-of-time ("macro") configuration of Fig. 10."""
        return EngineConfig(
            mode=ExecutionMode.AOT,
            aot_sort=sort,
            aot_online=online,
            use_indexes=use_indexes,
            backend="irgen",
        )

    @staticmethod
    def parallel(
        shards: int = 2,
        base: Optional["EngineConfig"] = None,
        pool: str = "auto",
        shard_backend: str = "auto",
        max_rounds: int = 1_000_000,
        **changes,
    ) -> "EngineConfig":
        """A shard-parallel configuration over any base configuration.

        Sharding composes orthogonally with the execution mode::

            EngineConfig.parallel(shards=4)                          # interpreted base
            EngineConfig.parallel(shards=4, base=EngineConfig.jit()) # sharded JIT
            EngineConfig.parallel(shards=2, mode=ExecutionMode.AOT)  # keyword overrides

        ``shards=1`` disables sharding (the standard single-shard engine
        runs); NAIVE mode always bypasses sharding.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        config = base if base is not None else EngineConfig()
        if changes:
            config = config.with_(**changes)
        return config.with_(
            sharding=ShardingConfig(
                shards=shards,
                pool=pool,
                shard_backend=shard_backend,
                max_rounds=max_rounds,
            )
        )

    #: ``with_`` keys routed into the nested :class:`ShardingConfig`.
    _SHARDING_KEYS = frozenset({"shards", "pool", "shard_backend", "max_rounds"})

    def with_(self, **changes) -> "EngineConfig":
        """A modified copy (dataclasses.replace wrapper).

        Sharding-level knobs (``shards``, ``pool``, ``shard_backend``,
        ``max_rounds``) are routed into the nested :class:`ShardingConfig`,
        so a parallel configuration survives copy-with-changes:
        ``EngineConfig.parallel(shards=4).with_(shards=2)`` re-shards, and
        ``.with_(use_indexes=False)`` keeps the sharding intact.
        """
        shard_changes = {
            key: changes.pop(key)
            for key in list(changes)
            if key in self._SHARDING_KEYS
        }
        config = replace(self, **changes)
        if shard_changes:
            base = config.sharding if config.sharding is not None else ShardingConfig()
            config = replace(config, sharding=replace(base, **shard_changes))
        return config
