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


@dataclass
class EngineConfig:
    """Every knob of one program evaluation."""

    mode: ExecutionMode = ExecutionMode.INTERPRETED
    backend: str = "irgen"
    granularity: CompilationGranularity = CompilationGranularity.RULE
    async_compilation: bool = False
    compile_mode: str = "full"                 # "full" or "snippet"
    use_indexes: bool = True
    #: Physical sub-query executor: ``"vectorized"`` (the default) runs
    #: every interpreted sub-query on lowered block kernels — the engine's
    #: one production interpreter, and what every compiling JIT backend
    #: stitches its artifacts from.  ``"pushdown"`` is the tuple-at-a-time
    #: binding recursion, kept as the reference the kernels are tested
    #: against.  Orthogonal to mode/backend: it changes how interpreted
    #: sub-queries run (under the JIT: the seed stage, non-recursive strata,
    #: async waits, snippet continuations, ``irgen`` artifacts), never what
    #: they compute.
    executor: str = "vectorized"               # "vectorized" or "pushdown"
    #: Dictionary-encoded storage: intern every constant into a dense int
    #: domain at load/insert time and run the whole fixpoint over int
    #: tuples, decoding lazily at the QueryResult boundary.  On by default;
    #: ``interning=False`` keeps raw values end-to-end (the PR-4 behaviour)
    #: and doubles as the differential oracle the encoded engine is tested
    #: against.  Orthogonal to mode/backend/executor.
    interning: bool = True
    freshness_threshold: float = 0.2
    max_iterations: int = 1_000_000
    selectivity: SelectivityModel = field(default_factory=SelectivityModel)
    aot_sort: AOTSortMode = AOTSortMode.NONE
    aot_online: bool = False
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

        Suffixes mark departures from the production defaults:
        ``+pushdown`` for the tuple-at-a-time executor, ``+raw`` for
        un-interned storage.
        """
        suffix = "+pushdown" if self.executor == "pushdown" else ""
        if not self.interning:
            suffix += "+raw"
        if self.label:
            return self.label + suffix
        if self.mode == ExecutionMode.INTERPRETED:
            return "interpreted" + ("+idx" if self.use_indexes else "") + suffix
        if self.mode == ExecutionMode.NAIVE:
            return "naive" + suffix
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
        """A JIT configuration (the "JIT <backend> <blocking|async>" bars)."""
        return EngineConfig(
            mode=ExecutionMode.JIT,
            backend=backend,
            async_compilation=asynchronous,
            granularity=granularity,
            use_indexes=use_indexes,
            compile_mode=compile_mode,
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

    def with_(self, **changes) -> "EngineConfig":
        """A modified copy (dataclasses.replace wrapper)."""
        return replace(self, **changes)
