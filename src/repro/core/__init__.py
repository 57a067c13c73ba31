"""Adaptive Metaprogramming core: the paper's primary contribution.

This package holds everything that is *not* a generic Datalog substrate: the
runtime join-order optimizer (§IV), the staged code-generation backends
(§V-C), the compilation manager with synchronous and asynchronous modes, the
freshness test, the JIT executor that ties them together at IROp safe points,
and the ahead-of-time ("macro") optimization path (§VI-C).

Every name below is imported on first use (:mod:`repro._lazy`): importing
``repro.core.config`` for an interpreted run loads no backend and no code
generator.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.aot": ("apply_aot_optimization",),
    "repro.core.backends": (
        "Backend", "BytecodeBackend", "CompiledArtifact", "IRGeneratorBackend",
        "LambdaBackend", "QuotesBackend", "available_backends", "get_backend",
    ),
    "repro.core.compilation": ("CompilationEvent", "CompilationManager"),
    "repro.core.config": (
        "AOTSortMode", "CompilationGranularity", "EngineConfig", "ExecutionMode",
    ),
    "repro.core.executor": ("IRExecutor",),
    "repro.core.freshness": ("FreshnessTest",),
    "repro.core.join_order": (
        "JoinOrderOptimizer", "OrderingDecision", "no_index_view",
        "storage_cardinality_view", "storage_index_view", "zero_cardinality_view",
    ),
    "repro.core.profile": ("RuntimeProfile",),
})
