"""Backend interface and compiled-artifact container."""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from importlib import import_module
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.relational.operators import (
    BlockKernel,
    JoinPlan,
    KernelCompiler,
    SubqueryEvaluator,
    _compile_kernel,
)
from repro.relational.relation import Row
from repro.relational.storage import StorageManager

#: A compiled artifact is callable on the live storage and returns head rows.
ArtifactFunction = Callable[[StorageManager], Set[Row]]


@dataclass
class CompiledArtifact:
    """The result of one backend compilation.

    ``function`` evaluates the compiled sub-queries against whatever the
    storage contains *at call time* (generated code always re-fetches the
    relation copies), so one artifact stays valid across iterations until the
    freshness test decides its join order is stale.
    """

    function: ArtifactFunction
    backend: str
    plans: Tuple[JoinPlan, ...]
    compile_seconds: float
    mode: str = "full"
    node_id: Optional[int] = None
    #: The block kernels the artifact runs, one per plan (empty for irgen
    #: and snippet artifacts).
    kernels: Tuple[BlockKernel, ...] = ()

    def __call__(self, storage: StorageManager) -> Set[Row]:
        return self.function(storage)


class Backend(ABC):
    """A compilation target: turns ordered plans into a callable artifact."""

    #: Short name used in configuration and result tables.
    name: str = "abstract"
    #: Whether compiled code can defer control back to the interpreter
    #: (snippet mode / de-optimization).  True for quotes, false for bytecode.
    revertible: bool = False
    #: Whether invoking this backend involves the host compiler at runtime.
    invokes_compiler: bool = False

    @abstractmethod
    def compile_plans(
        self,
        plans: Sequence[JoinPlan],
        storage: StorageManager,
        mode: str = "full",
        continuations: Optional[Sequence[ArtifactFunction]] = None,
        evaluator: Optional[SubqueryEvaluator] = None,
    ) -> CompiledArtifact:
        """Compile ``plans`` (already join-ordered) into an artifact.

        ``mode`` is ``"full"`` (compile the whole subtree) or ``"snippet"``
        (compile only this node's own logic and splice ``continuations`` — one
        callable per plan — back to the interpreter).  Backends that do not
        support snippets fall back to full compilation.

        ``evaluator`` is the configured interpreter of the execution the
        artifact will run in (style, executor, tracer, governor, batch
        counters): ``irgen`` artifacts interpret on it, every other
        backend's artifacts are its block kernels.
        """

    def _staged(self, plans: Sequence[JoinPlan], storage: StorageManager,
                evaluator: Optional[SubqueryEvaluator],
                compile_kernel: KernelCompiler = _compile_kernel,
                ) -> CompiledArtifact:
        """The full artifact of a kernel-compiling backend: every plan
        lowered on ``evaluator`` to its block kernel, each generated
        comprehension made callable by ``compile_kernel``."""
        interpreter = evaluator if evaluator is not None else SubqueryEvaluator(storage)
        start = time.perf_counter()
        kernels = tuple(interpreter.lower(plan, compile_kernel) for plan in plans)
        function = _union_of(kernels)
        return CompiledArtifact(
            function=function,
            backend=self.name,
            plans=tuple(plans),
            compile_seconds=time.perf_counter() - start,
            kernels=kernels,
        )

    def _snippet(self, plans: Sequence[JoinPlan],
                 build: Callable[[], ArtifactFunction]) -> CompiledArtifact:
        """A snippet-mode artifact: ``build()`` splices the continuations."""
        function, seconds = self._timed(build)
        return CompiledArtifact(
            function=function,
            backend=self.name,
            plans=tuple(plans),
            compile_seconds=seconds,
            mode="snippet",
        )

    @staticmethod
    def _timed(fn: Callable[[], ArtifactFunction]) -> Tuple[ArtifactFunction, float]:
        start = time.perf_counter()
        artifact = fn()
        return artifact, time.perf_counter() - start


def _union_of(functions: Sequence[ArtifactFunction]) -> ArtifactFunction:
    """One artifact returning the union of ``functions``' rows."""
    if len(functions) == 1:
        return functions[0]

    def union(storage: StorageManager) -> Set[Row]:
        out: Set[Row] = set()
        for function in functions:
            out |= function(storage)
        return out

    return union


#: Configuration name -> (module, class).  ``get_backend`` imports the module
#: of the backend it is asked for, so a process loads only what it runs.
_BACKENDS = {
    "bytecode": ("repro.core.backends.bytecode", "BytecodeBackend"),
    "irgen": ("repro.core.backends.irgen", "IRGeneratorBackend"),
    "lambda": ("repro.core.backends.lambda_backend", "LambdaBackend"),
    "quotes": ("repro.core.backends.quotes", "QuotesBackend"),
}


def get_backend(name: str) -> Backend:
    """Instantiate a backend by configuration name."""
    try:
        module, factory = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {sorted(_BACKENDS)}"
        ) from None
    return getattr(import_module(module), factory)()


def available_backends() -> List[str]:
    return sorted(_BACKENDS)
