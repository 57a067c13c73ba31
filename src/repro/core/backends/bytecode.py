"""The Bytecode backend: build an ``ast`` tree and compile it directly.

The reproduction's stand-in for Carac's direct JVM-bytecode generation via
the Class-File API: no textual front end, no parsing — the syntax tree is
constructed programmatically and handed straight to ``compile()``.  Cheaper
to invoke than the Quotes backend, but the artifact cannot defer control back
to the interpreter (no snippet mode) and nothing validates the construction
until the generated code runs.
"""

from __future__ import annotations

import ast
from typing import Optional, Sequence, Set

from repro.core.backends.base import (
    ArtifactFunction,
    Backend,
    CompiledArtifact,
)
from repro.core.codegen.pyast import build_union_module_ast
from repro.core.codegen.steps import lower_plan
from repro.relational.operators import JoinPlan, SubqueryEvaluator
from repro.relational.storage import DatabaseKind, StorageManager


class BytecodeBackend(Backend):
    """Direct syntax-tree construction; performance over ergonomics."""

    name = "bytecode"
    revertible = False
    invokes_compiler = True

    def __init__(self) -> None:
        self._module_counter = 0

    def compile_plans(
        self,
        plans: Sequence[JoinPlan],
        storage: StorageManager,
        use_indexes: bool = True,
        mode: str = "full",
        continuations: Optional[Sequence[ArtifactFunction]] = None,
        label: str = "node",
        evaluator: Optional[SubqueryEvaluator] = None,
    ) -> CompiledArtifact:
        # Bytecode generation has no snippet mode: once compiled, control
        # stays inside the generated code (paper §V-C2); fall back to full.
        index_view = self._index_view(storage, use_indexes)
        self._module_counter += 1
        safe = "".join(ch if ch.isalnum() else "_" for ch in label)
        module_name = f"bytecode_{safe}_{self._module_counter}"

        def build() -> ArtifactFunction:
            lowered = [lower_plan(plan, index_view, use_indexes) for plan in plans]
            module, driver_name = build_union_module_ast(
                lowered, module_name, symbols=storage.symbols
            )
            code = compile(module, f"<carac-bytecode:{module_name}>", "exec")
            namespace = {"DatabaseKind": DatabaseKind}
            exec(code, namespace)  # noqa: S102 - deliberate runtime codegen
            return namespace[driver_name]

        function, seconds = self._timed(build)
        return CompiledArtifact(
            function=function,
            backend=self.name,
            plans=tuple(plans),
            compile_seconds=seconds,
            mode="full",
        )
