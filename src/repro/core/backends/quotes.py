"""The Quotes backend: generate Python source, invoke the host compiler.

The reproduction's stand-in for Scala 3 quotes & splices.  The backend
renders each (already join-ordered) sub-query to a specialized, readable
Python function, compiles the text with ``compile()`` and executes the module
to obtain the callable — paying a real, measurable "invoke the compiler at
query runtime" cost, which is exactly the overhead Fig. 5 and §VI-B attribute
to the quotes target.  The generated code only ever calls the public
relational-layer API and is retained for inspection on the artifact, which is
the analogue of the safety/ergonomics argument for quotes.

Snippet mode compiles only this node's union logic and splices continuation
callables (interpreter closures for the children) into the generated code, so
control can flow back to the interpreter after the compiled operator runs.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from repro.core.backends.base import (
    ArtifactFunction,
    Backend,
    CompiledArtifact,
)
from repro.core.codegen.source import (
    render_plan_function,
    render_snippet_function,
    render_union_module,
)
from repro.core.codegen.steps import lower_plan
from repro.relational.operators import JoinPlan, SubqueryEvaluator
from repro.relational.relation import Row
from repro.relational.storage import DatabaseKind, StorageManager


class QuotesBackend(Backend):
    """Source-level runtime code generation (the safest, heaviest target)."""

    name = "quotes"
    revertible = True
    invokes_compiler = True

    def __init__(self) -> None:
        self._module_counter = 0

    def _next_module_name(self, label: str) -> str:
        self._module_counter += 1
        safe = "".join(ch if ch.isalnum() else "_" for ch in label)
        return f"quotes_{safe}_{self._module_counter}"

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
        index_view = self._index_view(storage, use_indexes)
        module_name = self._next_module_name(label)

        def build() -> ArtifactFunction:
            namespace = {"DatabaseKind": DatabaseKind}
            if mode == "snippet" and continuations is not None:
                function_name = f"{module_name}_snippet"
                source = render_snippet_function(function_name, len(continuations))
                code = compile(source, f"<carac-quotes:{module_name}>", "exec")
                exec(code, namespace)  # noqa: S102 - deliberate runtime codegen
                snippet = namespace[function_name]
                spliced = tuple(continuations)

                def run_snippet(run_storage: StorageManager) -> Set[Row]:
                    return snippet(run_storage, spliced)

                run_snippet.generated_source = source  # type: ignore[attr-defined]
                return run_snippet

            lowered = [lower_plan(plan, index_view, use_indexes) for plan in plans]
            source, driver_name = render_union_module(
                lowered, module_name, symbols=storage.symbols
            )
            code = compile(source, f"<carac-quotes:{module_name}>", "exec")
            exec(code, namespace)  # noqa: S102 - deliberate runtime codegen
            driver = namespace[driver_name]
            driver.generated_source = source  # type: ignore[attr-defined]
            return driver

        function, seconds = self._timed(build)
        return CompiledArtifact(
            function=function,
            backend=self.name,
            plans=tuple(plans),
            compile_seconds=seconds,
            mode=mode,
        )

    def generate_source(self, plans: Sequence[JoinPlan], storage: StorageManager,
                        use_indexes: bool = True, label: str = "node") -> str:
        """Render (but do not compile) the module source, for inspection/tests."""
        index_view = self._index_view(storage, use_indexes)
        lowered = [lower_plan(plan, index_view, use_indexes) for plan in plans]
        source, _driver = render_union_module(
            lowered, self._next_module_name(label), symbols=storage.symbols
        )
        return source
