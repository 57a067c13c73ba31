"""The IRGenerator backend: regenerate the IR, keep interpreting.

The lightest-weight target (paper §V-C4): "compilation" is nothing more than
handing the reordered plans back to the *configured* interpreter (evaluator
style and executor of the execution it was compiled for), so the overhead
of applying the optimization is essentially the cost of the reordering
itself.  The flip side is that no specialization happens — the generic
sub-query evaluator still pays its interpretation overhead.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from repro.core.backends.base import (
    ArtifactFunction,
    Backend,
    CompiledArtifact,
)
from repro.relational.operators import JoinPlan, SubqueryEvaluator
from repro.relational.relation import Row
from repro.relational.storage import StorageManager


class IRGeneratorBackend(Backend):
    """Reorder the IR on the fly and re-interpret it."""

    name = "irgen"
    revertible = True
    invokes_compiler = False

    def compile_plans(
        self,
        plans: Sequence[JoinPlan],
        storage: StorageManager,
        mode: str = "full",
        continuations: Optional[Sequence[ArtifactFunction]] = None,
        evaluator: Optional[SubqueryEvaluator] = None,
    ) -> CompiledArtifact:
        plan_tuple = tuple(plans)
        # Bound to the interpreter's own storage: the one compiled for.
        interpreter = evaluator if evaluator is not None else SubqueryEvaluator(storage)

        def build() -> ArtifactFunction:
            def run(run_storage: StorageManager) -> Set[Row]:
                out: Set[Row] = set()
                for plan in plan_tuple:
                    out |= interpreter.evaluate(plan)
                return out

            return run

        function, seconds = self._timed(build)
        return CompiledArtifact(
            function=function,
            backend=self.name,
            plans=plan_tuple,
            compile_seconds=seconds,
            mode="full",
        )
