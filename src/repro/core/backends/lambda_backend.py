"""The Lambda backend: stitch precompiled block kernels, no runtime compiler.

Carac's lambda backend composes higher-order functions that were compiled
when Carac itself was compiled; only the *composition* happens at runtime.
Here the "precompiled procedures" are the batch operators of
:mod:`repro.relational.operators` — hash join / semi-join / scan,
anti-join, filter, assign, project — and "compiling" a plan is
:func:`~repro.relational.operators.lower_plan`: analyse the atom layouts
once, pick a combinator per body position, bind its accessors.  The
artifact is that chain of closures, run block-at-a-time; it is the very
kernel the vectorized interpreter runs, minus the per-call plan lookup.
A join combinator is a one-line comprehension specialised to the atom's
*shape* (key slot, kept/fresh columns, checks; constants are arguments) and
``compile()``d the first time any plan in the process has that shape; from
then on — every re-lowering after a reorder included — invoking the backend
is just closure construction over cached code objects, and the
specialization is limited to what the combinators support: the trade-off
described in §V-C3, with the "precompiled" set filled on demand.

Indexes are a run-time decision of the join kernel (it probes whatever
index the relation carries when the batch arrives), so ``use_indexes`` has
nothing to select here.
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


class LambdaBackend(Backend):
    """Compose precompiled combinators; no compiler invocation at runtime."""

    name = "lambda"
    revertible = True
    invokes_compiler = False

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
        interpreter = evaluator if evaluator is not None else SubqueryEvaluator(storage)

        def build() -> ArtifactFunction:
            if mode == "snippet" and continuations is not None:
                return _union_of(tuple(continuations))
            return _union_of([interpreter.lower(plan) for plan in plans])

        function, seconds = self._timed(build)
        return CompiledArtifact(
            function=function,
            backend=self.name,
            plans=tuple(plans),
            compile_seconds=seconds,
            mode=mode,
        )
