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

Like every kernel-running artifact, the join kernels probe whatever index
the relation carries when the batch arrives; which indexes exist is the
engine's decision (``EngineConfig.use_indexes``), not the backend's.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.backends.base import (
    ArtifactFunction,
    Backend,
    CompiledArtifact,
    _union_of,
)
from repro.relational.operators import JoinPlan, SubqueryEvaluator
from repro.relational.storage import StorageManager


class LambdaBackend(Backend):
    """Compose precompiled combinators; no compiler invocation at runtime."""

    name = "lambda"
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
        if mode != "snippet" or continuations is None:
            return self._staged(plans, storage, evaluator)
        return self._snippet(plans, lambda: _union_of(tuple(continuations)))
