"""The Quotes backend: generate Python source, invoke the host compiler.

The reproduction's stand-in for Scala 3 quotes & splices.  Each
(already join-ordered) sub-query is lowered to the same block kernels every
other configuration runs (:func:`~repro.relational.operators.lower_plan`),
but every generated comprehension's *text* goes through ``compile()`` on
every invocation — no code object is reused across compilations — paying a
real, measurable "invoke the compiler at query runtime" cost, which is
exactly the overhead Fig. 5 and §VI-B attribute to the quotes target.  The
text stays inspectable (``conn.explain()`` prints it, ``lower_plan(plan).
sources`` returns it) and is registered in :mod:`linecache`, so a traceback
out of a kernel shows it: the analogue of the safety/ergonomics argument
for quotes.

Snippet mode compiles only this node's union logic — one line of source
over the continuation callables (interpreter closures for the children) —
so control flows back to the interpreter after the compiled operator runs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.backends.base import (
    ArtifactFunction,
    Backend,
    CompiledArtifact,
)
from repro.relational.operators import JoinPlan, SubqueryEvaluator, _compile_kernel
from repro.relational.storage import StorageManager

#: ``compile()`` a comprehension's text afresh on every call.
_compile_source = _compile_kernel.__wrapped__

#: Snippet mode's generated code: the union of the continuations' rows.
_SNIPPET = "lambda ks: lambda storage: set().union(*[k(storage) for k in ks])"


class QuotesBackend(Backend):
    """Source-level runtime code generation (the safest, heaviest target)."""

    name = "quotes"
    revertible = True
    invokes_compiler = True

    def compile_plans(
        self,
        plans: Sequence[JoinPlan],
        storage: StorageManager,
        mode: str = "full",
        continuations: Optional[Sequence[ArtifactFunction]] = None,
        evaluator: Optional[SubqueryEvaluator] = None,
    ) -> CompiledArtifact:
        if mode != "snippet" or continuations is None:
            return self._staged(plans, storage, evaluator, _compile_source)
        return self._snippet(
            plans, lambda: _compile_source(_SNIPPET)(tuple(continuations))
        )
