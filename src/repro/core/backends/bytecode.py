"""The Bytecode backend: compile the kernels from syntax trees, not text.

The reproduction's stand-in for Carac's direct JVM-bytecode generation via
the Class-File API.  Each (already join-ordered) sub-query is lowered to the
same block kernels every other configuration runs
(:func:`~repro.relational.operators.lower_plan`), and every generated
comprehension is ``compile()``d on every invocation — but from a syntax
tree parsed once per distinct text, so no textual front end runs at query
time.  Cheaper to invoke than the Quotes backend, but the artifact cannot
defer control back to the interpreter (no snippet mode).
"""

from __future__ import annotations

import ast
import functools
from typing import Callable, Optional, Sequence, Tuple

from repro.core.backends.base import (
    ArtifactFunction,
    Backend,
    CompiledArtifact,
)
from repro.relational.operators import JoinPlan, SubqueryEvaluator, kernel_filename
from repro.relational.storage import StorageManager


@functools.lru_cache(maxsize=None)
def _syntax_tree(source: str) -> Tuple[ast.Expression, str]:
    """The parsed comprehension and the file name it compiles under."""
    return ast.parse(source, mode="eval"), kernel_filename(source)


def _compile_tree(source: str) -> Callable:
    """``compile()`` a comprehension from its cached syntax tree."""
    tree, filename = _syntax_tree(source)
    return eval(compile(tree, filename, "eval"))  # noqa: S307


class BytecodeBackend(Backend):
    """Syntax-tree compilation; performance over ergonomics."""

    name = "bytecode"
    revertible = False
    invokes_compiler = True

    def compile_plans(
        self,
        plans: Sequence[JoinPlan],
        storage: StorageManager,
        mode: str = "full",
        continuations: Optional[Sequence[ArtifactFunction]] = None,
        evaluator: Optional[SubqueryEvaluator] = None,
    ) -> CompiledArtifact:
        # Bytecode generation has no snippet mode: once compiled, control
        # stays inside the generated code (paper §V-C2); fall back to full.
        return self._staged(plans, storage, evaluator, _compile_tree)
