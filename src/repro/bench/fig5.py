"""Fig. 5: execution time of code generation per IROp granularity.

The paper measures how long generating (and compiling) a quote takes at each
node kind of the IROp tree — from the σπ⋈ leaf through the per-rule and
per-relation unions up to the whole program — with a warm versus a cold
compiler, and for "full" (whole subtree) versus "snippet" (operator body plus
continuations) compilation.  The reproduction measures the same thing for the
Quotes and Bytecode backends over the CSPA program's sub-queries.  Both
compile the same block kernels (one generated comprehension per positive
atom); what is timed is how each backend turns that text into code — quotes
``compile()``s the text, bytecode compiles a syntax tree parsed once per
distinct text, so its "cold" cells include the parse and its "warm" cells
do not.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analyses.ordering import Ordering
from repro.analyses.registry import get_benchmark
from repro.core.backends import BytecodeBackend, QuotesBackend
from repro.core.backends.base import Backend
from repro.engine.engine import ExecutionEngine
from repro.core.config import EngineConfig
from repro.ir.ops import JoinProjectOp, ProgramOp, RelationUnionOp, UnionOp, find_nodes
from repro.relational.operators import JoinPlan


def _plan_groups(tree: ProgramOp) -> Dict[str, List[JoinPlan]]:
    """Plans grouped the way each compilation granularity would see them."""
    join_ops = [n for n in find_nodes(tree, JoinProjectOp)]
    union_ops = [n for n in find_nodes(tree, UnionOp)]
    relation_ops = [n for n in find_nodes(tree, RelationUnionOp)]

    groups: Dict[str, List[JoinPlan]] = {}
    groups["JoinProjectOp"] = [join_ops[0].plan] if join_ops else []
    if union_ops:
        largest_union = max(union_ops, key=lambda n: len(n.children))
        groups["UnionOp"] = [
            c.plan for c in largest_union.children if isinstance(c, JoinProjectOp)
        ]
    if relation_ops:
        largest_relation = max(
            relation_ops,
            key=lambda n: len([j for j in find_nodes(n, JoinProjectOp)]),
        )
        groups["RelationUnionOp"] = [
            j.plan for j in find_nodes(largest_relation, JoinProjectOp)
        ]
    groups["ProgramOp"] = [op.plan for op in join_ops]
    return {label: plans for label, plans in groups.items() if plans}


def _measure_backend(backend_factory, plans: Sequence[JoinPlan], storage,
                     mode: str, warmups: int) -> float:
    """Compile ``plans`` once after ``warmups`` warm-up compilations."""
    backend: Backend = backend_factory()
    continuations = None
    if mode == "snippet":
        continuations = [lambda s: set() for _ in plans]
    for _ in range(warmups):
        backend.compile_plans(plans, storage, mode=mode, continuations=continuations)
    artifact = backend.compile_plans(plans, storage, mode=mode,
                                     continuations=continuations)
    return artifact.compile_seconds


def run_fig5(benchmark: str = "cspa_tiny", warm_compilations: int = 20,
             backends: Sequence[str] = ("quotes", "bytecode")) -> List[Dict[str, object]]:
    """Measure code-generation time per granularity/backend/warmth/mode."""
    spec = get_benchmark(benchmark)
    program = spec.build(Ordering.WRITTEN)
    engine = ExecutionEngine(program, EngineConfig.interpreted())
    groups = _plan_groups(engine.tree)

    factories = {"quotes": QuotesBackend, "bytecode": BytecodeBackend}
    rows: List[Dict[str, object]] = []
    for backend_name in backends:
        factory = factories[backend_name]
        for granularity, plans in groups.items():
            for mode in ("full", "snippet"):
                if mode == "snippet" and backend_name == "bytecode":
                    continue  # bytecode has no snippet mode (not revertible)
                cold = _measure_backend(factory, plans, engine.storage, mode, warmups=0)
                warm = _measure_backend(factory, plans, engine.storage, mode,
                                        warmups=warm_compilations)
                rows.append(
                    {
                        "backend": backend_name,
                        "granularity": granularity,
                        "mode": mode,
                        "plans": len(plans),
                        "cold_seconds": cold,
                        "warm_seconds": warm,
                    }
                )
    return rows


FIG5_COLUMNS = ("backend", "granularity", "mode", "plans", "cold_seconds", "warm_seconds")
