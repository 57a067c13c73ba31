"""Lowering a Datalog program into the IROp tree (the Futamura projection).

The builder visits the Datalog AST once per stratum and emits the structure
of Fig. 4: per stratum a seeding pass (every rule evaluated naively against
the Derived database) and, when the stratum is recursive, a DoWhile loop
whose body contains — per relation, per rule, per delta choice — a σπ⋈ leaf,
gathered under per-rule ``UnionOp`` and per-relation ``RelationUnionOp``
nodes, followed by a ``SwapClearOp``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.relational.operators import JoinPlan

from repro.datalog.program import DatalogProgram
from repro.datalog.rules import Rule
from repro.datalog.safety import check_program_safety
from repro.datalog.stratification import Stratum, stratify
from repro.ir.ops import (
    AggregateOp,
    DoWhileOp,
    InsertOp,
    IROp,
    JoinProjectOp,
    ProgramOp,
    RelationUnionOp,
    SequenceOp,
    StratumOp,
    SwapClearOp,
    UnionOp,
)
from repro.ir.planning import (
    build_join_plan,
    delta_subqueries,
    seed_plan,
    update_subqueries,
)


class PlanBuilder:
    """Builds the IROp tree for a Datalog program.

    The builder performs no join-order optimization: plans carry the
    as-written atom order.  Optimization — ahead-of-time or just-in-time — is
    a separate concern handled by :mod:`repro.core`; keeping it out of the
    lowering step is what lets the same tree be re-optimized repeatedly at
    runtime.
    """

    def __init__(self, program: DatalogProgram, check_safety: bool = True) -> None:
        if check_safety:
            check_program_safety(program)
        self.program = program
        self.strata: List[Stratum] = stratify(program)

    # -- seeding pass ----------------------------------------------------------

    def _seed_op_for_rule(self, rule: Rule) -> IROp:
        plan = seed_plan(rule)
        if rule.has_aggregation():
            return AggregateOp(rule, plan)
        return JoinProjectOp(plan)

    def _seed_sequence(self, stratum: Stratum) -> SequenceOp:
        inserts: List[IROp] = []
        for relation in stratum.relations:
            rule_ops: List[IROp] = []
            for rule in self.program.rules_for(relation):
                rule_ops.append(UnionOp(rule.name, [self._seed_op_for_rule(rule)]))
            inserts.append(
                InsertOp(relation, RelationUnionOp(relation, rule_ops), InsertOp.SEED)
            )
        return SequenceOp(inserts)

    # -- semi-naive loop -------------------------------------------------------

    def _loop_for_stratum(self, stratum: Stratum) -> Optional[DoWhileOp]:
        recursive_relations = stratum.recursive_relations()
        if not recursive_relations:
            return None

        relation_unions: List[IROp] = []
        for relation in stratum.relations:
            rule_unions: List[IROp] = []
            for rule in self.program.rules_for(relation):
                if rule.has_aggregation():
                    # Aggregate rules are never recursive within their stratum
                    # (stratification treats aggregation like negation), so
                    # they are fully handled by the seeding pass.
                    continue
                plans = delta_subqueries(rule, stratum.relations)
                if not plans:
                    continue
                subquery_ops: List[IROp] = [JoinProjectOp(plan) for plan in plans]
                rule_unions.append(UnionOp(rule.name, subquery_ops))
            if rule_unions:
                relation_unions.append(
                    InsertOp(relation, RelationUnionOp(relation, rule_unions), InsertOp.NEW)
                )

        if not relation_unions:
            return None

        body_children: List[IROp] = list(relation_unions)
        body_children.append(SwapClearOp(stratum.relations))
        return DoWhileOp(SequenceOp(body_children), stratum.relations)

    # -- program ---------------------------------------------------------------

    def build_stratum(self, stratum: Stratum) -> StratumOp:
        return StratumOp(
            index=stratum.index,
            relations=stratum.relations,
            seed=self._seed_sequence(stratum),
            loop=self._loop_for_stratum(stratum),
        )

    def build(self) -> ProgramOp:
        return ProgramOp(
            [self.build_stratum(stratum) for stratum in self.strata],
            name=self.program.name,
        )


def build_program_ir(program: DatalogProgram, check_safety: bool = True) -> ProgramOp:
    """Lower ``program`` into the semi-naive IROp tree."""
    return PlanBuilder(program, check_safety=check_safety).build()


def build_update_ir(program: DatalogProgram, check_safety: bool = True) -> ProgramOp:
    """Lower ``program`` into the *incremental-update* propagation tree.

    The tree is a single synthetic stratum with an empty seeding pass and one
    DoWhile loop covering **all** rules at once, each rule expanded into one
    delta sub-query per positive atom (:func:`~repro.ir.planning.update_subqueries`).
    The caller seeds Delta-Known with the mutated rows before executing; the
    loop then propagates exactly the consequences of the change and stops as
    soon as an iteration promotes nothing.

    Collapsing the strata is sound only for programs without negation or
    aggregation (the incremental session falls back to full recomputation for
    those): for positive programs, stratification affects evaluation order,
    never the fixpoint.
    """
    if check_safety:
        check_program_safety(program)
    for rule in program.rules:
        if rule.negated_atoms() or rule.has_aggregation():
            raise ValueError(
                f"rule {rule.name!r} uses negation or aggregation; incremental "
                "delta propagation supports positive programs only"
            )

    relation_unions: List[IROp] = []
    for relation in program.idb_relations():
        rule_unions: List[IROp] = []
        for rule in program.rules_for(relation):
            plans = update_subqueries(rule)
            if plans:
                rule_unions.append(
                    UnionOp(rule.name, [JoinProjectOp(plan) for plan in plans])
                )
        if rule_unions:
            relation_unions.append(
                InsertOp(relation, RelationUnionOp(relation, rule_unions), InsertOp.NEW)
            )

    every_relation = list(program.relation_names())
    body = SequenceOp(list(relation_unions) + [SwapClearOp(every_relation)])
    stratum = StratumOp(
        index=0,
        relations=every_relation,
        seed=SequenceOp([]),
        loop=DoWhileOp(body, every_relation),
    )
    return ProgramOp([stratum], name=f"{program.name}-update")


def collect_loop_plans(loop: DoWhileOp) -> Optional[List[Tuple[str, List["JoinPlan"]]]]:
    """Extract ``(relation, plans)`` groups from a semi-naive loop body.

    Flattens one ``DoWhileOp`` — as produced by :func:`build_program_ir` or
    :func:`build_update_ir`, including after AOT join-order rewriting — into
    per-relation plan groups, for callers that time or run a loop body's
    sub-queries one plan at a time (the benchmark ledger's per-plan
    stages).  Returns None when the body contains anything but
    Insert→Union→σπ⋈ structure and the trailing SwapClear.
    """
    groups: List[Tuple[str, List[JoinPlan]]] = []
    for child in loop.body.children:
        if isinstance(child, SwapClearOp):
            continue
        if not isinstance(child, InsertOp) or child.target != InsertOp.NEW:
            return None
        plans: List[JoinPlan] = []
        stack: List[IROp] = [child.source]
        while stack:
            node = stack.pop()
            if isinstance(node, JoinProjectOp):
                plans.append(node.plan)
            elif isinstance(node, (UnionOp, RelationUnionOp, SequenceOp)):
                stack.extend(reversed(node.children))
            else:
                return None
        groups.append((child.relation, plans))
    return groups


def build_naive_ir(program: DatalogProgram, check_safety: bool = True) -> ProgramOp:
    """Lower ``program`` into a *naive*-evaluation tree (no delta relations).

    Every iteration re-evaluates every rule against the full Derived database
    and inserts whatever is new.  Used as the reference evaluator in
    correctness tests and as the basis of the DLX-like baseline engine.
    """
    if check_safety:
        check_program_safety(program)
    strata = stratify(program)
    stratum_ops: List[StratumOp] = []
    for stratum in strata:
        seed_inserts: List[IROp] = []
        loop_inserts: List[IROp] = []
        for relation in stratum.relations:
            seed_rule_ops: List[IROp] = []
            loop_rule_ops: List[IROp] = []
            for rule in DatalogProgram.rules_for(program, relation):
                plan = seed_plan(rule)
                op: IROp
                if rule.has_aggregation():
                    op = AggregateOp(rule, plan)
                else:
                    op = JoinProjectOp(plan)
                seed_rule_ops.append(UnionOp(rule.name, [op]))
                if not rule.has_aggregation() and rule.is_recursive_with(stratum.relations):
                    loop_rule_ops.append(UnionOp(rule.name, [JoinProjectOp(plan)]))
            seed_inserts.append(
                InsertOp(relation, RelationUnionOp(relation, seed_rule_ops), InsertOp.SEED)
            )
            if loop_rule_ops:
                loop_inserts.append(
                    InsertOp(relation, RelationUnionOp(relation, loop_rule_ops), InsertOp.NEW)
                )
        loop: Optional[DoWhileOp] = None
        if loop_inserts:
            body = SequenceOp(loop_inserts + [SwapClearOp(stratum.relations)])
            loop = DoWhileOp(body, stratum.relations)
        stratum_ops.append(
            StratumOp(stratum.index, stratum.relations, SequenceOp(seed_inserts), loop)
        )
    return ProgramOp(stratum_ops, name=f"{program.name}-naive")
