"""Delete-and-rederive (DRed) for positive Datalog programs.

Retraction is the hard half of incremental maintenance: a derived fact must
disappear only when its *last* derivation does, and naive deletion cannot see
alternative derivations.  DRed (Gupta, Mumick & Subrahmanian, SIGMOD '93)
splits the problem:

1. **Over-delete** — compute the entire derivation cone of the retracted
   rows: any fact derivable *through* a deleted fact is provisionally
   deleted, to a fixpoint.  This over-approximates (a fact with an
   independent derivation lands in the cone too) but is cheap and sound.
2. **Re-derive** — a provisionally deleted fact survives if it is still an
   asserted base row, or some rule re-derives it from the post-deletion
   database.  Survivors are seeded back as deltas and ordinary semi-naive
   insertion propagation restores everything downstream of them.

Both phases are set-at-a-time sub-queries over the existing machinery.
Over-deletion evaluates the same per-position delta plans as incremental
insertion (:func:`repro.ir.planning.update_subqueries`), with Delta-Known
temporarily holding the *deleted* frontier instead of the new one.
Re-derivation asks "which of these rows still have a derivation?" the same
way: the pending rows of a head relation become that relation's Delta-Known
copy and each rule runs **one** plan — ``head(terms)`` read from Delta-Known
joined with the rule's body read from Derived — whose positive atoms the
runtime :class:`~repro.core.join_order.JoinOrderOptimizer` orders per batch
from the cardinalities that exist at that moment (a few hundred pending rows
against the whole fixpoint), evaluated by the session's configured executor.
Its projection onto the head *is* the survivor set, so a retraction costs
what its cone costs, in both phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.join_order import (
    JoinOrderOptimizer,
    OrderingDecision,
    storage_cardinality_view,
    storage_index_view,
)
from repro.datalog.literals import Atom
from repro.datalog.program import DatalogProgram
from repro.datalog.terms import Constant, Variable
from repro.ir.encoding import encode_plan
from repro.ir.planning import seed_plan, update_subqueries
from repro.relational.operators import AtomSource, JoinPlan, SubqueryEvaluator
from repro.relational.relation import Row
from repro.relational.storage import DatabaseKind, StorageManager
from repro.relational.symbols import IDENTITY


@dataclass
class DeletionCone:
    """The over-deletion result: per relation, the provisionally deleted rows."""

    deleted: Dict[str, Set[Row]] = field(default_factory=dict)
    rounds: int = 0

    def rows(self, relation: str) -> Set[Row]:
        return self.deleted.get(relation, set())

    def total(self) -> int:
        return sum(len(rows) for rows in self.deleted.values())


DeltaPlans = Dict[str, List[Tuple[str, JoinPlan]]]


@dataclass
class RederivePlan:
    """One rule's immutable re-derivation sub-query.

    ``"delta-join"``: ``plan`` is ``[headΔ] + body``, reordered per batch;
    ``orders`` hands back the *same* plan object whenever the optimizer
    repeats an order, so id-keyed kernel memos keep hitting.  ``"full-body"``:
    the head holds an expression no row can be matched against, so ``plan``
    is the all-Derived seed plan, intersected with the pending rows.
    """

    plan: JoinPlan
    how: str
    orders: Dict[Tuple[AtomSource, ...], JoinPlan] = field(default_factory=dict)


@dataclass(frozen=True)
class RederiveStep:
    """What one step of :func:`rederivation_seeds` examined and rescued
    (a ``"base"`` step examines exactly the asserted rows it rescues)."""

    relation: str
    rule_name: str
    how: str                       # "base" | "delta-join" | "full-body"
    pending: int
    survivors: int
    decision: Optional[OrderingDecision] = None


def update_plans_by_delta(program: DatalogProgram, symbols=IDENTITY) -> DeltaPlans:
    """Map each relation to the (head, plan) pairs whose delta choice reads it.

    Plans depend only on the (immutable) program and the symbol domain their
    constants are encoded into, so long-lived sessions compute this once and
    pass it into every :func:`over_delete` call.
    """
    by_delta: DeltaPlans = {}
    for rule in program.rules:
        for plan in update_subqueries(rule):
            delta_relation = plan.delta_relation()
            if delta_relation is not None:
                by_delta.setdefault(delta_relation, []).append(
                    (rule.head_relation, encode_plan(plan, symbols))
                )
    return by_delta


def rederive_plans(program: DatalogProgram, symbols=IDENTITY) -> List[RederivePlan]:
    """Every rule's re-derivation plan, constants encoded into ``symbols``.

    Head constants and repeated head variables need no mechanism of their
    own: they are constant / repeated-variable filters on the pending atom.
    """
    plans: List[RederivePlan] = []
    for rule in program.rules:
        body = seed_plan(rule)
        how = "full-body"
        if all(isinstance(t, (Variable, Constant)) for t in rule.head.terms):
            how = "delta-join"
            pending = AtomSource(
                Atom(rule.head_relation, rule.head.terms), DatabaseKind.DELTA_KNOWN
            )
            body = JoinPlan(
                body.head_relation, body.head_terms, (pending,) + body.sources,
                rule_name=f"{rule.name}:rederive",
            )
        plans.append(RederivePlan(encode_plan(body, symbols), how))
    return plans


def over_delete(
    program: DatalogProgram,
    storage: StorageManager,
    retracted: Dict[str, Set[Row]],
    evaluator: SubqueryEvaluator,
    plans_by_delta: Optional[DeltaPlans] = None,
) -> DeletionCone:
    """Phase 1: the derivation cone of ``retracted``, without touching Derived.

    Runs the per-position delta plans with Delta-Known holding the deleted
    frontier.  The Derived database stays intact throughout (the plans' other
    atoms read it), which is precisely DRed's over-approximation: facts that
    also have derivations avoiding the deleted rows still join the cone and
    are rescued by re-derivation.  Deltas are scrubbed on exit.
    """
    if plans_by_delta is None:
        plans_by_delta = update_plans_by_delta(program, storage.symbols)
    cone = DeletionCone()
    frontier: Dict[str, Set[Row]] = {}
    for name, rows in retracted.items():
        present = rows & storage.derived(name).rows()
        if present:
            cone.deleted[name] = set(present)
            frontier[name] = present

    all_names = storage.relation_names()
    storage.clear_deltas(all_names)
    try:
        while frontier:
            cone.rounds += 1
            for name, rows in frontier.items():
                storage.relation(name, DatabaseKind.DELTA_KNOWN).insert_many(rows)

            next_frontier: Dict[str, Set[Row]] = {}
            for name in frontier:
                for head, plan in plans_by_delta.get(name, ()):
                    already = cone.deleted.setdefault(head, set())
                    fresh = (
                        evaluator.evaluate(plan) & storage.derived(head).rows()
                    ) - already
                    if fresh:
                        already |= fresh
                        next_frontier.setdefault(head, set()).update(fresh)

            for name in frontier:
                storage.relation(name, DatabaseKind.DELTA_KNOWN).clear()
            frontier = next_frontier
    finally:
        storage.clear_deltas(all_names)
    return cone


def rederivation_seeds(
    program: DatalogProgram,
    storage: StorageManager,
    cone: DeletionCone,
    evaluator: SubqueryEvaluator,
    plans: Optional[List[RederivePlan]] = None,
    optimizer: Optional[JoinOrderOptimizer] = None,
    steps: Optional[List[RederiveStep]] = None,
) -> Dict[str, Set[Row]]:
    """Phase 2 seeds: over-deleted rows that survive against the pruned database.

    Must be called *after* the cone has been physically removed from Derived
    (deltas are clear at that point).  A row survives when it is still an
    asserted base row, or any rule for its relation re-derives it from the
    remaining facts.  Rows that only become derivable again once a survivor
    is restored are *not* found here — the caller propagates the seeds
    semi-naively, which re-derives those cascades.

    Derivability is decided a set at a time: per rule, the rows still
    pending for its head are loaded into the head's Delta-Known copy and the
    rule's :class:`RederivePlan` — ordered for *this* batch by ``optimizer``
    against live cardinalities — returns exactly the pending rows with a
    surviving derivation.  A later rule for the same head sees only what the
    earlier ones did not rescue.  The delta copy is cleared again on every
    exit, so the caller can seed the survivors straight away.  Rules whose
    head terms are expressions evaluate their whole body once and intersect.
    Each step taken is appended to ``steps`` when given.
    """
    if plans is None:
        plans = rederive_plans(program, storage.symbols)
    if optimizer is None:
        optimizer = JoinOrderOptimizer()
    if steps is None:
        steps = []
    survivors: Dict[str, Set[Row]] = {}
    for name, rows in cone.deleted.items():
        base_survivors = {row for row in rows if storage.is_base_row(name, row)}
        if base_survivors:
            survivors[name] = base_survivors
            rescued = len(base_survivors)
            steps.append(RederiveStep(name, "", "base", rescued, rescued))

    for entry in plans:
        head = entry.plan.head_relation
        pending = cone.rows(head) - survivors.get(head, set())
        if not pending:
            continue
        decision = None
        if entry.how == "full-body":
            rescued = evaluator.evaluate(entry.plan) & pending
        else:
            storage.clear_deltas((head,))
            try:
                storage.force_delta(head, pending)
                plan, decision = optimizer.optimize_plan(
                    entry.plan,
                    storage_cardinality_view(storage),
                    storage_index_view(storage),
                )
                rescued = evaluator.evaluate(
                    entry.orders.setdefault(plan.sources, plan)
                )
            finally:
                storage.clear_deltas((head,))
        if rescued:
            survivors.setdefault(head, set()).update(rescued)
        steps.append(RederiveStep(
            head, entry.plan.rule_name, entry.how, len(pending), len(rescued),
            decision,
        ))
    return survivors
