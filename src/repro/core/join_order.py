"""The runtime join-order optimization (paper §IV).

Given one conjunctive sub-query (a :class:`~repro.relational.operators.JoinPlan`)
and a *live* view of relation cardinalities, the optimizer picks a left-deep
order of the positive atoms greedily:

1. Start with the cheapest atom: smallest cardinality, preferring the delta
   atom when its cardinality is competitive (it is usually the smallest and
   shrinks over time — and when it is empty the whole sub-query is empty, so
   putting it first short-circuits the join, the paper's iteration-7 example).
2. Repeatedly append the atom with the lowest estimated join cost against the
   current intermediate result, where cost combines the atom's cardinality,
   the number of join conditions with already-bound variables (constant
   reduction factor per condition), whether the joined column is indexed, and
   a penalty for Cartesian products (no shared variable).

Built-in literals and negated atoms are re-interleaved afterwards at the
earliest legal position, so the optimizer never produces an unsafe order.

The same algorithm serves every stage: ahead-of-time (only rule schema →
cardinalities all zero, selectivity/Cartesian avoidance decide), query
compile time (EDB cardinalities known) and just-in-time (delta and derived
cardinalities of the current iteration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.datalog.literals import Atom
from repro.datalog.terms import Constant, Variable
from repro.ir.planning import legalize_literal_order
from repro.relational.operators import AtomSource, JoinPlan, join_layouts
from repro.relational.statistics import SelectivityModel
from repro.relational.storage import DatabaseKind, StorageManager

#: A cardinality view: (relation name, database kind) -> row count.
CardinalityView = Callable[[str, DatabaseKind], int]
#: An index view: (relation name, column) -> bool.
IndexView = Callable[[str, int], bool]


def storage_cardinality_view(storage: StorageManager) -> CardinalityView:
    """Cardinality view reading live counts straight from the storage layer."""

    def view(relation: str, kind: DatabaseKind) -> int:
        return storage.cardinality(relation, kind)

    return view


def storage_index_view(storage: StorageManager) -> IndexView:
    """Index view reading the registered indexes of the storage layer."""

    def view(relation: str, column: int) -> bool:
        return column in storage.registered_indexes(relation)

    return view


def zero_cardinality_view(relation: str, kind: DatabaseKind) -> int:
    """The ahead-of-time view when no facts are known yet (rules only)."""
    return 0


def no_index_view(relation: str, column: int) -> bool:
    return False


def annotate_block_strategies(
    plan: JoinPlan,
    indexes: IndexView = no_index_view,
) -> Tuple[str, ...]:
    """Predict the block kernels' physical strategy per positive atom.

    Reads the very layouts the kernels are lowered from
    (:func:`~repro.relational.operators.join_layouts`) and applies the rule
    they follow at run time (:meth:`JoinLayout.strategy`): ``"scan"`` for an
    unkeyed atom, ``"index"`` when a key column carries an index or the key
    covers every column (the row set is the table), ``"build"`` otherwise.
    The rule is static, so the prediction is exactly the counters a full
    batch bumps.  Recorded next to each join-order decision so ``explain()``
    shows how a reordered plan will be executed block-wise.
    """
    return tuple(
        layout.strategy(lambda column, name=layout.relation: indexes(name, column))
        for layout in join_layouts(plan)
    )


@dataclass(frozen=True)
class OrderingDecision:
    """The outcome of one optimization call, for profiling and tests."""

    original_order: Tuple[str, ...]
    chosen_order: Tuple[str, ...]
    estimated_cost: float
    changed: bool
    #: Estimated intermediate-result cardinality *after* each join position
    #: of ``chosen_order`` (the optimizer's running ``intermediate`` under
    #: the selectivity model).  EXPLAIN ANALYZE compares these predictions
    #: against the actual per-operator row counts recorded in trace spans.
    estimated_rows: Tuple[float, ...] = ()


@dataclass
class JoinOrderOptimizer:
    """Cardinality/selectivity-driven join ordering.

    The optimizer is deliberately cheap — it runs potentially before every
    n-way join when the JIT compiles at the lowest granularity — so it uses
    only the three inputs the paper lists: input relation cardinality, index
    availability and a constant selectivity reduction factor.

    For sub-queries with at most ``exhaustive_limit`` positive atoms every
    left-deep order is costed and the cheapest wins (the factorial is tiny);
    longer rules — the paper mentions a 9-atom rule — fall back to the greedy
    construction.  Assignment literals participate in the cost model: once an
    order binds an assignment's inputs, its target counts as bound for the
    remaining atoms, which is what lets the optimizer turn a relation scan
    into an indexed membership probe (e.g. the Primes composite rule).
    """

    selectivity: SelectivityModel = field(default_factory=SelectivityModel)
    prefer_delta_first: bool = True
    exhaustive_limit: int = 6

    # -- cost helpers ----------------------------------------------------------

    def _atom_cardinality(self, source: AtomSource, cardinalities: CardinalityView) -> int:
        atom = source.literal
        assert isinstance(atom, Atom)
        kind = source.kind or DatabaseKind.DERIVED
        return cardinalities(atom.relation, kind)

    def _bound_conditions(self, atom: Atom, bound: Set[Variable]) -> int:
        """Number of equality conditions usable when joining ``atom`` next."""
        conditions = 0
        seen: Set[Variable] = set()
        for term in atom.terms:
            if isinstance(term, Constant):
                conditions += 1
            elif isinstance(term, Variable):
                if term in bound:
                    conditions += 1
                elif term in seen:
                    conditions += 1  # repeated variable within the atom
                seen.add(term)
        return conditions

    def _has_indexed_bound_column(self, atom: Atom, bound: Set[Variable],
                                  indexes: IndexView) -> bool:
        for position, term in enumerate(atom.terms):
            bound_here = isinstance(term, Constant) or (
                isinstance(term, Variable) and term in bound
            )
            if bound_here and indexes(atom.relation, position):
                return True
        return False

    # -- the algorithm ---------------------------------------------------------

    def _fire_assignments(self, bound: Set[Variable],
                          pending: List[Any]) -> None:
        """Add the targets of assignments whose inputs are bound (to fixpoint)."""
        changed = True
        while changed:
            changed = False
            for assignment in list(pending):
                if assignment.input_variables() <= bound:
                    bound.add(assignment.target)
                    pending.remove(assignment)
                    changed = True

    def _cost_of_order(
        self,
        order: Sequence[AtomSource],
        cardinalities: CardinalityView,
        indexes: IndexView,
        assignments: Sequence[Any],
    ) -> float:
        """Total estimated cost of evaluating ``order`` left to right."""
        bound: Set[Variable] = set()
        pending = list(assignments)
        self._fire_assignments(bound, pending)
        total = 0.0
        intermediate = 1.0
        for source in order:
            atom = source.literal
            assert isinstance(atom, Atom)
            cardinality = self._atom_cardinality(source, cardinalities)
            conditions = self._bound_conditions(atom, bound)
            indexed = self._has_indexed_bound_column(atom, bound, indexes)
            total += self.selectivity.join_cost(intermediate, cardinality, conditions, indexed)
            produced = self.selectivity.output_cardinality(cardinality, conditions)
            intermediate = intermediate * max(produced, 0.0)
            bound.update(atom.variables())
            self._fire_assignments(bound, pending)
        return total

    def _estimated_rows(
        self,
        order: Sequence[AtomSource],
        cardinalities: CardinalityView,
        indexes: IndexView,
        assignments: Sequence[Any],
    ) -> Tuple[float, ...]:
        """Per-position intermediate cardinalities of ``order`` (the same
        running estimate :meth:`_cost_of_order` tracks), recorded into the
        :class:`OrderingDecision` for EXPLAIN ANALYZE."""
        bound: Set[Variable] = set()
        pending = list(assignments)
        self._fire_assignments(bound, pending)
        intermediate = 1.0
        estimates: List[float] = []
        for source in order:
            atom = source.literal
            assert isinstance(atom, Atom)
            cardinality = self._atom_cardinality(source, cardinalities)
            conditions = self._bound_conditions(atom, bound)
            produced = self.selectivity.output_cardinality(cardinality, conditions)
            intermediate = intermediate * max(produced, 0.0)
            estimates.append(intermediate)
            bound.update(atom.variables())
            self._fire_assignments(bound, pending)
        return tuple(estimates)

    def _greedy_order(
        self,
        sources: Sequence[AtomSource],
        cardinalities: CardinalityView,
        indexes: IndexView,
        assignments: Sequence[Any],
    ) -> List[AtomSource]:
        remaining = list(sources)
        ordered: List[AtomSource] = []
        bound: Set[Variable] = set()
        pending = list(assignments)
        self._fire_assignments(bound, pending)
        intermediate = 1.0

        def candidate_key(source: AtomSource) -> Tuple[float, int]:
            atom = source.literal
            assert isinstance(atom, Atom)
            cardinality = self._atom_cardinality(source, cardinalities)
            conditions = self._bound_conditions(atom, bound)
            indexed = self._has_indexed_bound_column(atom, bound, indexes)
            cost = self.selectivity.join_cost(intermediate, cardinality, conditions, indexed)
            delta_preference = 0 if (self.prefer_delta_first and source.is_delta()) else 1
            return (cost, delta_preference)

        while remaining:
            best = min(remaining, key=candidate_key)
            atom = best.literal
            assert isinstance(atom, Atom)
            cardinality = self._atom_cardinality(best, cardinalities)
            conditions = self._bound_conditions(atom, bound)
            produced = self.selectivity.output_cardinality(cardinality, conditions)
            intermediate = intermediate * max(produced, 0.0)
            ordered.append(best)
            remaining.remove(best)
            bound.update(atom.variables())
            self._fire_assignments(bound, pending)
        return ordered

    def order_sources(
        self,
        sources: Sequence[AtomSource],
        cardinalities: CardinalityView,
        indexes: IndexView = no_index_view,
        assignments: Sequence[Any] = (),
    ) -> Tuple[List[AtomSource], float]:
        """Order positive-atom sources; returns (order, estimated cost).

        Exhaustive for small sub-queries, greedy beyond ``exhaustive_limit``.
        """
        sources = list(sources)
        if len(sources) <= 1:
            return sources, 0.0
        if len(sources) <= self.exhaustive_limit:
            import itertools

            best_order: Optional[Tuple[AtomSource, ...]] = None
            best_cost = float("inf")
            for permutation in itertools.permutations(sources):
                cost = self._cost_of_order(permutation, cardinalities, indexes, assignments)
                if cost < best_cost:
                    best_cost = cost
                    best_order = permutation
            assert best_order is not None
            return list(best_order), best_cost
        ordered = self._greedy_order(sources, cardinalities, indexes, assignments)
        return ordered, self._cost_of_order(ordered, cardinalities, indexes, assignments)

    def optimize_plan(
        self,
        plan: JoinPlan,
        cardinalities: CardinalityView,
        indexes: IndexView = no_index_view,
    ) -> Tuple[JoinPlan, OrderingDecision]:
        """Return a re-ordered copy of ``plan`` plus the decision record."""
        positive = [
            s for s in plan.sources
            if isinstance(s.literal, Atom) and not s.literal.negated
        ]
        others = [
            s.literal for s in plan.sources
            if not (isinstance(s.literal, Atom) and not s.literal.negated)
        ]
        if len(positive) <= 1:
            decision = OrderingDecision(
                original_order=tuple(a.literal.relation for a in positive),  # type: ignore[union-attr]
                chosen_order=tuple(a.literal.relation for a in positive),  # type: ignore[union-attr]
                estimated_cost=0.0,
                changed=False,
                estimated_rows=self._estimated_rows(
                    positive, cardinalities, indexes, ()
                ),
            )
            return plan, decision

        from repro.datalog.literals import Assignment

        assignments = [literal for literal in others if isinstance(literal, Assignment)]
        ordered, cost = self.order_sources(positive, cardinalities, indexes, assignments)
        sources = legalize_literal_order(ordered, others)
        new_plan = JoinPlan(
            head_relation=plan.head_relation,
            head_terms=plan.head_terms,
            sources=sources,
            rule_name=plan.rule_name,
        )
        original = tuple(
            s.literal.relation for s in positive  # type: ignore[union-attr]
        )
        chosen = tuple(
            s.literal.relation for s in ordered  # type: ignore[union-attr]
        )
        decision = OrderingDecision(
            original_order=original,
            chosen_order=chosen,
            estimated_cost=cost,
            changed=[s.literal for s in positive] != [s.literal for s in ordered],
            estimated_rows=self._estimated_rows(
                ordered, cardinalities, indexes, assignments
            ),
        )
        return new_plan, decision

    def optimize_with_storage(self, plan: JoinPlan, storage: StorageManager) -> JoinPlan:
        """Convenience: optimize against live storage cardinalities/indexes."""
        optimized, _decision = self.optimize_plan(
            plan,
            storage_cardinality_view(storage),
            storage_index_view(storage),
        )
        return optimized
