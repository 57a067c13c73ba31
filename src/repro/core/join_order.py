"""The runtime join-order optimization (paper §IV).

Given one conjunctive sub-query (a :class:`~repro.relational.operators.JoinPlan`)
and a *live* view of relation cardinalities, the optimizer picks the
left-deep order of the positive atoms with the lowest estimated cost.  An
order's cost is the sum, position by position, of joining the next atom
against the current intermediate result; that step cost combines the atom's
cardinality, the number of join conditions with already-bound variables
(constant reduction factor per condition), whether a bound column is
indexed, and a penalty for Cartesian products (no shared variable).  An
empty delta atom makes everything after it free, so placing it first
short-circuits the join (the paper's iteration-7 example).

Up to ``exhaustive_limit`` atoms the cheapest order is found exactly, by
branch-and-bound over order prefixes; longer rules are ordered greedily
(cheapest next step, delta atom first on a tie).  Built-in literals and
negated atoms are re-interleaved afterwards at the earliest legal position,
so the optimizer never produces an unsafe order.

The same algorithm serves every stage: ahead-of-time (only rule schema →
cardinalities all zero, selectivity/Cartesian avoidance decide), query
compile time (EDB cardinalities known) and just-in-time (delta and derived
cardinalities of the current iteration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

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

    For sub-queries with at most ``exhaustive_limit`` positive atoms the
    cheapest left-deep order is found exactly, by branch-and-bound over
    order prefixes (Selinger et al., SIGMOD 1979); longer rules — the paper
    mentions a 9-atom rule — fall back to the greedy construction.
    Assignment literals participate in the cost model: once an order binds
    an assignment's inputs, its target counts as bound for the remaining
    atoms, which is what lets the optimizer turn a relation scan into an
    indexed membership probe (e.g. the Primes composite rule).
    """

    selectivity: SelectivityModel = field(default_factory=SelectivityModel)
    prefer_delta_first: bool = True
    exhaustive_limit: int = 6

    # -- cost helpers ----------------------------------------------------------

    def _prepare(self, sources: Sequence[AtomSource],
                 cardinalities: CardinalityView, indexes: IndexView,
                 assignments: Sequence[Any]) -> Tuple[List[tuple], List[Tuple[int, int]]]:
        """What the cost of each atom depends on, read once per search.

        Variables become bits of one int, so a search step is integer
        arithmetic.  An atom is ``(source, cardinality, fixed, first,
        indexed, indexed_vars, binds)``: its equality conditions are the
        ``fixed`` ones (constants, repeats of a variable within the atom)
        plus one per ``first`` occurrence of a bound variable; a constant on
        an indexed column sets ``indexed``, a bound variable of
        ``indexed_vars`` does so too.  An assignment is ``(input bits,
        target bit)``.
        """
        bits: Dict[Variable, int] = {}

        def mask(variables: Any) -> int:
            out = 0
            for variable in variables:
                out |= bits.setdefault(variable, 1 << len(bits))
            return out

        atoms = []
        for source in sources:
            atom = source.literal
            assert isinstance(atom, Atom)
            fixed = first = indexed_vars = binds = 0
            indexed = False
            for position, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    fixed += 1
                    indexed = indexed or indexes(atom.relation, position)
                elif isinstance(term, Variable):
                    bit = bits.setdefault(term, 1 << len(bits))
                    if first & bit:
                        fixed += 1  # repeated variable within the atom
                    first |= bit
                    if indexes(atom.relation, position):
                        indexed_vars |= bit
                else:  # a computed term binds what it mentions
                    binds |= mask(term.variables())
            cardinality = cardinalities(atom.relation, source.kind or DatabaseKind.DERIVED)
            atoms.append((source, cardinality, fixed, first, indexed,
                          indexed_vars, binds | first))
        fires = [(mask(a.input_variables()), mask((a.target,))) for a in assignments]
        return atoms, fires

    @staticmethod
    def _fire(bound: int, fires: Sequence[Tuple[int, int]]) -> int:
        """``bound`` plus the targets of assignments whose inputs are bound
        (to fixpoint)."""
        changed = True
        while changed:
            changed = False
            for inputs, target in fires:
                if not inputs & ~bound and not target & bound:
                    bound |= target
                    changed = True
        return bound

    def _step(self, atom: tuple, bound: int, intermediate: float) -> Tuple[float, float]:
        """Cost of joining ``atom`` next onto ``intermediate`` rows that bind
        ``bound``, and the estimated intermediate size after it."""
        _source, cardinality, fixed, first, indexed, indexed_vars, _binds = atom
        conditions = fixed + bin(bound & first).count("1")
        indexed = indexed or bool(bound & indexed_vars)
        cost = self.selectivity.join_cost(intermediate, cardinality, conditions, indexed)
        produced = self.selectivity.output_cardinality(cardinality, conditions)
        return cost, intermediate * max(produced, 0.0)

    # -- the algorithm ---------------------------------------------------------
    #
    # Both searches return the total estimated cost of their order, summed
    # left to right, and the order as ``(atom, intermediate size after it)``
    # pairs: what the :class:`OrderingDecision` records for EXPLAIN ANALYZE.

    def _branch_and_bound(self, atoms: Sequence[tuple], fires: Sequence[Tuple[int, int]],
                          ) -> Tuple[float, List[Tuple[tuple, float]]]:
        """The cheapest order, without costing every permutation.

        Prefixes are extended depth-first in ``itertools.permutations``
        order, each carrying its running cost, intermediate size and bound
        variables, and one is dropped as soon as its cost is not below the
        best complete order's.  Every ``join_cost`` term is non-negative, so
        no extension of a dropped prefix could win; and a later order
        replaces the best only when strictly cheaper, so the result — ties
        included — is exactly the first cheapest permutation.
        """
        best: List[Any] = [float("inf"), None]
        prefix: List[Tuple[tuple, float]] = []

        def extend(remaining: List[tuple], bound: int, total: float,
                   intermediate: float) -> None:
            if not remaining:
                best[:] = total, list(prefix)
            for i, atom in enumerate(remaining):
                cost, after = self._step(atom, bound, intermediate)
                if not total + cost < best[0]:  # NaN prefixes drop too
                    continue
                prefix.append((atom, after))
                extend(remaining[:i] + remaining[i + 1:],
                       self._fire(bound | atom[6], fires), total + cost, after)
                prefix.pop()

        extend(list(atoms), self._fire(0, fires), 0.0, 1.0)
        assert best[1] is not None
        return best[0], best[1]

    def _greedy_order(self, atoms: Sequence[tuple], fires: Sequence[Tuple[int, int]],
                      ) -> Tuple[float, List[Tuple[tuple, float]]]:
        """Cheapest next step first, the delta atom winning a tie."""
        remaining = list(atoms)
        ordered: List[Tuple[tuple, float]] = []
        bound = self._fire(0, fires)
        total, intermediate = 0.0, 1.0

        def candidate(atom: tuple) -> Tuple[Tuple[float, int], float, tuple]:
            cost, after = self._step(atom, bound, intermediate)
            delta_preference = 0 if (self.prefer_delta_first and atom[0].is_delta()) else 1
            return (cost, delta_preference), after, atom

        while remaining:
            (cost, _), intermediate, best = min(map(candidate, remaining),
                                                key=lambda c: c[0])
            total += cost
            ordered.append((best, intermediate))
            remaining.remove(best)
            bound = self._fire(bound | best[6], fires)
        return total, ordered

    def _order(self, sources: Sequence[AtomSource],
               cardinalities: CardinalityView, indexes: IndexView,
               assignments: Sequence[Any],
               ) -> Tuple[List[AtomSource], float, Tuple[float, ...]]:
        """The chosen order of two or more sources, its cost and its
        per-position intermediate estimates."""
        atoms, fires = self._prepare(sources, cardinalities, indexes, assignments)
        search = (self._branch_and_bound if len(atoms) <= self.exhaustive_limit
                  else self._greedy_order)
        cost, chosen = search(atoms, fires)
        return ([atom[0] for atom, _ in chosen], cost,
                tuple(after for _, after in chosen))

    def order_sources(
        self,
        sources: Sequence[AtomSource],
        cardinalities: CardinalityView,
        indexes: IndexView = no_index_view,
        assignments: Sequence[Any] = (),
    ) -> Tuple[List[AtomSource], float]:
        """Order positive-atom sources; returns (order, estimated cost).

        Exact for small sub-queries, greedy beyond ``exhaustive_limit``.
        """
        sources = list(sources)
        if len(sources) <= 1:
            return sources, 0.0
        ordered, cost, _rows = self._order(sources, cardinalities, indexes, assignments)
        return ordered, cost

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
        original = tuple(s.literal.relation for s in positive)  # type: ignore[union-attr]
        if len(positive) <= 1:
            atoms, _fires = self._prepare(positive, cardinalities, indexes, ())
            rows = tuple(self._step(atom, 0, 1.0)[1] for atom in atoms)
            decision = OrderingDecision(original, original, 0.0, False, rows)
            return plan, decision

        from repro.datalog.literals import Assignment

        assignments = [literal for literal in others if isinstance(literal, Assignment)]
        ordered, cost, rows = self._order(positive, cardinalities, indexes, assignments)
        new_plan = JoinPlan(
            head_relation=plan.head_relation,
            head_terms=plan.head_terms,
            sources=legalize_literal_order(ordered, others),
            rule_name=plan.rule_name,
        )
        decision = OrderingDecision(
            original_order=original,
            chosen_order=tuple(s.literal.relation for s in ordered),  # type: ignore[union-attr]
            estimated_cost=cost,
            changed=[s.literal for s in positive] != [s.literal for s in ordered],
            estimated_rows=rows,
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
