"""Physical evaluation of conjunctive sub-queries (σπ⋈ over one atom order).

A *sub-query* is one member of the union generated for a rule by semi-naive
evaluation: an ordered sequence of body literals, each relational atom tagged
with the database copy it reads (Derived or Delta-Known), plus the head
projection.  This module provides the interchangeable implementations of
the same physical plan:

* a pull-based (iterator/generator) and a push-based (callback) evaluator,
  mirroring the two engine styles Carac has been integrated with (§V-D).
  Both perform left-deep index-nested-loop joins with binding propagation,
  tuple at a time — the plan shape the join-order optimizer reasons about,
  and the oracle everything else is tested against;
* the block executor, split into a **plan-time lowering**
  (:func:`lower_plan`: atom layouts, live columns, compiled accessors,
  head-shaped output order — everything the data cannot change, done once
  per plan) and **run-time kernels** (:class:`BlockKernel`: fetch the
  relation, pick index probe vs table build, join / anti-join / filter /
  assign / project a whole batch).  There is exactly one implementation of
  those batch operators; :class:`VectorizedSubqueryEvaluator` runs it as an
  interpreter (lower on first sight of a plan, then run) and the lambda JIT
  backend stitches its artifacts from the same kernels at compile time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.datalog.literals import Assignment, Atom, Comparison, Literal, comparison_operator
from repro.datalog.terms import Aggregate, BinaryExpression, Constant, Term, Variable, binary_operator
from repro.relational.columnar import (
    build_hash_table,
    choose_build_strategy,
    probe_hash_table,
)
from repro.relational.relation import Relation, Row
from repro.relational.storage import DatabaseKind, StorageManager
from repro.relational.symbols import IDENTITY
from repro.resilience.limits import NOOP_GOVERNOR
from repro.telemetry.spans import NOOP_TRACER

Bindings = Dict[Variable, Any]

#: The two interchangeable physical executors for one :class:`JoinPlan`:
#: ``"pushdown"`` is the tuple-at-a-time binding recursion (push/pull styles),
#: ``"vectorized"`` the batch executor running lowered :class:`BlockKernel`s.
EXECUTORS = ("pushdown", "vectorized")


def _operator_span_name(literal: Literal) -> str:
    """The span name of one vectorized body position."""
    if isinstance(literal, Atom):
        return "op:negation" if literal.negated else "op:join"
    if isinstance(literal, Comparison):
        return "op:filter"
    return "op:assign"


@dataclass(frozen=True)
class AtomSource:
    """Pairs one body literal with the database copy it reads.

    ``kind`` is None for built-in literals (comparisons / assignments), which
    read no relation at all; negated atoms always read the Derived database of
    a lower stratum, which is complete by the time they run.
    """

    literal: Literal
    kind: Optional[DatabaseKind] = None

    def is_delta(self) -> bool:
        return self.kind == DatabaseKind.DELTA_KNOWN


@dataclass
class JoinPlan:
    """An ordered physical plan for one sub-query.

    The order of ``sources`` *is* the join order; re-optimizing a sub-query
    means producing a new JoinPlan with the same literals in a different
    order (see :mod:`repro.core.join_order`).
    """

    head_relation: str
    head_terms: Tuple[Term, ...]
    sources: Tuple[AtomSource, ...]
    rule_name: str = ""

    def literals(self) -> Tuple[Literal, ...]:
        return tuple(source.literal for source in self.sources)

    def positive_atom_sources(self) -> Tuple[AtomSource, ...]:
        return tuple(
            s for s in self.sources
            if isinstance(s.literal, Atom) and not s.literal.negated
        )

    def delta_relation(self) -> Optional[str]:
        """The relation read from the delta database, if any."""
        for source in self.sources:
            if source.is_delta() and isinstance(source.literal, Atom):
                return source.literal.relation
        return None

    def reorder(self, permutation: Sequence[int]) -> "JoinPlan":
        """Return the same plan with sources permuted."""
        if sorted(permutation) != list(range(len(self.sources))):
            raise ValueError(f"{permutation!r} is not a permutation of the plan sources")
        return JoinPlan(
            head_relation=self.head_relation,
            head_terms=self.head_terms,
            sources=tuple(self.sources[i] for i in permutation),
            rule_name=self.rule_name,
        )

    def describe(self) -> str:
        """One-line human-readable description (used by explain/printer)."""
        parts = []
        for source in self.sources:
            literal = source.literal
            if isinstance(literal, Atom):
                marker = "δ" if source.is_delta() else "*"
                prefix = "!" if literal.negated else ""
                parts.append(f"{prefix}{literal.relation}{marker}")
            else:
                parts.append(repr(literal))
        return f"{self.head_relation} ⟵ " + " ⋈ ".join(parts)


def match_atom(atom: Atom, row: Row, bindings: Bindings) -> Optional[Bindings]:
    """Try to unify ``row`` with ``atom`` under ``bindings``.

    Returns the extended bindings on success, None on mismatch.  Handles
    constants and repeated variables within the atom.
    """
    new_bindings: Optional[Bindings] = None
    for position, term in enumerate(atom.terms):
        value = row[position]
        if isinstance(term, Constant):
            if term.value != value:
                return None
        elif isinstance(term, Variable):
            bound = bindings.get(term, _UNBOUND)
            if bound is _UNBOUND:
                if new_bindings is not None and term in new_bindings:
                    if new_bindings[term] != value:
                        return None
                    continue
                if new_bindings is None:
                    new_bindings = dict(bindings)
                new_bindings[term] = value
            elif bound != value:
                return None
        else:  # pragma: no cover - expressions cannot appear in body atoms
            raise TypeError(f"unexpected term {term!r} in body atom")
    return new_bindings if new_bindings is not None else dict(bindings)


class _Unbound:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<unbound>"


_UNBOUND = _Unbound()


def bound_constraints(atom: Atom, bindings: Bindings) -> Dict[int, Any]:
    """Column constraints derivable from constants and already-bound variables."""
    constraints: Dict[int, Any] = {}
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            constraints[position] = term.value
        elif isinstance(term, Variable) and term in bindings:
            constraints[position] = bindings[term]
    return constraints


def evaluate_raw_term(term: Term, bindings: Bindings, symbols=IDENTITY) -> Any:
    """Evaluate ``term`` in the *raw* value domain.

    Built-in literals (comparisons, arithmetic) are meaningless over symbol
    ids, so their operands cross back into the raw domain here: variable
    bindings and plan constants are resolved through the symbol table (one
    list subscript each) and the expression is computed over real values.
    Under the identity codec this is exactly ``term.substitute(bindings)``.
    """
    if isinstance(term, Variable):
        if term not in bindings:
            raise KeyError(f"unbound variable {term.name!r}")
        return symbols.resolve(bindings[term])
    if isinstance(term, Constant):
        return symbols.resolve(term.value)
    if isinstance(term, BinaryExpression):
        func = binary_operator(term.op)
        return func(
            evaluate_raw_term(term.left, bindings, symbols),
            evaluate_raw_term(term.right, bindings, symbols),
        )
    if isinstance(term, Aggregate):
        return evaluate_raw_term(term.target, bindings, symbols)
    raise TypeError(f"cannot evaluate term {term!r}")  # pragma: no cover


def evaluate_comparison(comparison: Comparison, bindings: Bindings,
                        symbols=IDENTITY) -> bool:
    """One comparison literal over (possibly encoded) bindings."""
    if symbols.identity:
        return comparison.evaluate(bindings)
    func = comparison_operator(comparison.op)
    return bool(
        func(
            evaluate_raw_term(comparison.left, bindings, symbols),
            evaluate_raw_term(comparison.right, bindings, symbols),
        )
    )


def project_head(head_terms: Sequence[Term], bindings: Bindings,
                 symbols=IDENTITY) -> Row:
    """Compute the head tuple for one complete set of bindings.

    Variables and constants stay in the storage domain (bindings and plan
    constants are already encoded); expression terms — the only place a
    head can *compute* a value — evaluate raw and re-intern the result.
    """
    values: List[Any] = []
    for term in head_terms:
        if isinstance(term, (Variable, Constant)):
            values.append(term.substitute(bindings))
        else:
            values.append(symbols.intern(evaluate_raw_term(term, bindings, symbols)))
    return tuple(values)


class PullSubqueryEvaluator:
    """Generator-based (pull) evaluation of a :class:`JoinPlan`."""

    def __init__(self, storage: StorageManager) -> None:
        self.storage = storage
        self.symbols = storage.symbols

    def bindings(self, plan: JoinPlan) -> Iterator[Bindings]:
        """Yield every complete binding produced by the plan."""
        yield from self._recurse(plan, 0, {})

    def _recurse(self, plan: JoinPlan, position: int, bindings: Bindings) -> Iterator[Bindings]:
        if position == len(plan.sources):
            yield bindings
            return
        source = plan.sources[position]
        literal = source.literal
        if isinstance(literal, Atom):
            if literal.negated:
                yield from self._negated(plan, position, literal, bindings)
                return
            relation = self.storage.relation(literal.relation, source.kind or DatabaseKind.DERIVED)
            constraints = bound_constraints(literal, bindings)
            for row in relation.probe(constraints):
                extended = match_atom(literal, row, bindings)
                if extended is not None:
                    yield from self._recurse(plan, position + 1, extended)
            return
        if isinstance(literal, Comparison):
            if evaluate_comparison(literal, bindings, self.symbols):
                yield from self._recurse(plan, position + 1, bindings)
            return
        if isinstance(literal, Assignment):
            value = evaluate_raw_term(literal.expression, bindings, self.symbols)
            existing = bindings.get(literal.target, _UNBOUND)
            if existing is _UNBOUND:
                extended = dict(bindings)
                extended[literal.target] = self.symbols.intern(value)
                yield from self._recurse(plan, position + 1, extended)
            elif self.symbols.resolve(existing) == value:
                yield from self._recurse(plan, position + 1, bindings)
            return
        raise TypeError(f"unsupported literal {literal!r}")  # pragma: no cover

    def _negated(self, plan: JoinPlan, position: int, literal: Atom,
                 bindings: Bindings) -> Iterator[Bindings]:
        relation = self.storage.relation(literal.relation, DatabaseKind.DERIVED)
        probe_row: List[Any] = []
        for term in literal.terms:
            if isinstance(term, Constant):
                probe_row.append(term.value)
            elif isinstance(term, Variable):
                if term not in bindings:
                    raise ValueError(
                        f"negated atom {literal!r} reached with unbound variable "
                        f"{term.name!r}; the planner must order it after its binders"
                    )
                probe_row.append(bindings[term])
            else:  # pragma: no cover
                raise TypeError(f"unexpected term {term!r} in negated atom")
        if tuple(probe_row) not in relation:
            yield from self._recurse(plan, position + 1, bindings)

    def evaluate(self, plan: JoinPlan) -> Set[Row]:
        """Evaluate the plan and project the head (no aggregation here)."""
        results: Set[Row] = set()
        symbols = self.symbols
        for bindings in self.bindings(plan):
            results.add(project_head(plan.head_terms, bindings, symbols))
        return results


class PushSubqueryEvaluator:
    """Callback-based (push) evaluation of a :class:`JoinPlan`.

    Produces exactly the same results as the pull evaluator; the difference
    is purely the control-flow style: tuples are pushed into a consumer
    callback as soon as they are produced, which is how Carac's default
    push-based storage engine works.
    """

    def __init__(self, storage: StorageManager) -> None:
        self.storage = storage
        self.symbols = storage.symbols

    def evaluate_into(self, plan: JoinPlan, consumer: Callable[[Row], None]) -> int:
        """Push every head tuple into ``consumer``; returns the tuple count."""
        count = 0

        symbols = self.symbols

        def emit(bindings: Bindings) -> None:
            nonlocal count
            consumer(project_head(plan.head_terms, bindings, symbols))
            count += 1

        self._push(plan, 0, {}, emit)
        return count

    def _push(self, plan: JoinPlan, position: int, bindings: Bindings,
              emit: Callable[[Bindings], None]) -> None:
        if position == len(plan.sources):
            emit(bindings)
            return
        source = plan.sources[position]
        literal = source.literal
        if isinstance(literal, Atom):
            if literal.negated:
                relation = self.storage.relation(literal.relation, DatabaseKind.DERIVED)
                probe = tuple(
                    term.value if isinstance(term, Constant) else bindings[term]
                    for term in literal.terms
                )
                if probe not in relation:
                    self._push(plan, position + 1, bindings, emit)
                return
            relation = self.storage.relation(literal.relation, source.kind or DatabaseKind.DERIVED)
            constraints = bound_constraints(literal, bindings)
            for row in relation.probe(constraints):
                extended = match_atom(literal, row, bindings)
                if extended is not None:
                    self._push(plan, position + 1, extended, emit)
            return
        if isinstance(literal, Comparison):
            if evaluate_comparison(literal, bindings, self.symbols):
                self._push(plan, position + 1, bindings, emit)
            return
        if isinstance(literal, Assignment):
            value = evaluate_raw_term(literal.expression, bindings, self.symbols)
            existing = bindings.get(literal.target, _UNBOUND)
            if existing is _UNBOUND:
                extended = dict(bindings)
                extended[literal.target] = self.symbols.intern(value)
                self._push(plan, position + 1, extended, emit)
            elif self.symbols.resolve(existing) == value:
                self._push(plan, position + 1, bindings, emit)
            return
        raise TypeError(f"unsupported literal {literal!r}")  # pragma: no cover

    def evaluate(self, plan: JoinPlan) -> Set[Row]:
        results: Set[Row] = set()
        self.evaluate_into(plan, results.add)
        return results


# ---------------------------------------------------------------------------
# The block executor: plan-time lowering, run-time kernels
# ---------------------------------------------------------------------------

#: A block at run time: every intermediate tuple of a sub-query, as rows.
#: Which variable each column holds is decided at lowering time.
Rows = List[Row]
#: One lowered body position: ``(storage, rows in) -> rows out``.
Step = Callable[[StorageManager, Rows], Rows]

#: Kernels one evaluator memoises before it starts over.
_KERNEL_MEMO_LIMIT = 256

#: The join identity — no columns, exactly one (empty) row.  Never mutated:
#: every step returns either its input list or a freshly built one.
_UNIT_ROWS: Rows = [()]


def new_block_stats() -> Dict[str, int]:
    """Kernel counters: batches, and each keyed join's build strategy."""
    return {"batches": 0, "index": 0, "build": 0}


def _needed_after(plan: JoinPlan) -> List[FrozenSet[Variable]]:
    """Per body position: variables any later literal or the head reads."""
    needed: Set[Variable] = set()
    for term in plan.head_terms:
        needed |= term.variables()
    out: List[FrozenSet[Variable]] = [frozenset()] * len(plan.sources)
    for position in range(len(plan.sources) - 1, -1, -1):
        out[position] = frozenset(needed)
        needed |= plan.sources[position].literal.variables()
    return out


@dataclass(frozen=True)
class JoinLayout:
    """Everything about joining one positive atom into the block that does
    not depend on the data: computed once per plan, read by the kernel on
    every batch and by the planner's strategy prediction."""

    relation: str
    kind: DatabaseKind
    arity: int
    #: Atom columns bound by the block, and the block columns binding them.
    key_positions: Tuple[int, ...]
    key_slots: Tuple[int, ...]
    #: ``(column, value)`` checks and ``(column, earlier column)`` repeated-
    #: variable checks the relation side must pass on its own.
    constants: Tuple[Tuple[int, Any], ...]
    dup_checks: Tuple[Tuple[int, int], ...]
    #: Atom columns that become new block columns, in output order.
    fresh_positions: Tuple[int, ...]
    #: Block columns some later literal (or the head) still reads, in
    #: output order; dropping the rest keeps intermediate tuples narrow.
    kept_slots: Tuple[int, ...]
    #: Output rows are ``payload + base`` instead of ``base + payload``.
    payload_first: bool
    out_variables: Tuple[Variable, ...]


def _join_layout(source: AtomSource, variables: Tuple[Variable, ...],
                 needed: FrozenSet[Variable],
                 head: Optional[Tuple[Variable, ...]]) -> JoinLayout:
    """Lay out one positive atom against a block holding ``variables``.

    ``head`` is the head's variable order when this is the plan's last
    column-producing position: kept and fresh columns are then ordered so
    the output rows already *are* head rows wherever concatenation allows.
    """
    atom = source.literal
    assert isinstance(atom, Atom)
    slots = {variable: slot for slot, variable in enumerate(variables)}
    key_positions: List[int] = []
    key_slots: List[int] = []
    constants: List[Tuple[int, Any]] = []
    dup_checks: List[Tuple[int, int]] = []
    first_seen: Dict[Variable, int] = {}
    fresh: List[Tuple[Variable, int]] = []
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            constants.append((position, term.value))
        elif isinstance(term, Variable):
            slot = slots.get(term)
            if slot is not None:
                key_positions.append(position)
                key_slots.append(slot)
            elif term in first_seen:
                dup_checks.append((position, first_seen[term]))
            else:
                first_seen[term] = position
                if term in needed:
                    fresh.append((term, position))
        else:  # pragma: no cover - expressions cannot appear in body atoms
            raise TypeError(f"unexpected term {term!r} in body atom")
    kept = [(v, slot) for slot, v in enumerate(variables) if v in needed]

    payload_first = False
    kept_at, fresh_at = dict(kept), dict(fresh)
    if head is not None and set(head) == kept_at.keys() | fresh_at.keys():
        if all(v in kept_at for v in head[:len(kept)]):
            kept = [(v, kept_at[v]) for v in head[:len(kept)]]
            fresh = [(v, fresh_at[v]) for v in head[len(kept):]]
        elif all(v in fresh_at for v in head[:len(fresh)]):
            payload_first = True
            kept = [(v, kept_at[v]) for v in head[len(fresh):]]
            fresh = [(v, fresh_at[v]) for v in head[:len(fresh)]]
    kept_variables = tuple(v for v, _ in kept)
    fresh_variables = tuple(v for v, _ in fresh)
    return JoinLayout(
        relation=atom.relation,
        kind=source.kind or DatabaseKind.DERIVED,
        arity=len(atom.terms),
        key_positions=tuple(key_positions),
        key_slots=tuple(key_slots),
        constants=tuple(constants),
        dup_checks=tuple(dup_checks),
        fresh_positions=tuple(position for _, position in fresh),
        kept_slots=tuple(slot for _, slot in kept),
        payload_first=payload_first,
        out_variables=(fresh_variables + kept_variables if payload_first
                       else kept_variables + fresh_variables),
    )


def plan_layouts(
    plan: JoinPlan,
) -> Tuple[List[Tuple[Tuple[Variable, ...], Optional[JoinLayout]]],
           Tuple[Variable, ...]]:
    """The static shape of a plan's block pipeline.

    Returns, per body position, the block's columns on entry plus the
    :class:`JoinLayout` of a positive atom (None for negations and
    built-ins), and the columns the head projection reads from.
    """
    needed_after = _needed_after(plan)
    head: Optional[Tuple[Variable, ...]] = None
    if all(isinstance(term, Variable) for term in plan.head_terms) and (
        len(set(plan.head_terms)) == len(plan.head_terms)
    ):
        head = tuple(plan.head_terms)  # type: ignore[arg-type]
    produces_columns = [
        isinstance(s.literal, Assignment)
        or (isinstance(s.literal, Atom) and not s.literal.negated)
        for s in plan.sources
    ]
    variables: Tuple[Variable, ...] = ()
    positions: List[Tuple[Tuple[Variable, ...], Optional[JoinLayout]]] = []
    for position, source in enumerate(plan.sources):
        literal = source.literal
        layout: Optional[JoinLayout] = None
        entry = variables
        if isinstance(literal, Atom) and not literal.negated:
            is_last = not any(produces_columns[position + 1:])
            layout = _join_layout(
                source, variables, needed_after[position],
                head if is_last else None,
            )
            variables = layout.out_variables
        elif isinstance(literal, Assignment) and literal.target not in variables:
            variables = variables + (literal.target,)
        positions.append((entry, layout))
    return positions, variables


def join_layouts(plan: JoinPlan) -> List[JoinLayout]:
    """The layouts of the plan's positive atoms, in plan order."""
    return [layout for _, layout in plan_layouts(plan)[0] if layout is not None]


# -- compiled accessors ---------------------------------------------------------


def _slot_of(term: Variable, slots: Dict[Variable, int]) -> int:
    slot = slots.get(term)
    if slot is None:
        raise KeyError(f"unbound variable {term.name!r}")
    return slot


def _compile_term(term: Term, slots: Dict[Variable, int],
                  symbols=IDENTITY) -> Callable[[Row], Any]:
    """Compile one term into a storage-domain accessor over block rows.

    Variables and constants already live in the storage domain (encoded
    under interning); expression terms compute raw and re-intern — they are
    the only accessors that touch the symbol table per row.
    """
    if isinstance(term, Variable):
        return itemgetter(_slot_of(term, slots))
    if isinstance(term, Constant):
        value = term.value
        return lambda row: value
    if isinstance(term, BinaryExpression):
        raw = _compile_raw_term(term, slots, symbols)
        if symbols.identity:
            return raw
        intern = symbols.intern
        return lambda row: intern(raw(row))
    if isinstance(term, Aggregate):
        # Mirrors Aggregate.substitute: at tuple level, project the target.
        return _compile_term(term.target, slots, symbols)
    raise TypeError(f"cannot compile term {term!r}")  # pragma: no cover


def _compile_raw_term(term: Term, slots: Dict[Variable, int],
                      symbols=IDENTITY) -> Callable[[Row], Any]:
    """Compile one term into a *raw-domain* accessor (builtin operands)."""
    if isinstance(term, Variable):
        get = itemgetter(_slot_of(term, slots))
        if symbols.identity:
            return get
        resolve = symbols.resolve
        return lambda row: resolve(get(row))
    if isinstance(term, Constant):
        value = symbols.resolve(term.value)
        return lambda row: value
    if isinstance(term, BinaryExpression):
        func = binary_operator(term.op)
        left = _compile_raw_term(term.left, slots, symbols)
        right = _compile_raw_term(term.right, slots, symbols)
        return lambda row: func(left(row), right(row))
    if isinstance(term, Aggregate):
        return _compile_raw_term(term.target, slots, symbols)
    raise TypeError(f"cannot compile term {term!r}")  # pragma: no cover


def _same_rows(rows: Rows) -> Rows:
    return rows


def _project_rows(positions: Tuple[int, ...], width: int,
                  identity: Callable[[Iterable[Row]], Rows],
                  ) -> Callable[[Iterable[Row]], Rows]:
    """Compile ``rows -> rows restricted to positions`` (at least one).

    ``identity`` is what to do when the restriction keeps every column in
    place: pass a block through untouched, or ``list`` a relation scan.
    """
    if positions == tuple(range(width)):
        return identity
    if len(positions) == 1:
        column = itemgetter(positions[0])
        return lambda rows: list(zip(map(column, rows)))
    getter = itemgetter(*positions)
    return lambda rows: list(map(getter, rows))


def _filtered_relation_rows(
    relation: Relation,
    constants: Dict[int, Any],
    dup_checks: Sequence[Tuple[int, int]],
) -> Iterable[Row]:
    """Relation rows satisfying the atom's constant/repeated-variable checks."""
    rows: Iterable[Row] = relation.probe(constants) if constants else relation.rows()
    if dup_checks:
        rows = (r for r in rows if all(r[p] == r[q] for p, q in dup_checks))
    return rows


# -- step lowering ---------------------------------------------------------------


def _lower_join(layout: JoinLayout, width: int, stats: Dict[str, int]) -> Step:
    """Lower one positive atom to its batch join kernel.

    The batch counterpart of the pushdown evaluator's per-tuple
    probe/extend step.  Lowering picks the kernel shape — scan / existence
    filter / cartesian for an unkeyed atom, hash join or semi-join for a
    keyed one — and compiles every accessor; the kernel fetches the
    relation, extracts the distinct keys, lets
    :func:`~repro.relational.columnar.choose_build_strategy` decide between
    probing the relation's existing per-column index and a fresh dict
    build, and emits one C-level tuple concatenation per match.

    One keyed shape never builds anything: when the block binds *every*
    column of the atom, the key is the row, and the relation's own row set
    already is the hash table — the kernel assembles each block row's key
    in column order and tests membership, the mirror image of
    :func:`_lower_negation` (counted as an ``"index"`` probe).
    """
    name, kind, arity = layout.relation, layout.kind, layout.arity
    constants = dict(layout.constants)
    dup_checks = layout.dup_checks
    key_positions = layout.key_positions
    fresh = layout.fresh_positions
    payload_first = layout.payload_first
    bases_of = (
        _project_rows(layout.kept_slots, width, _same_rows)
        if layout.kept_slots else None
    )

    if not key_positions:
        payloads_of = _project_rows(fresh, arity, list) if fresh else None
        full_row = (
            tuple(value for _, value in layout.constants)
            if len(constants) == arity else None
        )

        def scan(storage: StorageManager, rows: Rows) -> Rows:
            relation = storage.relation(name, kind)
            if not relation:
                return []
            if payloads_of is None:
                # Existence filter: the whole block passes or none of it.
                if full_row is not None:
                    matched = full_row in relation.rows()
                else:
                    matching = _filtered_relation_rows(relation, constants, dup_checks)
                    matched = next(iter(matching), None) is not None
                if not matched:
                    return []
                # Zero-column blocks clamp to one row: duplicates of () are
                # semantically inert and would only multiply later cartesians.
                return bases_of(rows) if bases_of is not None else [()]
            payloads = payloads_of(
                _filtered_relation_rows(relation, constants, dup_checks)
            )
            if bases_of is None:
                # No kept columns: all input rows are indistinguishable, so
                # one copy of the payloads is the whole answer (set semantics).
                return payloads
            bases = bases_of(rows)
            if payload_first:
                return [payload + base for base in bases for payload in payloads]
            return [base + payload for base in bases for payload in payloads]

        return scan

    if len(key_positions) == arity:
        # Key positions ascend, so reading the binding slots in that order
        # yields the relation's row whatever order the block holds them in.
        probes_of = _project_rows(layout.key_slots, width, _same_rows)

        def member(storage: StorageManager, rows: Rows) -> Rows:
            contained = storage.relation(name, kind).rows()
            if not contained:
                return []
            stats["index"] += 1
            if bases_of is None:
                return [()] if any(p in contained for p in probes_of(rows)) else []
            return [
                base for base, probe in zip(bases_of(rows), probes_of(rows))
                if probe in contained
            ]

        return member

    single_key = len(key_positions) == 1
    key_position = key_positions[0]
    key_of = itemgetter(*layout.key_slots)
    relation_key_of = itemgetter(*key_positions)
    filtered = bool(constants or dup_checks)

    def row_ok(row: Row) -> bool:
        for position, value in layout.constants:
            if row[position] != value:
                return False
        for position, earlier in dup_checks:
            if row[position] != row[earlier]:
                return False
        return True

    if not fresh:
        # Semi-join: the atom binds nothing new, so each block row survives
        # at most once however many relation rows match its key.
        def from_index(buckets, distinct):
            if not filtered:
                return buckets
            return {
                value for value in distinct
                if any(map(row_ok, buckets.get(value, ())))
            }

        def from_relation(matching):
            return set(map(relation_key_of, matching))

        def emit(present, keys, distinct, rows):
            if bases_of is None:
                return [()] if any(key in present for key in distinct) else []
            return [
                base for base, key in zip(bases_of(rows), keys) if key in present
            ]

    else:
        plain_fresh = fresh[0] if len(fresh) == 1 and not filtered else None
        payloads_of = _project_rows(fresh, arity, list)

        def from_index(buckets, distinct):
            bucket_of = buckets.get
            table: Dict[Any, List[Row]] = {}
            if plain_fresh is not None:
                # The bread-and-butter shape (e.g. pathΔ(x,y) ⋈ edge(y,z)):
                # per distinct key, one bucket lookup and one comprehension.
                for value in distinct:
                    bucket = bucket_of(value)
                    if bucket:
                        table[value] = [(r[plain_fresh],) for r in bucket]
                return table
            for value in distinct:
                bucket = bucket_of(value)
                if bucket and filtered:
                    bucket = list(filter(row_ok, bucket))
                if bucket:
                    table[value] = payloads_of(bucket)
            return table

        def from_relation(matching):
            return build_hash_table(matching, key_positions, fresh)

        def emit(table, keys, distinct, rows):
            if bases_of is None:
                # Indistinguishable input rows: probe each key once.
                return probe_hash_table(table, distinct, None)
            return probe_hash_table(table, keys, bases_of(rows), payload_first)

    def keyed(storage: StorageManager, rows: Rows) -> Rows:
        relation = storage.relation(name, kind)
        if not relation:
            return []
        keys = list(map(key_of, rows))
        distinct = set(keys)
        buckets = None
        if single_key:
            buckets = relation.index_buckets(key_position)
            if (
                buckets is None
                and relation.has_index(key_position)
                and len(distinct) < len(relation)
            ):
                # A lazily-registered index worth probing: materialise it
                # now.  One build pass costs the same as an ad-hoc table,
                # but the index persists across batches (delta copies demote
                # it again on clear, so a per-iteration buffer never accrues
                # maintenance).
                index = relation.build_index(key_position)
                assert index is not None
                buckets = index.buckets()
        strategy = choose_build_strategy(
            len(distinct), len(relation), buckets is not None
        )
        stats[strategy] += 1
        if strategy == "index":
            matches = from_index(buckets, distinct)
        else:
            matches = from_relation(
                _filtered_relation_rows(relation, constants, dup_checks)
            )
        return emit(matches, keys, distinct, rows)

    return keyed


def _lower_negation(atom: Atom, slots: Dict[Variable, int], width: int) -> Step:
    """Lower one negated atom to a batch anti-join.

    Probe tuples for every block row are assembled column-wise at C level
    and tested against the relation's row set directly — no per-row
    bindings dictionaries.
    """
    name = atom.relation
    parts: List[Tuple[Optional[int], Any]] = []
    for term in atom.terms:
        if isinstance(term, Constant):
            parts.append((None, term.value))
        elif isinstance(term, Variable):
            if term not in slots:
                raise ValueError(
                    f"negated atom {atom!r} reached with unbound variable "
                    f"{term.name!r}; the planner must order it after its binders"
                )
            parts.append((slots[term], None))
        else:  # pragma: no cover
            raise TypeError(f"unexpected term {term!r} in negated atom")
    term_slots = tuple(slot for slot, _ in parts if slot is not None)
    if len(term_slots) < len(parts):
        def probes_of(rows: Rows) -> Iterable[Row]:
            return zip(*(
                repeat(value, len(rows)) if slot is None
                else map(itemgetter(slot), rows)
                for slot, value in parts
            ))
    else:
        probes_of = _project_rows(term_slots, width, _same_rows) if parts else None

    def negate(storage: StorageManager, rows: Rows) -> Rows:
        contained = storage.relation(name, DatabaseKind.DERIVED).rows()
        if not contained:
            return rows
        if probes_of is None:  # zero-arity atom, and it holds
            return []
        return [
            row for probe, row in zip(probes_of(rows), rows)
            if probe not in contained
        ]

    return negate


def _lower_comparison(comparison: Comparison, slots: Dict[Variable, int],
                      symbols) -> Step:
    """Lower one comparison literal to a batch filter (raw domain)."""
    func = comparison_operator(comparison.op)
    left = _compile_raw_term(comparison.left, slots, symbols)
    right = _compile_raw_term(comparison.right, slots, symbols)

    def compare(storage: StorageManager, rows: Rows) -> Rows:
        return [row for row in rows if func(left(row), right(row))]

    return compare


def _lower_assignment(assignment: Assignment, slots: Dict[Variable, int],
                      symbols) -> Step:
    """Lower one assignment to a batch extend (or equality filter).

    The expression computes raw; extending the block re-interns the result
    (assignments are where a fixpoint can allocate fresh symbols).  The
    re-binding case compares in the raw domain and allocates nothing.
    """
    expression = _compile_raw_term(assignment.expression, slots, symbols)
    if assignment.target in slots:  # re-binding degenerates to an equality filter
        bound = _compile_raw_term(assignment.target, slots, symbols)

        def rebind(storage: StorageManager, rows: Rows) -> Rows:
            return [row for row in rows if bound(row) == expression(row)]

        return rebind
    if symbols.identity:
        def extend(storage: StorageManager, rows: Rows) -> Rows:
            return [row + (expression(row),) for row in rows]
    else:
        intern = symbols.intern

        def extend(storage: StorageManager, rows: Rows) -> Rows:
            return [row + (intern(expression(row)),) for row in rows]

    return extend


def _lower_projection(head_terms: Sequence[Term],
                      variables: Tuple[Variable, ...],
                      symbols) -> Callable[[Rows], Set[Row]]:
    """Lower the head projection over the final (non-empty) block.

    All-variable heads compile to one :func:`operator.itemgetter` — or to
    plain ``set`` when the last join already emitted head-shaped rows — so
    the entire projection and its de-duplication run at C level.
    """
    slots = {variable: slot for slot, variable in enumerate(variables)}
    if all(isinstance(term, Variable) for term in head_terms):
        head_slots = tuple(_slot_of(term, slots) for term in head_terms)  # type: ignore[arg-type]
        if not head_slots:
            return lambda rows: {()}
        if head_slots == tuple(range(len(variables))):
            return set
        if len(head_slots) == 1:
            column = itemgetter(head_slots[0])
            return lambda rows: set(zip(map(column, rows)))
        getter = itemgetter(*head_slots)
        return lambda rows: set(map(getter, rows))
    compiled = [_compile_term(term, slots, symbols) for term in head_terms]
    return lambda rows: {tuple(fn(row) for fn in compiled) for row in rows}


class BlockKernel:
    """One lowered :class:`JoinPlan`: call it on a storage, get head rows.
    Only the data-dependent work is left to do per call."""

    __slots__ = ("rule_name", "operators", "steps", "project", "tracer",
                 "governor", "stats")

    def __init__(self, rule_name: str,
                 operators: Sequence[Tuple[str, Optional[str]]],
                 steps: Sequence[Step],
                 project: Callable[[Rows], Set[Row]],
                 tracer, governor, stats: Dict[str, int]) -> None:
        self.rule_name = rule_name
        #: ``(span name, relation)`` per body position, for tracing.
        self.operators = tuple(operators)
        self.steps = tuple(steps)
        #: Plain ``set`` when the final block's rows are head rows as they stand.
        self.project = project
        self.tracer = tracer
        self.governor = governor
        self.stats = stats

    def __call__(self, storage: StorageManager) -> Set[Row]:
        # Cooperative cancellation once per plan: the finest granularity at
        # which storage is consistent (a plan either fully evaluates or
        # contributes nothing).
        if self.governor.active:
            self.governor.check()
        self.stats["batches"] += 1
        if self.tracer.enabled:
            rows = self._traced(storage)
        else:
            rows = _UNIT_ROWS
            for step in self.steps:
                rows = step(storage, rows)
                if not rows:
                    break
        return self.project(rows) if rows else set()

    def _traced(self, storage: StorageManager) -> Rows:
        """The same pipeline with one ``op:*`` span per body position."""
        rows = _UNIT_ROWS
        tracer = self.tracer
        for (name, relation), step in zip(self.operators, self.steps):
            span = tracer.span(
                name, ambient=False, rule=self.rule_name,
                relation=relation, rows_in=len(rows),
            )
            try:
                rows = step(storage, rows)
            finally:
                span.set(rows_out=len(rows)).finish()
            if not rows:
                break
        return rows


def lower_plan(plan: JoinPlan, symbols=IDENTITY, tracer=NOOP_TRACER,
               governor=NOOP_GOVERNOR,
               stats: Optional[Dict[str, int]] = None) -> BlockKernel:
    """Stage the block executor for one plan.

    Does, once, everything about evaluating ``plan`` block-at-a-time that
    the data cannot change: atom layouts (:class:`JoinLayout`), which
    columns stay alive after each position, compiled term accessors, and a
    column order that leaves the last join's output head-shaped.  The
    interpreter (:class:`VectorizedSubqueryEvaluator`) and the lambda JIT
    backend run the very same kernels.
    """
    if stats is None:
        stats = new_block_stats()
    positions, final_variables = plan_layouts(plan)
    operators: List[Tuple[str, Optional[str]]] = []
    steps: List[Step] = []
    for source, (variables, layout) in zip(plan.sources, positions):
        literal = source.literal
        slots = {variable: slot for slot, variable in enumerate(variables)}
        if layout is not None:
            steps.append(_lower_join(layout, len(variables), stats))
        elif isinstance(literal, Atom):
            steps.append(_lower_negation(literal, slots, len(variables)))
        elif isinstance(literal, Comparison):
            steps.append(_lower_comparison(literal, slots, symbols))
        elif isinstance(literal, Assignment):
            steps.append(_lower_assignment(literal, slots, symbols))
        else:  # pragma: no cover
            raise TypeError(f"unsupported literal {literal!r}")
        operators.append(
            (_operator_span_name(literal), getattr(literal, "relation", None))
        )
    project = _lower_projection(plan.head_terms, final_variables, symbols)
    return BlockKernel(plan.rule_name, operators, steps, project,
                       tracer, governor, stats)


class VectorizedSubqueryEvaluator:
    """Batch (block-at-a-time) evaluation of a :class:`JoinPlan`.

    Produces exactly the same result set as the push/pull evaluators — the
    differential property suite holds it to bit-for-bit equality — but
    processes the whole intermediate result per body position instead of
    recursing per tuple.  Evaluation is "lower, then run": kernels are
    memoised per live plan object, so a plan that is evaluated every
    iteration is analysed once.  ``stats`` counts evaluated batches and
    which build strategy each keyed join took (folded into the runtime
    profile by the executor).
    """

    def __init__(self, storage: StorageManager, tracer=NOOP_TRACER,
                 governor=NOOP_GOVERNOR) -> None:
        self.storage = storage
        self.symbols = storage.symbols
        self.tracer = tracer
        self.governor = governor
        self.stats = new_block_stats()
        #: id(plan) -> (plan, kernel); holding the plan keeps its id unique.
        self._kernels: Dict[int, Tuple[JoinPlan, BlockKernel]] = {}

    def lower(self, plan: JoinPlan) -> BlockKernel:
        """A kernel for ``plan`` wired to this evaluator's tracer, governor
        and counters (what a JIT backend stitches its artifacts from)."""
        return lower_plan(plan, self.symbols, self.tracer, self.governor,
                          self.stats)

    def evaluate(self, plan: JoinPlan) -> Set[Row]:
        entry = self._kernels.get(id(plan))
        if entry is None:
            if len(self._kernels) >= _KERNEL_MEMO_LIMIT:
                # Reorder-only execution mints fresh plan objects every
                # iteration; dropping the memo bounds what they pin.
                self._kernels.clear()
            entry = self._kernels[id(plan)] = (plan, self.lower(plan))
        return entry[1](self.storage)


class SubqueryEvaluator:
    """Facade over the physical executors.

    ``style`` selects between the push and pull tuple-at-a-time pipelines;
    ``executor`` selects between that pushdown recursion (the oracle) and
    the vectorized batch executor.  :meth:`bindings` always runs pull-style
    — aggregation grouping needs complete per-tuple bindings, which a batch
    pipeline does not materialise; everything else, DRed's over-deletion
    and re-derivation included, goes through :meth:`evaluate`.  :meth:`lower`
    hands out block kernels whatever the executor, which is how compiled
    artifacts share this evaluator's tracer, governor and batch counters.
    """

    def __init__(self, storage: StorageManager, style: str = "push",
                 executor: str = "pushdown", tracer=NOOP_TRACER,
                 governor=NOOP_GOVERNOR) -> None:
        if style not in ("push", "pull"):
            raise ValueError(f"unknown evaluator style {style!r}")
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.storage = storage
        self.style = style
        self.executor = executor
        #: Cooperative cancellation: checked once per sub-query plan, the
        #: finest granularity at which storage is consistent (a plan either
        #: fully evaluates or contributes nothing).
        self.governor = governor
        self._push = PushSubqueryEvaluator(storage)
        self._pull = PullSubqueryEvaluator(storage)
        self._blocks = VectorizedSubqueryEvaluator(
            storage, tracer=tracer, governor=governor
        )

    def evaluate(self, plan: JoinPlan) -> Set[Row]:
        if self.executor == "vectorized":
            return self._blocks.evaluate(plan)  # kernels check the governor
        if self.governor.active:
            self.governor.check()
        if self.style == "push":
            return self._push.evaluate(plan)
        return self._pull.evaluate(plan)

    def lower(self, plan: JoinPlan) -> BlockKernel:
        """Stage ``plan`` as a block kernel (see :func:`lower_plan`)."""
        return self._blocks.lower(plan)

    @property
    def vectorized_stats(self) -> Dict[str, int]:
        """Batch/strategy counters of every kernel this evaluator lowered."""
        return self._blocks.stats

    def bindings(self, plan: JoinPlan) -> Iterator[Bindings]:
        """Complete bindings (always pull-style; used for aggregation)."""
        return self._pull.bindings(plan)


def evaluate_subquery(storage: StorageManager, plan: JoinPlan,
                      style: str = "push", executor: str = "pushdown") -> Set[Row]:
    """One-shot convenience wrapper used by tests and the interpreter."""
    return SubqueryEvaluator(storage, style, executor=executor).evaluate(plan)
