"""Physical evaluation of conjunctive sub-queries (σπ⋈ over one atom order).

A *sub-query* is one member of the union generated for a rule by semi-naive
evaluation: an ordered sequence of body literals, each relational atom tagged
with the database copy it reads (Derived or Delta-Known), plus the head
projection.  This module provides the interchangeable implementations of
the same physical plan:

* the pushdown evaluator: a push-based (callback) left-deep
  index-nested-loop join with binding propagation, tuple at a time — the
  plan shape the join-order optimizer reasons about, and the oracle
  everything else is tested against;
* the block executor, split into a **plan-time lowering**
  (:func:`lower_plan`: atom layouts, live columns, and per positive atom the
  *source* of one comprehension specialised to that layout — key slot, kept
  and fresh columns, constant and repeated-variable checks, the output tuple
  in head order — compiled once per distinct shape) and **run-time kernels**
  (:class:`BlockKernel`: fetch the relation's ``key -> rows`` mapping — its
  live index, or a table built for the batch when no key column is indexed —
  and call the comprehension, which emits distinct rows).  There is exactly
  one implementation of those batch operators;
  :class:`VectorizedSubqueryEvaluator` runs it as an interpreter (lower on
  first sight of a plan, then run) and every compiling JIT backend stitches
  its artifacts from the same kernels at compile time — the backends differ
  only in how a comprehension's text becomes a callable.
"""

from __future__ import annotations

import functools
import linecache
import zlib
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.datalog.literals import Assignment, Atom, Comparison, Literal, comparison_operator
from repro.datalog.terms import Aggregate, BinaryExpression, Constant, Term, Variable, binary_operator
from repro.relational.relation import HashIndex, Row
from repro.relational.storage import DatabaseKind, StorageManager
from repro.relational.symbols import IDENTITY
from repro.resilience.limits import NOOP_GOVERNOR
from repro.telemetry.spans import NOOP_TRACER

Bindings = Dict[Variable, Any]

#: The two interchangeable physical executors for one :class:`JoinPlan`:
#: ``"vectorized"`` (the production default) the batch executor running
#: lowered :class:`BlockKernel`s, ``"pushdown"`` the tuple-at-a-time binding
#: recursion it is tested against.
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


class PushSubqueryEvaluator:
    """Callback-based (push) evaluation of a :class:`JoinPlan`, tuple at a
    time: each complete binding is pushed into a consumer as soon as it is
    produced, which is how Carac's default push-based storage engine works.
    """

    def __init__(self, storage: StorageManager) -> None:
        self.storage = storage
        self.symbols = storage.symbols

    def each_binding(self, plan: JoinPlan,
                     emit: Callable[[Bindings], None]) -> None:
        """Push every complete binding of ``plan`` into ``emit``."""
        self._push(plan, 0, {}, emit)

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
                if _negation_probe(literal, bindings) not in relation:
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
        """Project the head of every binding (no aggregation here)."""
        results: Set[Row] = set()
        add, head_terms, symbols = results.add, plan.head_terms, self.symbols
        self._push(plan, 0, {},
                   lambda bindings: add(project_head(head_terms, bindings, symbols)))
        return results


def _negation_probe(literal: Atom, bindings: Bindings) -> Row:
    """The fully bound row a negated atom tests for absence."""
    try:
        return tuple(
            term.value if isinstance(term, Constant) else bindings[term]
            for term in literal.terms
        )
    except KeyError as missing:
        raise ValueError(
            f"negated atom {literal!r} reached with unbound variable "
            f"{missing.args[0].name!r}; the planner must order it after its binders"
        ) from None


# ---------------------------------------------------------------------------
# The block executor: plan-time lowering, run-time kernels
# ---------------------------------------------------------------------------

#: A block at run time: every intermediate tuple of a sub-query, as rows —
#: a list, or a set out of a step that dropped a column it saw (so a block
#: never holds the same row twice).  Which variable each column holds is
#: decided at lowering time.
Rows = Union[List[Row], Set[Row]]
#: One lowered body position: ``(storage, rows in) -> rows out``.
Step = Callable[[StorageManager, Rows], Rows]
#: Turns one generated comprehension's source text into its callable.
KernelCompiler = Callable[[str], Callable[..., Rows]]

#: Kernels one evaluator memoises before it starts over.
_KERNEL_MEMO_LIMIT = 256

#: The join identity — no columns, exactly one (empty) row.  Never mutated:
#: every step returns either its input rows or freshly built ones.
_UNIT_ROWS: Rows = [()]


def new_block_stats() -> Dict[str, int]:
    """Kernel counters: batches; how each positive atom got its rows (probed
    a live index / built a table for the batch / scanned); and the rows
    handed to the head projection against the rows it returned."""
    return {"batches": 0, "index": 0, "build": 0, "scan": 0,
            "candidates": 0, "projected": 0}


@dataclass(frozen=True)
class JoinLayout:
    """Everything about joining one positive atom into the block that does
    not depend on the data: computed once per plan, written into the atom's
    comprehension and read by the planner's strategy prediction."""

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
    #: Atom columns that become new block columns.
    fresh_positions: Tuple[int, ...]
    #: Block columns some later literal (or the head) still reads; dropping
    #: the rest keeps intermediate tuples narrow.
    kept_slots: Tuple[int, ...]
    #: The output row cell by cell, in any order: ``(0, slot)`` reads the
    #: block row, ``(1, column)`` the relation row.
    output: Tuple[Tuple[int, int], ...]
    out_variables: Tuple[Variable, ...]
    #: The step drops a column it saw — the only way two output rows can
    #: coincide — or is ``final``: it emits through a set.
    distinct: bool
    #: The plan's last step, its output rows the head rows: the set it
    #: emits is the kernel's result.
    final: bool

    def probe_column(self, indexed: Callable[[int], bool]) -> Optional[int]:
        """The key column whose index a keyed join probes — the first one
        carrying an index — or None when it has to build a table.  The one
        rule both the kernel and the planner's prediction follow."""
        return next((p for p in self.key_positions if indexed(p)), None)

    def strategy(self, indexed: Callable[[int], bool]) -> str:
        """The counter a batch of this atom bumps: ``"scan"`` unkeyed,
        ``"index"`` when the key is the whole row (the row set is the
        table) or :meth:`probe_column` finds an index, else ``"build"``."""
        if not self.key_positions:
            return "scan"
        if len(self.key_positions) == self.arity:
            return "index"
        return "build" if self.probe_column(indexed) is None else "index"


def _join_layout(source: AtomSource, variables: Tuple[Variable, ...],
                 needed: FrozenSet[Variable],
                 head: Optional[Tuple[Variable, ...]], final: bool) -> JoinLayout:
    """Lay out one positive atom against a block holding ``variables``.

    ``head`` is the head's variables when this is the plan's last
    column-producing position: if they are exactly what is still alive the
    output rows are written in head order, so they already *are* head rows
    (``final``: and this is the last position at all, so a head may even
    repeat a variable).
    """
    atom = source.literal
    assert isinstance(atom, Atom)
    slots = {variable: slot for slot, variable in enumerate(variables)}
    key_positions: List[int] = []
    key_slots: List[int] = []
    constants: List[Tuple[int, Any]] = []
    dup_checks: List[Tuple[int, int]] = []
    first_seen: Dict[Variable, int] = {}
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
        else:  # pragma: no cover - expressions cannot appear in body atoms
            raise TypeError(f"unexpected term {term!r} in body atom")
    cells = {v: (0, slot) for v, slot in slots.items() if v in needed}
    kept = len(cells)
    cells.update((v, (1, p)) for v, p in first_seen.items() if v in needed)
    out_variables = tuple(cells)
    shaped = head is not None and set(head) == cells.keys()
    final = final and shaped
    if final or (shaped and len(head) == len(cells)):
        out_variables = head
    return JoinLayout(
        relation=atom.relation,
        kind=source.kind or DatabaseKind.DERIVED,
        arity=len(atom.terms),
        key_positions=tuple(key_positions),
        key_slots=tuple(key_slots),
        constants=tuple(constants),
        dup_checks=tuple(dup_checks),
        fresh_positions=tuple(p for side, p in cells.values() if side),
        kept_slots=tuple(s for side, s in cells.values() if not side),
        output=tuple(cells[v] for v in out_variables),
        out_variables=out_variables,
        distinct=final or kept < len(variables) or len(cells) - kept < len(first_seen),
        final=final,
    )


def plan_layouts(
    plan: JoinPlan,
) -> Tuple[Tuple[Tuple[Tuple[Variable, ...], Optional[JoinLayout]], ...],
           Tuple[Variable, ...]]:
    """The static shape of a plan's block pipeline.

    Returns, per body position, the block's columns on entry plus the
    :class:`JoinLayout` of a positive atom (None for negations and
    built-ins), and the columns the head projection reads from.  A pure
    function of the (immutable) head and sources, memoised on them: the
    adaptive executor asks again after every reorder, and mostly about an
    order it has already seen.
    """
    return _plan_layouts(plan.head_terms, plan.sources)


@functools.lru_cache(maxsize=4096)
def _plan_layouts(head_terms: Tuple[Term, ...], sources: Tuple[AtomSource, ...]):
    needed: Set[Variable] = set()
    for term in head_terms:
        needed |= term.variables()
    # Per body position: variables any later literal or the head reads.
    needed_after: List[FrozenSet[Variable]] = [frozenset()] * len(sources)
    for position in range(len(sources) - 1, -1, -1):
        needed_after[position] = frozenset(needed)
        needed |= sources[position].literal.variables()
    head: Optional[Tuple[Variable, ...]] = None
    if all(isinstance(term, Variable) for term in head_terms):
        head = head_terms  # type: ignore[assignment]
    produces_columns = [
        isinstance(s.literal, Assignment)
        or (isinstance(s.literal, Atom) and not s.literal.negated)
        for s in sources
    ]
    variables: Tuple[Variable, ...] = ()
    positions: List[Tuple[Tuple[Variable, ...], Optional[JoinLayout]]] = []
    for position, source in enumerate(sources):
        literal = source.literal
        layout: Optional[JoinLayout] = None
        entry = variables
        if isinstance(literal, Atom) and not literal.negated:
            is_last = not any(produces_columns[position + 1:])
            layout = _join_layout(
                source, variables, needed_after[position],
                head if is_last else None, position == len(sources) - 1,
            )
            variables = layout.out_variables
        elif isinstance(literal, Assignment) and literal.target not in variables:
            variables = variables + (literal.target,)
        positions.append((entry, layout))
    return tuple(positions), variables


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
                  ) -> Callable[[Iterable[Row]], Iterable[Row]]:
    """Compile ``rows -> rows restricted to positions`` (at least one)."""
    if positions == tuple(range(width)):
        return _same_rows
    if len(positions) == 1:
        column = itemgetter(positions[0])
        return lambda rows: zip(map(column, rows))
    getter = itemgetter(*positions)
    return lambda rows: map(getter, rows)


# -- generated join comprehensions ------------------------------------------------


def kernel_filename(source: str) -> str:
    """The file name a generated comprehension is compiled under.

    The text is registered in :mod:`linecache` under that name, so a
    traceback out of a kernel shows the comprehension.
    """
    filename = f"<repro-kernel:{zlib.crc32(source.encode()):08x}>"
    linecache.cache[filename] = (len(source), None, [source + "\n"], filename)
    return filename


@functools.lru_cache(maxsize=None)
def _compile_kernel(source: str) -> Callable[..., Rows]:
    """``compile()`` one generated comprehension, once per distinct text.

    Constants are arguments of the lambda, never part of its source, so a
    plan re-lowered after a reorder — or another rule with the same shape —
    is a cache hit.  ``_compile_kernel.__wrapped__`` is the same compilation
    without the cache.
    """
    return eval(compile(source, kernel_filename(source), "eval"))  # noqa: S307


def _tuple_source(cells: Sequence[str]) -> str:
    """A tuple display of one or more cells."""
    return f"({cells[0]},)" if len(cells) == 1 else f"({', '.join(cells)})"


def _join_source(layout: JoinLayout, width: int, probe: Optional[int]) -> str:
    """The source of the one comprehension joining ``layout``'s atom into a
    block of ``width`` columns: ``lambda rows, src[, c0, ...]: <rows out>``.

    ``r`` is a block row, ``q`` a relation row, ``c<i>`` the atom's i-th
    constant (a keyed join checks them on the bucket rows; an unkeyed one
    is handed rows that already passed).  ``probe`` is the key column whose ``key -> rows`` mapping the
    join probes (``src`` is that mapping's ``get``; the other key columns
    become equality checks on ``q``).  With no ``probe``, ``src`` is the row
    set itself when the key covers every column (a membership test), else
    the relation's rows already filtered by the constants.  The output
    tuple is written straight from ``layout.output``, through a set when
    ``layout.distinct``.
    """
    cells = [f"{'rq'[side]}[{index}]" for side, index in layout.output]
    if not cells:
        out = "()"
    elif layout.output == tuple((0, slot) for slot in range(width)):
        out = "r"
    elif layout.output == tuple((1, column) for column in range(layout.arity)):
        out = "q"
    else:
        out = _tuple_source(cells)
    keys = dict(zip(layout.key_positions, layout.key_slots))
    checks = [f"q[{p}] == r[{slot}]" for p, slot in keys.items() if p != probe]
    if probe is not None:
        checks += [f"q[{p}] == c{i}" for i, (p, _) in enumerate(layout.constants)]
    checks += [f"q[{p}] == q[{earlier}]" for p, earlier in layout.dup_checks]
    where = " if " + " and ".join(checks) if checks else ""
    brackets = "{%s}" if layout.distinct else "[%s]"
    if keys and probe is None:
        key = _tuple_source([f"r[{slot}]" for slot in keys.values()])
        result = brackets % f"{out} for r in rows if {key} in src"
    elif probe is not None and layout.fresh_positions:
        result = brackets % f"{out} for r in rows for q in src(r[{keys[probe]}], ()){where}"
    elif probe is not None:
        # Semi-join: each block row survives at most once.
        matched = (f"any({' and '.join(checks)} for q in src(r[{keys[probe]}], ()))"
                   if checks else f"src(r[{keys[probe]}])")
        result = brackets % f"{out} for r in rows if {matched}"
    elif layout.fresh_positions:
        # Scan or cartesian product; with no kept column all input rows are
        # indistinguishable, so one copy of the relation side is the answer.
        if out == "q" and not where:
            result = "set(src)" if layout.distinct else "list(src)"
        else:
            result = brackets % (f"{out} for q in src{where}"
                                 + (" for r in rows" if layout.kept_slots else ""))
    else:
        # Existence filter: the whole block passes or none of it.
        passed = ("rows" if out == "r" and not layout.distinct
                  else brackets % f"{out} for r in rows")
        result = f"{passed} if any({' and '.join(checks) or 'True'} for q in src) else []"
    header = "".join(f", c{i}" for i in range(len(layout.constants)) if probe is not None)
    return f"lambda rows, src{header}: {result}"


# -- step lowering ---------------------------------------------------------------


def _lower_join(layout: JoinLayout, width: int, stats: Dict[str, int],
                compile_kernel: KernelCompiler = _compile_kernel,
                ) -> Tuple[Step, str]:
    """Lower one positive atom to its batch join kernel and its source.

    The batch counterpart of the pushdown evaluator's per-tuple
    probe/extend step.  Lowering generates the atom's comprehension
    (:func:`_join_source` — one variant per key column, so the kernel can
    probe whichever of them is indexed when the batch arrives) and turns
    each text into a callable with ``compile_kernel``; the kernel only
    fetches what the comprehension iterates:

    * unkeyed (scan / cartesian / existence filter): the relation's rows,
      pre-filtered by the atom's constants through ``Relation.probe``;
    * key covers every column: the relation's own row set *is* the hash
      table (counted as an ``"index"`` probe);
    * otherwise the live :class:`HashIndex` of the first indexed key column
      (materialising a lazily registered one), or — no key column indexed —
      a throwaway index over the constant-filtered rows, built for this
      batch and probed by the same comprehension.
    """
    name, kind = layout.relation, layout.kind
    constants = dict(layout.constants)
    values = tuple(constants.values())
    keys = layout.key_positions
    sources = {
        probe: _join_source(layout, width, probe)
        for probe in (keys if 0 < len(keys) < layout.arity else (None,))
    }
    variants = {probe: compile_kernel(text) for probe, text in sources.items()}
    text = "\n".join(sources.values())

    if not keys:
        run = variants[None]

        def scan(storage: StorageManager, rows: Rows) -> Rows:
            relation = storage.relation(name, kind)
            if not relation:
                return []
            stats["scan"] += 1
            return run(rows, relation.probe(constants))

        return scan, text

    if len(keys) == layout.arity:
        run = variants[None]

        def member(storage: StorageManager, rows: Rows) -> Rows:
            contained = storage.relation(name, kind).rows()
            if not contained:
                return []
            stats["index"] += 1
            return run(rows, contained)

        return member, text

    def keyed(storage: StorageManager, rows: Rows) -> Rows:
        relation = storage.relation(name, kind)
        if not relation:
            return []
        probe = layout.probe_column(relation.has_index)
        if probe is None:
            stats["build"] += 1
            probe = keys[0]
            index = HashIndex(probe)
            index.insert_many(relation.probe(constants))
        else:
            # Materialises a lazily registered index on its first probe; it
            # then persists across batches (delta copies demote it again on
            # clear, so a per-iteration buffer never accrues maintenance).
            stats["index"] += 1
            index = relation.build_index(probe)
        return variants[probe](rows, index.buckets().get, *values)

    return keyed, text


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
        probes_of = _project_rows(term_slots, width) if parts else None

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

    Only reached when the plan's last step could not emit the head itself
    (``JoinLayout.final``): the head computes or pins a value, or a filter
    follows the last join.  All-variable heads compile to one
    :func:`operator.itemgetter` — or to plain ``set`` when the last join
    already wrote its rows in head order — so the entire projection and its
    de-duplication run at C level.
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

    __slots__ = ("rule_name", "operators", "steps", "sources", "project",
                 "tracer", "governor", "stats")

    def __init__(self, rule_name: str,
                 operators: Sequence[Tuple[str, Optional[str]]],
                 steps: Sequence[Step], sources: Sequence[Optional[str]],
                 project: Optional[Callable[[Rows], Set[Row]]],
                 tracer, governor, stats: Dict[str, int]) -> None:
        self.rule_name = rule_name
        #: ``(span name, relation)`` per body position, for tracing.
        self.operators = tuple(operators)
        self.steps = tuple(steps)
        #: Per body position, the generated source of a positive atom's
        #: comprehension(s) (None for negations and built-ins).
        self.sources = tuple(sources)
        #: None when the last step's set already is the result
        #: (``JoinLayout.final``); plain ``set`` when the final block's rows
        #: are head rows as they stand.
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
        stats = self.stats
        stats["batches"] += 1
        if self.tracer.enabled:
            rows = self._traced(storage)
        else:
            rows = _UNIT_ROWS
            for step in self.steps:
                rows = step(storage, rows)
                if not rows:
                    break
        if not rows:
            return set()
        stats["candidates"] += len(rows)
        if self.project is not None:
            rows = self.project(rows)
        stats["projected"] += len(rows)
        return rows  # type: ignore[return-value]

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
               stats: Optional[Dict[str, int]] = None,
               compile_kernel: KernelCompiler = _compile_kernel) -> BlockKernel:
    """Stage the block executor for one plan.

    Does, once, everything about evaluating ``plan`` block-at-a-time that
    the data cannot change: atom layouts (:class:`JoinLayout`), which
    columns stay alive after each position, one generated comprehension per
    positive atom (its output written in head order when it is the last to
    produce columns, and as the result set itself when it is the last step),
    compiled term accessors for the built-ins.  The interpreter
    (:class:`VectorizedSubqueryEvaluator`) and every compiling JIT backend
    run the very same kernels; ``compile_kernel`` is how each
    comprehension's text becomes a callable (by default compiled once per
    distinct text in the process).
    """
    if stats is None:
        stats = new_block_stats()
    positions, final_variables = plan_layouts(plan)
    operators: List[Tuple[str, Optional[str]]] = []
    steps: List[Step] = []
    sources: List[Optional[str]] = []
    for source, (variables, layout) in zip(plan.sources, positions):
        literal = source.literal
        slots = {variable: slot for slot, variable in enumerate(variables)}
        text: Optional[str] = None
        if layout is not None:
            step, text = _lower_join(layout, len(variables), stats,
                                     compile_kernel)
        elif isinstance(literal, Atom):
            step = _lower_negation(literal, slots, len(variables))
        elif isinstance(literal, Comparison):
            step = _lower_comparison(literal, slots, symbols)
        elif isinstance(literal, Assignment):
            step = _lower_assignment(literal, slots, symbols)
        else:  # pragma: no cover
            raise TypeError(f"unsupported literal {literal!r}")
        steps.append(step)
        sources.append(text)
        operators.append(
            (_operator_span_name(literal), getattr(literal, "relation", None))
        )
    last = positions[-1][1] if positions else None
    project = None if last is not None and last.final else _lower_projection(
        plan.head_terms, final_variables, symbols
    )
    return BlockKernel(plan.rule_name, operators, steps, sources, project,
                       tracer, governor, stats)


class VectorizedSubqueryEvaluator:
    """Batch (block-at-a-time) evaluation of a :class:`JoinPlan`.

    Produces exactly the same result set as the pushdown evaluator — the
    differential property suite holds it to bit-for-bit equality — but
    processes the whole intermediate result per body position instead of
    recursing per tuple.  Evaluation is "lower, then run": kernels are
    memoised per live plan object, so a plan that is evaluated every
    iteration is analysed once.  ``stats`` counts evaluated batches, how
    each positive atom got its rows and the candidates per head row (see
    :func:`new_block_stats`; folded into the runtime profile by the
    executor).
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

    def lower(self, plan: JoinPlan,
              compile_kernel: KernelCompiler = _compile_kernel) -> BlockKernel:
        """A kernel for ``plan`` wired to this evaluator's tracer, governor
        and counters (what a JIT backend stitches its artifacts from)."""
        return lower_plan(plan, self.symbols, self.tracer, self.governor,
                          self.stats, compile_kernel)

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

    ``executor`` selects between the vectorized batch executor (the
    default) and the pushdown recursion (the oracle).
    :meth:`each_binding` always runs the pushdown recursion — aggregation
    grouping needs complete per-tuple bindings, which a batch pipeline does
    not materialise; everything else, DRed's over-deletion and
    re-derivation included, goes through :meth:`evaluate`.  :meth:`lower`
    hands out block kernels whatever the executor, which is how compiled
    artifacts share this evaluator's tracer, governor and batch counters.
    """

    def __init__(self, storage: StorageManager, executor: str = "vectorized",
                 tracer=NOOP_TRACER, governor=NOOP_GOVERNOR) -> None:
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.storage = storage
        self.executor = executor
        #: Cooperative cancellation: checked once per sub-query plan, the
        #: finest granularity at which storage is consistent (a plan either
        #: fully evaluates or contributes nothing).
        self.governor = governor
        self._push = PushSubqueryEvaluator(storage)
        self._blocks = VectorizedSubqueryEvaluator(
            storage, tracer=tracer, governor=governor
        )

    def evaluate(self, plan: JoinPlan) -> Set[Row]:
        if self.executor == "vectorized":
            return self._blocks.evaluate(plan)  # kernels check the governor
        if self.governor.active:
            self.governor.check()
        return self._push.evaluate(plan)

    def lower(self, plan: JoinPlan,
              compile_kernel: KernelCompiler = _compile_kernel) -> BlockKernel:
        """Stage ``plan`` as a block kernel (see :func:`lower_plan`)."""
        return self._blocks.lower(plan, compile_kernel)

    @property
    def vectorized_stats(self) -> Dict[str, int]:
        """Batch/strategy counters of every kernel this evaluator lowered."""
        return self._blocks.stats

    def each_binding(self, plan: JoinPlan,
                     emit: Callable[[Bindings], None]) -> None:
        """Push every complete binding into ``emit`` (always tuple at a
        time; used for aggregation)."""
        self._push.each_binding(plan, emit)


def evaluate_subquery(storage: StorageManager, plan: JoinPlan,
                      executor: str = "vectorized") -> Set[Row]:
    """One-shot convenience wrapper used by tests and the interpreter."""
    return SubqueryEvaluator(storage, executor=executor).evaluate(plan)
