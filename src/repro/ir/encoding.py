"""Compile-time constant encoding: rewrite plans into the symbol-id domain.

With dictionary-encoded storage (:mod:`repro.relational.symbols`) every
stored row is a tuple of dense integer ids.  For the evaluators and the
JIT/AOT code generators to run **without any per-tuple translation**, the
constants inside rules must live in the same domain: a constant equality
check, index probe or negation membership test then compares int against
int, exactly like a join.

:func:`encode_plan` rewrites one :class:`~repro.relational.operators.JoinPlan`
— atoms, comparisons, assignments and head terms alike — replacing every
:class:`~repro.datalog.terms.Constant` with an :class:`EncodedConstant`
whose ``value`` is the interned id and whose ``raw`` keeps the original for
printing.  The rule AST itself is never touched (it is shared with the
caller); only the physical plans change.  :func:`encode_tree` applies the
rewrite to every σπ⋈/aggregate leaf of an IROp tree, once, right after
lowering — join-order re-optimization only permutes a plan's sources, so
encoded constants survive every later rewrite.

Built-in literals evaluate in the *raw* domain (ordering comparisons and
arithmetic are meaningless on ids); their evaluators resolve encoded
constants and variable bindings through the symbol table — one C-level list
subscript per operand — and re-intern computed results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.datalog.literals import Assignment, Atom, Comparison, Literal
from repro.datalog.terms import BinaryExpression, Constant, Term
from repro.ir.ops import AggregateOp, IROp, JoinProjectOp, walk
from repro.relational.operators import AtomSource, JoinPlan


@dataclass(frozen=True)
class EncodedConstant(Constant):
    """A constant already translated into the symbol-id domain.

    ``value`` holds the interned id (what evaluation compares against
    stored rows); ``raw`` keeps the source-level value so plan printing and
    ``explain()`` stay readable.  It *is* a :class:`Constant`, so every
    matcher, planner and code generator treats it like one.
    """

    raw: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return repr(self.raw)


def encode_term(term: Term, symbols) -> Term:
    """The symbol-domain counterpart of ``term`` (idempotent)."""
    if isinstance(term, EncodedConstant):
        return term
    if isinstance(term, Constant):
        return EncodedConstant(symbols.intern(term.value), raw=term.value)
    if isinstance(term, BinaryExpression):
        return BinaryExpression(
            term.op, encode_term(term.left, symbols), encode_term(term.right, symbols)
        )
    # Variables and aggregates (whose target is a variable) carry no constant.
    return term


def encode_literal(literal: Literal, symbols) -> Literal:
    if isinstance(literal, Atom):
        return Atom(
            literal.relation,
            tuple(encode_term(term, symbols) for term in literal.terms),
            negated=literal.negated,
        )
    if isinstance(literal, Comparison):
        return Comparison(
            literal.op,
            encode_term(literal.left, symbols),
            encode_term(literal.right, symbols),
        )
    if isinstance(literal, Assignment):
        return Assignment(literal.target, encode_term(literal.expression, symbols))
    raise TypeError(f"cannot encode literal {literal!r}")  # pragma: no cover


def encode_plan(plan: JoinPlan, symbols) -> JoinPlan:
    """``plan`` with every constant interned (the plan object is not mutated)."""
    if symbols.identity:
        return plan
    return JoinPlan(
        head_relation=plan.head_relation,
        head_terms=tuple(encode_term(term, symbols) for term in plan.head_terms),
        sources=tuple(
            AtomSource(encode_literal(source.literal, symbols), source.kind)
            for source in plan.sources
        ),
        rule_name=plan.rule_name,
    )


def encode_tree(tree: IROp, symbols) -> IROp:
    """Encode every plan-bearing leaf of an IROp tree, in place."""
    if symbols.identity:
        return tree
    for node in walk(tree):
        if isinstance(node, (JoinProjectOp, AggregateOp)):
            node.plan = encode_plan(node.plan, symbols)
        if isinstance(node, AggregateOp):
            node.head_terms = tuple(
                encode_term(term, symbols) for term in node.head_terms
            )
    return tree
