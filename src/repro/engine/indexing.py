"""Automatic index selection and maintenance (paper §IV).

As each rule is defined, Carac knows which columns participate in joins
(shared variables) or filters (constants), and builds one index per such
column so the index can be maintained incrementally before execution begins.
This module computes that set of (relation, column) pairs from a program,
and — for the incremental subsystem, where rows are also *removed* — provides
the retraction-side maintenance helpers: hash indexes are updated in place on
:meth:`~repro.relational.relation.Relation.discard`, and
:func:`verify_indexes` audits that every index still mirrors its relation
exactly (used by session integrity checks and the retraction tests).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.datalog.literals import Atom
from repro.datalog.program import DatalogProgram
from repro.datalog.terms import Constant, Variable
from repro.relational.storage import DatabaseKind, StorageManager


def select_indexes(program: DatalogProgram) -> Set[Tuple[str, int]]:
    """The (relation, column) pairs that should carry a hash index.

    A column is indexed when, in any rule body, it holds a constant (filter
    predicate) or a variable that also occurs in *another* body atom of the
    same rule (join predicate).  Negated atoms participate too: their
    membership probes benefit from bound columns the same way.
    """
    indexes: Set[Tuple[str, int]] = set()
    for rule in program.rules:
        atoms = list(rule.body_atoms())
        occurrences: Dict[Variable, int] = {}
        for atom in atoms:
            for variable in atom.variables():
                occurrences[variable] = occurrences.get(variable, 0) + 1
        for atom in atoms:
            for column, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    indexes.add((atom.relation, column))
                elif isinstance(term, Variable):
                    appears_elsewhere = any(
                        term in other.variables() for other in atoms if other is not atom
                    )
                    if appears_elsewhere:
                        indexes.add((atom.relation, column))
    return indexes


def select_retraction_indexes(program: DatalogProgram) -> Set[Tuple[str, int]]:
    """Extra (relation, column) indexes that make DRed re-derivation cheap.

    Re-derivation joins the rows pending for a rule's *head* against the
    rule's body, so body-atom columns holding head variables become join
    keys — columns the forward-evaluation policy of :func:`select_indexes`
    never indexes (a head variable need not occur in two body atoms).
    Without these indexes the join driven from a few hundred pending rows
    degenerates into a table build (or, tuple at a time, a scan) over the
    body's relations, and a retraction batch can cost more than the
    recompute it is meant to avoid.
    """
    indexes: Set[Tuple[str, int]] = set()
    for rule in program.rules:
        head_variables = {
            term for term in rule.head.terms if isinstance(term, Variable)
        }
        for atom in rule.positive_atoms():
            for column, term in enumerate(atom.terms):
                if isinstance(term, Variable) and term in head_variables:
                    indexes.add((atom.relation, column))
    return indexes


def verify_indexes(storage: StorageManager) -> List[str]:
    """Audit every registered index against its relation's row set.

    Returns a list of human-readable inconsistency descriptions (empty when
    everything is consistent).  Insertion keeps indexes valid by construction;
    retraction removes rows from index buckets in place, and this check is the
    cheap way for tests and the incremental session to prove no bucket leaked
    a retracted row or lost a surviving one.
    """
    problems: List[str] = []
    for name in storage.relation_names():
        for kind in DatabaseKind:
            relation = storage.relation(name, kind)
            rows = relation.rows()
            for column in relation.indexed_columns():
                index = relation.build_index(column)  # fetches the existing index
                if len(index) != len(rows):
                    problems.append(
                        f"{relation.name}[{column}]: index holds {len(index)} rows, "
                        f"relation holds {len(rows)}"
                    )
                missing = [row for row in rows if row not in index.lookup(row[column])]
                if missing:
                    problems.append(
                        f"{relation.name}[{column}]: {len(missing)} rows missing "
                        f"from index (e.g. {missing[0]!r})"
                    )
    return problems


def rebuild_indexes(storage: StorageManager, relation: str) -> None:
    """Drop and rebuild every index of one relation from its current rows.

    The recovery path when an index audit fails: retraction-heavy sessions can
    call this instead of tearing down the whole session.  Registered columns
    are preserved.
    """
    columns = storage.registered_indexes(relation)
    for kind in DatabaseKind:
        rel = storage.relation(relation, kind)
        rel.drop_indexes()
        for column in columns:
            rel.build_index(column)
