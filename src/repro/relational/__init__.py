"""The physical relational layer (paper §V-D).

Carac's execution layer sits on a pluggable "relational layer" that stores
input and intermediate relations, maintains the Derived / Delta-Known /
Delta-New databases, and provides the primitive relational operators the
generated sub-queries are built from: select, project, join, union, plus the
relation-management operations swap, clear and diff.

This package is that layer for the reproduction.  Everything above it (IR,
JIT, backends) manipulates relations only through these classes.
"""

from repro.relational.relation import HashIndex, Relation
from repro.relational.storage import DatabaseKind, StorageManager
from repro.relational.operators import (
    AtomSource,
    JoinPlan,
    PushSubqueryEvaluator,
    SubqueryEvaluator,
    VectorizedSubqueryEvaluator,
    evaluate_subquery,
)
from repro.relational.statistics import (
    CardinalitySnapshot,
    SelectivityModel,
    StatisticsCollector,
)

__all__ = [
    "AtomSource",
    "CardinalitySnapshot",
    "DatabaseKind",
    "HashIndex",
    "JoinPlan",
    "PushSubqueryEvaluator",
    "Relation",
    "SelectivityModel",
    "StatisticsCollector",
    "StorageManager",
    "SubqueryEvaluator",
    "VectorizedSubqueryEvaluator",
    "evaluate_subquery",
]
