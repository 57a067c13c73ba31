"""Hash-partitioning policy: which relations shard, on which column.

The shard-parallel evaluator splits a recursive stratum's data across N
shards.  Two placement decisions are made per relation, both from the schema
and the rule structure alone (never from the data):

* **Partitioned** relations are split by a hash of one column; every row
  lives on exactly one owning shard.  The stratum's own (IDB) relations are
  always partitioned — they are what the workers write.
* **Replicated** relations are copied to every shard.  Support relations —
  everything a loop plan reads but the stratum does not define, i.e. EDB
  relations and lower-strata results — are replicated so that shard-local
  joins always see a complete copy of their non-delta inputs.  (A future
  refinement may partition large support relations whose reads are provably
  owner-aligned; the policy object already records why each relation was
  replicated.)

The partition *column* is chosen by pivot alignment (generalised pivoting in
the parallel-Datalog literature): a column assignment is *aligned* when, in
every loop rule, the head and every same-stratum body atom carry the **same
variable** at their relation's partition column.  Under an aligned
assignment a shard-local semi-naive iteration is self-contained — every row
a delta row can join with, and every row it can derive, lives on the same
shard — so shards run whole fixpoints without exchanging a single tuple.
When no aligned assignment exists the evaluator falls back to the
*replicated* strategy (every shard mirrors the stratum relations, only the
delta is partitioned) where the exchange step does real work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.datalog.literals import Atom
from repro.datalog.terms import Variable
from repro.relational.operators import JoinPlan
from repro.relational.relation import Row

#: Safety cap on the column-assignment search (product of arities).  Strata
#: large enough to exceed it simply use the replicated fallback strategy.
MAX_ALIGNMENT_SEARCH = 4096


def stable_hash(value: Any) -> int:
    """A deterministic, process-independent hash for partitioning.

    Two requirements pull in different directions.  Partitioning hashes must
    *refine equality* — values that compare equal must land on the same
    shard, or an aligned shard-local join silently misses matches (so
    ``True``, ``1`` and ``1.0`` must all hash alike, exactly why CPython
    guarantees ``hash(True) == hash(1) == hash(1.0)``).  But ``hash()`` is
    salted per interpreter for str/bytes, so sibling worker processes
    started without fork (and reruns of the same program) would disagree on
    string ownership.  Hence: numbers use the builtin hash (unsalted,
    equality-consistent across int/bool/float); str/bytes use CRC-32 of
    their encoding; anything else falls back to CRC-32 of ``repr``, which
    is stable across runs.
    """
    if isinstance(value, (int, float, complex)):  # bool is an int subclass
        return hash(value)
    import zlib

    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8", "surrogatepass"))
    if isinstance(value, bytes):
        return zlib.crc32(value)
    return zlib.crc32(repr(value).encode("utf-8"))


#: ``stable_hash`` equals the builtin hash on every int, so int-only key
#: columns — all of them, under dictionary encoding — may take
#: :meth:`repro.relational.columnar.ColumnarBlock.partition`'s C-level
#: ``map(hash, ...)`` fast path.
stable_hash.int_compatible = True  # type: ignore[attr-defined]


def shard_of(value: Any, shards: int) -> int:
    """The owning shard of a partition-column value."""
    return stable_hash(value) % shards


#: A zero-arity row has no partition column to hash; one fixed shard owns the
#: (at most one) row of every zero-arity relation.
ZERO_ARITY_OWNER = 0


@dataclass(frozen=True)
class PartitionSpec:
    """The placement decision for every relation touched by one shard run.

    ``columns`` maps each partitioned relation to its partition column;
    ``replicated`` relations are mirrored on every shard.  ``columns`` also
    defines *delta ownership* for the replicated strategy: even when the
    derived database is mirrored, each delta row is processed by exactly one
    shard — the owner of its partition-column value.
    """

    shards: int
    columns: Mapping[str, int]
    replicated: FrozenSet[str] = frozenset()
    aligned: bool = False

    def is_partitioned(self, relation: str) -> bool:
        return relation in self.columns

    def partition_column(self, relation: str) -> int:
        return self.columns[relation]

    def owner(self, relation: str, row: Sequence[Any]) -> int:
        """The shard that owns ``row`` of ``relation``."""
        if not row:
            return ZERO_ARITY_OWNER
        return shard_of(row[self.columns[relation]], self.shards)

    def split(self, relation: str, rows: Iterable[Sequence[Any]]) -> List[List[Row]]:
        """Partition ``rows`` into one bucket per shard, in shard order."""
        column = self.columns[relation]
        shards = self.shards
        buckets: List[List[Row]] = [[] for _ in range(shards)]
        for row in rows:
            owner = shard_of(row[column], shards) if row else ZERO_ARITY_OWNER
            buckets[owner].append(tuple(row))
        return buckets

    def relations(self) -> List[str]:
        return sorted(set(self.columns) | self.replicated)


def _plan_occurrences(
    plan: JoinPlan, stratum_relations: Set[str]
) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
    """(relation, terms) of every same-stratum occurrence in one plan.

    The head counts as an occurrence: a derived row must land on the shard
    that derived it for aligned evaluation to avoid the exchange step.
    Negated atoms never belong to the stratum (stratification forbids it),
    so only positive atoms are inspected.
    """
    occurrences: List[Tuple[str, Tuple[Any, ...]]] = []
    if plan.head_relation in stratum_relations:
        occurrences.append((plan.head_relation, plan.head_terms))
    for source in plan.sources:
        literal = source.literal
        if isinstance(literal, Atom) and not literal.negated:
            if literal.relation in stratum_relations:
                occurrences.append((literal.relation, literal.terms))
    return tuple(occurrences)


def find_aligned_columns(
    plans: Sequence[JoinPlan],
    stratum_relations: Iterable[str],
    arities: Mapping[str, int],
) -> Optional[Dict[str, int]]:
    """Search for a pivot-aligned partition-column assignment.

    Returns ``{relation: column}`` covering every stratum relation that the
    loop plans mention, or None when no assignment is aligned (or the search
    space exceeds :data:`MAX_ALIGNMENT_SEARCH`).  An assignment is aligned
    when every plan's same-stratum occurrences — head included — all carry
    one and the same :class:`Variable` at their partition columns.
    """
    stratum = set(stratum_relations)
    signatures: Set[Tuple[Tuple[str, Tuple[Any, ...]], ...]] = set()
    mentioned: Set[str] = set()
    for plan in plans:
        occurrences = _plan_occurrences(plan, stratum)
        if occurrences:
            signatures.add(occurrences)
            mentioned.update(relation for relation, _ in occurrences)
    if not mentioned:
        return None

    relations = sorted(mentioned)
    search_space = 1
    for relation in relations:
        search_space *= max(1, arities[relation])
        if search_space > MAX_ALIGNMENT_SEARCH:
            return None

    for columns in itertools.product(*(range(arities[r]) for r in relations)):
        assignment = dict(zip(relations, columns))
        if all(_signature_aligned(signature, assignment) for signature in signatures):
            return assignment
    return None


def _signature_aligned(
    signature: Tuple[Tuple[str, Tuple[Any, ...]], ...],
    assignment: Mapping[str, int],
) -> bool:
    pivot: Optional[Variable] = None
    for relation, terms in signature:
        term = terms[assignment[relation]]
        if not isinstance(term, Variable):
            return False
        if pivot is None:
            pivot = term
        elif term != pivot:
            return False
    return True


@dataclass(frozen=True)
class StratumPartitioning:
    """The full placement plan for one recursive stratum.

    ``spec.aligned`` selects the evaluation strategy: aligned strata run
    independent shard-local fixpoints (exchange provably idle); unaligned
    strata run the replicated strategy, where the partitioned delta drives
    work splitting and the exchange step routes each freshly derived tuple
    to its owner.
    """

    spec: PartitionSpec
    support: FrozenSet[str] = frozenset()
    reasons: Mapping[str, str] = field(default_factory=dict)


def plan_stratum_partitioning(
    shards: int,
    plans: Sequence[JoinPlan],
    stratum_relations: Iterable[str],
    arities: Mapping[str, int],
    fact_counts: Optional[Mapping[str, int]] = None,
) -> StratumPartitioning:
    """Build the :class:`StratumPartitioning` for one stratum's loop plans.

    Stratum relations are partitioned — by their aligned pivot columns when
    the alignment search succeeds, by column 0 (delta ownership only)
    otherwise.  Everything else the plans read is replicated; ``reasons``
    records the rationale per relation for diagnostics (``fact_counts``
    lets the diagnostics distinguish small relations, which would be
    replicated under any policy, from large ones replicated for soundness).
    """
    stratum = set(stratum_relations)
    referenced: Set[str] = set()
    for plan in plans:
        referenced.add(plan.head_relation)
        for source in plan.sources:
            literal = source.literal
            if isinstance(literal, Atom):
                referenced.add(literal.relation)

    partitioned = sorted(referenced & stratum)
    support = frozenset(referenced - stratum)

    aligned = find_aligned_columns(plans, stratum, arities)
    if aligned is not None:
        columns = {relation: aligned.get(relation, 0) for relation in partitioned}
    else:
        columns = {relation: 0 for relation in partitioned}

    reasons: Dict[str, str] = {}
    for relation in partitioned:
        if aligned is not None:
            reasons[relation] = f"partitioned on aligned pivot column {columns[relation]}"
        else:
            reasons[relation] = "delta partitioned on column 0 (no aligned pivot)"
    for relation in sorted(support):
        size = (fact_counts or {}).get(relation)
        if size is not None and size <= SMALL_RELATION_ROWS:
            reasons[relation] = f"replicated (small: {size} rows)"
        else:
            reasons[relation] = "replicated (support relation read by loop plans)"

    spec = PartitionSpec(
        shards=shards,
        columns=columns,
        replicated=support,
        aligned=aligned is not None,
    )
    return StratumPartitioning(spec=spec, support=support, reasons=reasons)


#: Relations at or below this many rows are annotated as "small" in the
#: placement diagnostics; replication is the obviously right call for them.
SMALL_RELATION_ROWS = 64
