"""The exchange step: routing derived tuples to owners, detecting fixpoint.

After each shard-local semi-naive round the freshly derived tuples must
reach the shard that owns them.  :class:`ExchangeRouter` makes the ownership
decision (it is a thin, picklable wrapper over the
:class:`~repro.parallel.partition.PartitionSpec` hash); the evaluator moves
the routed batches between workers, so the same router serves the serial,
thread-pool and forked-process pools.

Global termination uses a **two-phase all-shards-quiescent check**
(:class:`QuiescenceTracker`).  A shard reporting "no new local facts" is not
enough to stop: tuples exchanged in the very round that looked quiescent can
seed new work on their owning shard.  A round therefore ends the fixpoint
only when

* *phase one*: every shard finished its round without accepting any locally
  derived fact, **and**
* *phase two*: the exchange delivered no tuple that its owner accepted as
  new.

Both phases read counters collected at the round barrier, so the check is
exact rather than heuristic — there is no in-flight traffic once the
barrier has been crossed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.parallel.partition import ZERO_ARITY_OWNER, PartitionSpec, shard_of
from repro.relational.relation import Row

#: owner shard -> relation -> rows destined for that owner.
Outboxes = Dict[int, Dict[str, List[Row]]]


class ExchangeRouter:
    """Routes produced rows to their owning shards."""

    def __init__(self, spec: PartitionSpec) -> None:
        self.spec = spec

    def owner(self, relation: str, row: Sequence[Any]) -> int:
        return self.spec.owner(relation, row)

    def route(
        self,
        relation: str,
        rows: Iterable[Sequence[Any]],
        local_shard: int,
    ) -> Tuple[List[Row], Outboxes]:
        """Split ``rows`` into locally owned rows and per-owner outboxes."""
        local: List[Row] = []
        outboxes: Outboxes = {}
        column = self.spec.partition_column(relation)
        shards = self.spec.shards
        for row in rows:
            row = tuple(row)
            owner = shard_of(row[column], shards) if row else ZERO_ARITY_OWNER
            if owner == local_shard:
                local.append(row)
            else:
                outboxes.setdefault(owner, {}).setdefault(relation, []).append(row)
        return local, outboxes


def merge_outboxes(per_shard: Sequence[Outboxes], shards: int) -> List[Dict[str, List[Row]]]:
    """Regroup every worker's outboxes into one inbox per destination shard."""
    inboxes: List[Dict[str, List[Row]]] = [{} for _ in range(shards)]
    for outboxes in per_shard:
        for owner, batches in outboxes.items():
            inbox = inboxes[owner]
            for relation, rows in batches.items():
                inbox.setdefault(relation, []).extend(rows)
    return inboxes


@dataclass
class RoundStats:
    """What one exchange round did, summed over all shards."""

    round_index: int
    accepted_local: int = 0     # locally derived rows accepted into deltas
    exchanged: int = 0          # rows shipped between shards
    accepted_delivered: int = 0  # delivered rows accepted as new by owners
    promoted: int = 0           # rows promoted into Derived at round end


@dataclass
class QuiescenceTracker:
    """The two-phase global-fixpoint decision over per-round counters."""

    rounds: List[RoundStats] = field(default_factory=list)

    def begin_round(self) -> RoundStats:
        stats = RoundStats(round_index=len(self.rounds) + 1)
        self.rounds.append(stats)
        return stats

    def locally_quiescent(self, stats: RoundStats) -> bool:
        """Phase one: no shard accepted a locally derived fact this round."""
        return stats.accepted_local == 0

    def exchange_quiescent(self, stats: RoundStats) -> bool:
        """Phase two: no exchanged tuple was accepted as new by its owner."""
        return stats.accepted_delivered == 0

    def global_fixpoint(self, stats: RoundStats) -> bool:
        """Both phases quiescent — nothing promoted anywhere, stop the loop."""
        return (
            self.locally_quiescent(stats)
            and self.exchange_quiescent(stats)
            and stats.promoted == 0
        )

    # -- summaries ---------------------------------------------------------------

    def total_exchanged(self) -> int:
        return sum(stats.exchanged for stats in self.rounds)

    def total_promoted(self) -> int:
        return sum(stats.promoted for stats in self.rounds)

    def round_count(self) -> int:
        return len(self.rounds)
