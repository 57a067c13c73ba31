"""The pinned production configuration, scales and rates of the ledger.

Everything a later change could be tempted to tune lives here, in one
file, so "measured with identical benchmark settings" is checkable by
diffing it.  Nothing in this module reads the clock or the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import EngineConfig

#: The configuration under test everywhere except ``batch_adaptive``:
#: vectorized executor over dictionary-encoded storage (interning is the
#: EngineConfig default), interpreted plans in the as-built atom order.
PRODUCTION = EngineConfig().with_(executor="vectorized")

#: ``batch_adaptive`` only — the paper's adaptive JIT: blocking lambda
#: backend at rule granularity, over programs built in the WORST order.
ADAPTIVE = EngineConfig.jit("lambda")

#: Fixes the *structure* of every generated input (graph shape, fact-base
#: shape, update stream).  ``--seed`` only relabels constants and shuffles
#: fact order on top of it (see inputs.py for why); expected.json holds the
#: oracle digests for this value.
STRUCTURE_SEED = 2024

#: Rows per page read (offset random, limit fixed).
PAGE_LIMIT = 32

#: Closed-loop client connections on serve_read (nproc = 2: one core for
#: the server child, one for this load generator).
READ_CONNECTIONS = 2

#: serve_read phase shares of ``--seconds``: page reads, full reads,
#: governed page reads.
READ_PHASES = (("page", 0.4), ("full", 0.4), ("governed", 0.2))

#: Deadline attached to governed reads; far above any page latency, so the
#: governed path (off-loop reader pool + disconnect watcher) is measured,
#: never the deadline.
GOVERNED_DEADLINE_MS = 5000

#: serve_churn open-loop rates.  A fact feed does not wait for the server:
#: batch k is due at k / WRITE_RATE and timed from then.
WRITE_RATE = 5.0        # mutation batches per second
READ_RATE = 100.0       # page reads per second
BATCH_EDGES = 8         # rows per mutation batch

#: Hard wall-clock cap of one workload child, as a multiple of ``--seconds``
#: plus a constant for set-up; past it the runner kills the child's process
#: group and reports every operation as failed.
CAP_FACTOR, CAP_CONSTANT = 3.0, 90.0


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the benchmark; ``SMOKE`` only proves the
    plumbing (every metric appears, every oracle check runs) in seconds."""

    tc_nodes: int
    tc_edges: int
    cspa_tuples: int
    csda_tuples: int
    andersen_list: int
    andersen_pipelines: int
    #: WAL records between checkpoints on serve_churn; sized so at least
    #: two checkpoints complete inside the measured phase.
    checkpoint_every_records: int
    #: Lower bound on cold rounds per batch workload, whatever ``--seconds``.
    min_rounds: int
    #: How many times set-up is repeated per run (the median is ``setup_s``).
    setup_repeats: int


#: cspa_tuples is pinned, not a range: at structure seed 2024 the VAlias
#: output is chaotic in the input size (600 -> 18k rows, 605 -> 30k,
#: 615 -> 41k, 640 -> 65k); 605 gives a 0.4 s cold run and a 1.9 s
#: worst-order adaptive run.
FULL = Scale(
    tc_nodes=12_000, tc_edges=10_000, cspa_tuples=605, csda_tuples=8_000,
    andersen_list=120, andersen_pipelines=60,
    checkpoint_every_records=40, min_rounds=3, setup_repeats=3,
)

SMOKE = Scale(
    tc_nodes=240, tc_edges=200, cspa_tuples=60, csda_tuples=200,
    andersen_list=8, andersen_pipelines=2,
    checkpoint_every_records=4, min_rounds=2, setup_repeats=1,
)
