"""Durability: warm restart vs. cold re-evaluation, and the WAL tax.

Not a paper figure — this benchmarks the repository's durability subsystem
(:mod:`repro.durability`) and enforces its headline guarantee:
``test_warm_restart_speedup_at_10k_edges`` requires that reopening a
cleanly-closed durability directory (checkpoint install, zero replay) on
the 10k-edge transitive closure reaches its first ``path`` query at least
**10× faster** than evaluating the same program cold.

``test_ground_facts_parse_in_bulk`` gates the other half of a restart:
reading the served program's text.  On the 10k-edge source (two rules and
the facts) ``parse_program`` must be at least **5× faster** than the same
text pushed clause by clause through the grammar, with equal results — a
ratio inside one process, so a slow host moves both sides.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_durability.py
"""

import timeit

from repro.analyses.micro import build_transitive_closure_program
from repro.api.database import Database
from repro.bench.durability import run_durability, tc_source
from repro.datalog.parser import _parse_clause_by_clause, parse_program
from repro.durability import DurabilityConfig
from repro.workloads.graphs import random_edges

NODES_10K = 12_000
EDGES_10K = 10_000


def test_wal_append_latency(benchmark, tmp_path):
    """Per-batch durable apply latency under the server's default policy."""
    edges = random_edges(NODES_10K, EDGES_10K, seed=2024)
    database = Database(
        build_transitive_closure_program(edges),
        durability=DurabilityConfig(dir=str(tmp_path / "dur"), fsync="batch"),
    )
    conn = database.connect()
    conn.query("path").count()
    fresh = iter([(50_000_000 + i, 50_000_001 + i) for i in range(10_000)])

    def one_batch():
        conn.apply(inserts={"edge": [next(fresh) for _ in range(10)]})

    benchmark.pedantic(one_batch, rounds=3, iterations=1)
    database.close()


def test_checkpoint_write_latency(benchmark, tmp_path):
    """One explicit full-state checkpoint of the 10k-edge closure."""
    edges = random_edges(NODES_10K, EDGES_10K, seed=2024)
    database = Database(
        build_transitive_closure_program(edges),
        durability=DurabilityConfig(dir=str(tmp_path / "dur"), fsync="batch"),
    )
    conn = database.connect()
    conn.query("path").count()

    benchmark.pedantic(conn.checkpoint, rounds=3, iterations=1)
    database.close()


def test_warm_restart_speedup_at_10k_edges():
    """Acceptance: restart-to-first-query ≥ 10× faster than cold."""
    rows = run_durability(repeat=2, policies=("batch",))
    row = rows[0]
    assert row["workload"] == "tc_10k"
    assert row["restart_speedup"] >= 10.0, (
        f"warm restart only {row['restart_speedup']:.1f}x faster than cold "
        f"({row['warm_seconds']:.4f}s vs {row['cold_seconds']:.4f}s)"
    )


def test_ground_facts_parse_in_bulk():
    """Acceptance: ground facts cost a regex match, not a grammar descent."""
    source = tc_source(random_edges(NODES_10K, EDGES_10K, seed=2024))

    def best(parse):
        return min(timeit.repeat(lambda: parse(source), number=1, repeat=5))

    grammar_seconds, bulk_seconds = best(_parse_clause_by_clause), best(parse_program)
    by_grammar, in_bulk = _parse_clause_by_clause(source), parse_program(source)
    assert in_bulk.facts == by_grammar.facts and len(in_bulk.facts) == EDGES_10K
    assert in_bulk.rules == by_grammar.rules
    assert in_bulk.relations == by_grammar.relations
    assert grammar_seconds >= 5.0 * bulk_seconds, (
        f"bulk facts only {grammar_seconds / bulk_seconds:.1f}x faster than the "
        f"clause grammar ({bulk_seconds * 1e3:.1f} ms vs {grammar_seconds * 1e3:.1f} ms)"
    )


def test_recovery_replays_only_the_wal_tail(tmp_path):
    """A dirty restart (no clean close) replays exactly the un-checkpointed
    records — recovery work is proportional to the tail, not the history."""
    directory = str(tmp_path / "dur")
    edges = random_edges(NODES_10K, EDGES_10K, seed=2024)
    program_edges = list(edges)

    database = Database(
        build_transitive_closure_program(program_edges),
        durability=DurabilityConfig(dir=directory, checkpoint_on_close=False),
    )
    conn = database.connect()
    conn.query("path").count()
    conn.checkpoint()  # cover the initial fixpoint
    for index in range(5):
        conn.apply(inserts={"edge": [(60_000_000 + index, 60_000_001 + index)]})
    database.close()  # checkpoint_on_close=False: the 5 records stay WAL-only

    database = Database(
        build_transitive_closure_program(program_edges),
        durability=DurabilityConfig(dir=directory),
    )
    conn = database.connect()
    report = conn.durability.last_recovery
    assert report.warm
    assert report.replayed_records == 5
    assert (60_000_004, 60_000_005) in conn.query("edge")
    database.close()
