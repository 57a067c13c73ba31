"""Quickstart: the embedded-database API over a recursive Datalog program.

Builds the classic graph-reachability query with the embedded DSL, opens a
:class:`repro.Database` over it, and shows the whole public surface in one
sitting: one-shot queries, stateful connections with incremental updates,
``QueryResult`` pagination/exports, ``.explain()``, and the fact that every
execution strategy (interpreted, JIT, AOT) returns
bit-for-bit identical rows through the same API.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Database, EngineConfig, Program
from repro.workloads import random_edges


def build_reachability() -> Program:
    """path(x, y) := edge+(x, y) over a small random graph."""
    program = Program("reachability")
    edge = program.relation("edge", columns=("src", "dst"))
    path = program.relation("path", columns=("src", "dst"))
    x, y, z = program.variables("x", "y", "z")

    path(x, y) <= edge(x, y)
    path(x, z) <= path(x, y) & edge(y, z)

    edge.add_facts(random_edges(nodes=60, edges=180, seed=11))
    return program


def main() -> None:
    configurations = [
        ("interpreted", EngineConfig.interpreted()),
        ("JIT / lambda backend", EngineConfig.jit("lambda")),
        ("JIT / quotes backend (runtime codegen)", EngineConfig.jit("quotes")),
        ("ahead-of-time + online reordering", EngineConfig.aot(online=True)),
    ]

    # -- one-shot queries: same rows through every execution subsystem --------
    reference = None
    for label, config in configurations:
        db = Database(build_reachability(), config)
        result = db.query("path")
        if reference is None:
            reference = result.to_frozenset()
        agreement = "matches interpreter" if result == reference else "MISMATCH"
        print(f"{label:42s} |path| = {result.count():5d}  [{agreement}]")

    # -- a stateful connection: mutate facts, read QueryResult snapshots ------
    db = Database(build_reachability(), EngineConfig.jit("lambda"))
    with db.connect() as conn:
        before = conn.query("path")
        report = conn.insert_facts("edge", [(1000, 1001), (1001, 1002)])
        after = conn.query("path")
        print(f"\nincremental insert: +{report.inserted} facts propagated "
              f"{report.propagated} derived rows in {report.seconds * 1000:.2f} ms "
              f"({before.count()} -> {after.count()} path tuples)")

        # QueryResult: deterministic order, pagination, columnar export.
        print(f"first rows: {after.take(3)}")
        print(f"page 2 (offset=3, limit=3): {list(after.rows(offset=3, limit=3))}")
        print(f"columns {after.columns}: "
              f"{ {k: v[:3] for k, v in after.to_columns().items()} }")
        print(f"as dicts: {after.to_dicts()[:2]}")

        print("\nexplain:")
        print(after.explain())

    print()
    print("Every strategy computes the same fixpoint; they differ only in how")
    print("join orders are chosen and whether sub-queries are compiled at runtime.")


if __name__ == "__main__":
    main()
