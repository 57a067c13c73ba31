"""Acceptance property: every path into the engine agrees, every mode.

For randomized fact bases and insert batches, one round trip through a
connection — ``Database(...).connect()`` → ``insert_facts`` →
``query("path")`` — must return a :class:`QueryResult` whose ``rows()`` /
``count()`` / ``explain()`` agree bit-for-bit with a hand-driven
``IncrementalSession`` and with a one-shot evaluation of the DSL program
over the final fact base, for interpreted, JIT and AOT configurations
alike.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, EngineConfig, Program
from repro.analyses.micro import build_transitive_closure_program
from repro.incremental import IncrementalSession


def build_tc_dsl(edges) -> Program:
    """The same transitive closure, written through the embedded DSL."""
    program = Program("tc")
    edge, path = program.relations("edge", "path", arity=2)
    x, y, z = program.variables("x", "y", "z")
    path(x, y) <= edge(x, y)
    path(x, z) <= path(x, y) & edge(y, z)
    edge.add_facts(edges)
    return program

MODE_CONFIGS = [
    EngineConfig.interpreted().with_(executor="pushdown"),
    EngineConfig.interpreted(),
    EngineConfig.jit("lambda"),
    EngineConfig.jit("bytecode"),
    EngineConfig.jit("quotes", asynchronous=True),
    EngineConfig.aot(),
    EngineConfig.interpreted().with_(interning=False),
]

edges_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)),
    min_size=1,
    max_size=14,
)
batch_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9)),
    max_size=6,
)


@pytest.mark.parametrize("config", MODE_CONFIGS, ids=lambda c: c.describe())
@settings(max_examples=5, deadline=None)
@given(edges=edges_strategy, batch=batch_strategy)
def test_database_roundtrip_matches_session_and_one_shot(config, edges, batch):
    edges = sorted(set(edges))
    batch = sorted(set(batch))

    # -- the new surface: Database -> connect -> insert_facts -> query --------
    db = Database(build_transitive_closure_program(edges), config)
    with db.connect() as conn:
        if batch:
            conn.insert_facts("edge", batch)
        result = conn.query("path")

    # -- path 2: an IncrementalSession driven by hand --------------------------
    session = IncrementalSession(build_transitive_closure_program(edges), config)
    if batch:
        session.insert_facts("edge", batch)
    session_rows = session.fetch("path")

    # -- path 3: the DSL program evaluated once over the full fact base --------
    final_edges = sorted(set(edges) | set(batch))
    one_shot_rows = build_tc_dsl(final_edges).database(config).query("path").to_set()

    # bit-for-bit agreement across all three paths
    assert result.to_set() == set(session_rows) == one_shot_rows

    # QueryResult invariants: count/rows/take agree with the row set and with
    # the canonical deterministic order.
    assert result.count() == len(one_shot_rows)
    ordered = list(result.rows())
    assert ordered == sorted(one_shot_rows)
    assert list(result) == ordered
    assert result.take(3) == ordered[:3]

    # explain() names the configuration that actually ran.
    assert config.describe() in result.explain()
