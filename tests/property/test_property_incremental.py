"""Property tests: incremental sessions equal from-scratch evaluation.

The incremental subsystem's contract is exact equivalence: after *any*
sequence of insert/retract batches, an :class:`IncrementalSession` holds the
same fixpoint a fresh :class:`ExecutionEngine` computes over the surviving
base facts — in every execution mode.  Randomized update sequences are
replayed over two workloads with very different shapes: transitive closure
(single recursive relation, deep derivation chains) and Andersen's points-to
analysis (multiple mutually recursive relations, 3-way joins) — and, for the
set-at-a-time re-derivation of retractions, over the positive rule shapes of
the block-kernel suite (head constants, repeated variables, comparisons,
symbol-allocating assignments, a key-only body atom).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses.andersen import build_andersen_program
from repro.analyses.micro import build_transitive_closure_program
from repro.core.config import EngineConfig
from repro.engine.engine import ExecutionEngine
from repro.incremental import IncrementalSession
from repro.workloads.datasets import get_dataset
from repro.workloads.streaming import edge_update_stream
from test_property_vectorized import build_random_program

#: The block-kernel suite's shapes DRed maintains (no negation: those
#: programs take the recompute path and never re-derive anything).
DRED_SHAPES = ("filtered", "loop_filtered", "allocating", "semi_join",
               "repeated", "constants")

ALL_MODE_CONFIGS = [
    EngineConfig.interpreted(),
    EngineConfig.naive(),
    EngineConfig.jit("lambda"),
    EngineConfig.aot(),
]

edges_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)),
    min_size=1,
    max_size=16,
)
mutations_strategy = st.lists(
    st.tuples(
        st.booleans(),  # True = retract (when possible), False = insert
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=12,
)


def scratch_results(program, config, query):
    return ExecutionEngine(program, config).evaluate()[query]


@pytest.mark.parametrize("config", ALL_MODE_CONFIGS, ids=lambda c: c.describe())
@settings(max_examples=10, deadline=None)
@given(edges=edges_strategy, mutations=mutations_strategy)
def test_tc_random_update_sequences_match_scratch(config, edges, mutations):
    edges = [e for e in edges if e[0] != e[1]] or [(0, 1)]
    session = IncrementalSession(build_transitive_closure_program(edges), config)
    live = set(edges)
    for retract, a, b in mutations:
        if retract and live:
            victim = sorted(live)[(a * 8 + b) % len(live)]
            session.retract_facts("edge", [victim])
            live.discard(victim)
        elif a != b:
            session.insert_facts("edge", [(a, b)])
            live.add((a, b))
        else:
            continue
        expected = scratch_results(
            build_transitive_closure_program(sorted(live)), config, "path"
        )
        assert set(session.fetch("path")) == set(expected)


@pytest.mark.parametrize("config", ALL_MODE_CONFIGS, ids=lambda c: c.describe())
def test_andersen_update_sequences_match_scratch(config):
    dataset = get_dataset("slistlib")
    session = IncrementalSession(build_andersen_program(dataset), config)
    rng = random.Random(2024)
    symbols = session.storage.symbols
    live = {
        name: set(symbols.resolve_rows(session.storage.base_rows(name)))
        for name in ("assign", "load", "store", "addressOf")
    }
    for step in range(8):
        name = rng.choice(sorted(live))
        if live[name] and rng.random() < 0.5:
            victim = rng.choice(sorted(live[name]))
            session.retract_facts(name, [victim])
            live[name].discard(victim)
        else:
            row = (f"synth_{step}", rng.choice(sorted(live["assign"] or {("a", "b")}))[0])
            session.insert_facts(name, [row])
            live[name].add(row)
        session.self_check()


@pytest.mark.parametrize("config", ALL_MODE_CONFIGS, ids=lambda c: c.describe())
def test_streamed_batches_match_scratch(config):
    """Replay a generator-produced mixed stream batch-by-batch."""
    stream = edge_update_stream(
        nodes=10, initial_edges=15, batches=6, batch_size=4,
        retract_fraction=0.4, seed=7,
    )
    session = IncrementalSession(
        build_transitive_closure_program(stream.initial["edge"]), config
    )
    for batch in stream:
        session.apply(inserts=batch.inserts, retracts=batch.retracts)
        session.self_check()


@pytest.mark.parametrize("executor", ["pushdown", "vectorized"])
@pytest.mark.parametrize("mode", ["interpreted", "jit"])
@pytest.mark.parametrize("rule_shape", DRED_SHAPES)
@settings(max_examples=5, deadline=None)
@given(edges=edges_strategy, mutations=mutations_strategy)
def test_rule_shapes_replay_update_sequences(rule_shape, mode, executor, edges, mutations):
    """Retractions over every head/body shape re-derive exactly the scratch
    fixpoint, whether the session's engine interprets or JIT-compiles."""
    base = EngineConfig.jit("lambda") if mode == "jit" else EngineConfig.interpreted()
    config = base.with_(executor=executor)
    program = build_random_program(edges, rule_shape)
    session = IncrementalSession(program, config)
    assert session.incremental_capable
    live = set(edges)
    for retract, a, b in mutations:
        if retract and live:
            victim = sorted(live)[(a * 8 + b) % len(live)]
            report = session.retract_facts("edge", [victim])
            assert report.strategy == "incremental"
            live.discard(victim)
        else:
            session.insert_facts("edge", [(a, b)])
            live.add((a, b))
        expected = ExecutionEngine(
            build_random_program(sorted(live), rule_shape),
            EngineConfig.interpreted().with_(executor="pushdown"),
        ).evaluate()
        for relation, rows in expected.items():
            assert set(session.fetch(relation)) == set(rows), (
                f"{rule_shape}: {relation} diverged"
            )
