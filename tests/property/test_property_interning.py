"""Property tests: dictionary-encoded storage equals the raw-object oracle.

The interning rewrite's contract is *exact* equivalence: with
``EngineConfig(interning=True)`` (the default) the engine runs its entire
fixpoint over dense integer tuples, yet every decoded result — rows, counts
and the deterministic iteration order — is bit-for-bit what the raw-object
engine (``interning=False``, the PR-4 behaviour, kept alive precisely as
this oracle) computes.  The harness replays randomized programs including
negation, comparisons and arithmetic over encoded ints, and incremental
insert/retract sequences, across interpreted/JIT/AOT × both executors.
See ``tests/README.md`` for the oracle table.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses.micro import build_transitive_closure_program
from repro.core.config import EngineConfig
from repro.datalog.literals import Assignment, Atom, Comparison
from repro.datalog.program import DatalogProgram
from repro.datalog.terms import Variable
from repro.engine.engine import ExecutionEngine
from repro.incremental import IncrementalSession

RULE_SHAPES = ("linear", "nonlinear", "filtered", "negated", "symbolic")

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
    max_size=10,
)


def build_random_program(edges, rule_shape):
    """Five rule shapes over the same random edge set.

    ``linear``/``nonlinear`` are plain recursion over int constants;
    ``filtered`` adds comparison and arithmetic-assignment literals (the
    builtins that must cross back into the raw domain); ``negated`` adds a
    stratified anti-join with an embedded constant; ``symbolic`` relabels
    the nodes as composite ``(str, int)`` keys with a constant filter — the
    value shape dictionary encoding exists for.
    """
    program = DatalogProgram(f"prop_intern_{rule_shape}")
    x, y, z, s = (Variable(v) for v in ("x", "y", "z", "s"))
    path = lambda a, b: Atom("path", (a, b))  # noqa: E731
    edge = lambda a, b: Atom("edge", (a, b))  # noqa: E731
    hop = lambda a, b: Atom("hop", (a, b))    # noqa: E731
    program.add_rule(path(x, y), [edge(x, y)])
    if rule_shape == "linear":
        program.add_rule(path(x, z), [path(x, y), edge(y, z)])
        program.add_rule(Atom("pinned", (x,)), [path(3, x)])
    elif rule_shape == "nonlinear":
        program.add_rule(path(x, z), [path(x, y), path(y, z)])
    elif rule_shape == "filtered":
        program.add_rule(
            path(x, z),
            [path(x, y), edge(y, z), Comparison("!=", x, z)],
        )
        program.add_rule(
            Atom("weight", (x, s)),
            [edge(x, y), Assignment(s, x + y), Comparison("<=", s, 10)],
        )
    elif rule_shape == "negated":
        program.add_rule(hop(x, z), [edge(x, y), edge(y, z)])
        program.add_rule(Atom("skip", (x, z)), [hop(x, z), ~edge(x, z)])
    else:  # symbolic: composite (str, int) constants, constant filter
        program.add_rule(path(x, z), [path(x, y), edge(y, z)])
        program.add_rule(Atom("from_zero", (y,)), [edge(("node", 0), y)])
    if rule_shape == "symbolic":
        program.add_facts(
            "edge", sorted({(("node", a), ("node", b)) for a, b in edges})
        )
    else:
        program.add_facts("edge", sorted(set(edges)))
    return program


def evaluate(program, config):
    return ExecutionEngine(program, config).evaluate()


#: The oracle: raw (un-interned) values, interpreted tuple at a time.
RAW_ORACLE = EngineConfig.interpreted().with_(executor="pushdown", interning=False)


@pytest.mark.parametrize("rule_shape", RULE_SHAPES)
@settings(max_examples=10, deadline=None)
@given(edges=edges_strategy)
def test_interning_matches_raw_oracle_across_shapes(rule_shape, edges):
    """Interpreted mode: identical relations, rows and deterministic order."""
    program = build_random_program(edges, rule_shape)
    raw = evaluate(program.copy(), RAW_ORACLE)
    interned = evaluate(program.copy(), EngineConfig.interpreted())
    assert interned == raw, f"{rule_shape} diverged"
    for relation in raw:
        # Bit-for-bit including the deterministic iteration order: results
        # decode at the QueryResult boundary and sort by decoded key.
        assert list(interned[relation]) == list(raw[relation])
        assert interned[relation].to_columns() == raw[relation].to_columns()


@pytest.mark.parametrize("base", [
    EngineConfig.interpreted(),
    EngineConfig.jit("lambda"),
    EngineConfig.jit("bytecode"),
    EngineConfig.jit("quotes"),
    EngineConfig.jit("irgen"),
    EngineConfig.jit("lambda", asynchronous=True),
    EngineConfig.aot(),
], ids=lambda c: c.describe())
@pytest.mark.parametrize("executor", ["pushdown", "vectorized"])
@settings(max_examples=4, deadline=None)
@given(edges=edges_strategy)
def test_interning_matches_across_modes_and_executors(base, executor, edges):
    """Encoded {interpreted, JIT, AOT} × executors equals the oracle."""
    program = build_random_program(edges, "filtered")
    raw = evaluate(program.copy(), RAW_ORACLE)
    config = base.with_(executor=executor)
    assert evaluate(program.copy(), config) == raw, (
        f"{config.describe()} diverged"
    )


@pytest.mark.parametrize("config", [
    EngineConfig.interpreted().with_(executor="pushdown"),
    EngineConfig.interpreted(),
    EngineConfig.jit("lambda"),
], ids=lambda c: c.describe())
@settings(max_examples=6, deadline=None)
@given(edges=edges_strategy, mutations=mutations_strategy)
def test_interned_sessions_replay_update_sequences(config, edges, mutations):
    """Incremental insert/retract sequences decode to the raw oracle's rows."""
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
        expected = evaluate(
            build_transitive_closure_program(sorted(live)), RAW_ORACLE
        )["path"]
        assert session.fetch("path") == expected.to_frozenset()


def test_symbol_table_is_shared_across_the_whole_engine():
    """One global table: storage and results share it."""
    program = build_random_program([(0, 1), (1, 2)], "symbolic")
    engine = ExecutionEngine(program, EngineConfig.interpreted())
    engine.evaluate()
    table = engine.storage.symbols
    assert not table.identity and len(table) >= 3
    stored = engine.storage.tuples("path")
    assert all(isinstance(v, int) for row in stored for v in row)
    decoded = engine.result("path").to_set()
    assert decoded == engine.storage.decoded_tuples("path")
