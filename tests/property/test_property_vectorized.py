"""Property tests: the block kernels equal the pushdown oracle.

The vectorized batch executor's contract is *exact* equivalence: for any
program and any fact base, ``EngineConfig.with_(executor="vectorized")``
computes bit-for-bit the fixpoint of the tuple-at-a-time pushdown executor
— whatever the execution mode (interpreted, JIT, AOT), whatever the shard
count, and also inside an :class:`~repro.incremental.IncrementalSession`
absorbing randomized insert/retract sequences.  The lambda JIT backend
stitches its artifacts from the same lowered kernels, so full-mode
``jit("lambda")`` is held to the same oracle here, over rule shapes that
put every kernel variant (semi-join, existence filter, anti-join, filter,
symbol-allocating assignment, zero-arity head, empty relation) *inside*
the compiled loop.  The pushdown recursion is the oracle; any future
executor lands against this same harness (see ``tests/README.md``).
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses.micro import build_transitive_closure_program
from repro.core.config import EngineConfig
from repro.core.join_order import annotate_block_strategies, storage_index_view
from repro.datalog.literals import Assignment, Atom, Comparison
from repro.datalog.program import DatalogProgram
from repro.datalog.terms import Constant, Variable
from repro.engine.engine import ExecutionEngine
from repro.incremental import IncrementalSession
from repro.ir.ops import JoinProjectOp, find_nodes
from repro.relational.operators import join_layouts, lower_plan, new_block_stats

SHARD_COUNTS = (1, 2, 4)
RULE_SHAPES = ("linear", "nonlinear", "mutual", "filtered", "negated")
#: Shapes whose interesting literal sits in a *recursive* rule, i.e. inside
#: the loop the JIT compiles (the five above keep theirs in the seed stage
#: or a non-recursive stratum, which the interpreter runs).
LOOP_SHAPES = ("loop_negated", "loop_filtered", "allocating", "semi_join",
               "repeated", "constants", "zero_arity", "empty_relation")

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
    """One rule shape over the same random edge set.

    ``linear``/``nonlinear``/``mutual`` mirror the shard-parallel property
    suite (aligned pivot, self-join, two-relation stratum); ``filtered``
    adds comparison and assignment literals (batch filter/extend
    operators); ``negated`` adds a stratified anti-join (batch negation).
    The :data:`LOOP_SHAPES` move those literals — plus repeated variables,
    body constants, a zero-arity head and a relation without facts — into
    the recursive rule.
    """
    program = DatalogProgram(f"prop_vec_{rule_shape}")
    x, y, z, s, w = (Variable(v) for v in ("x", "y", "z", "s", "w"))
    path = lambda a, b: Atom("path", (a, b))  # noqa: E731
    edge = lambda a, b: Atom("edge", (a, b))  # noqa: E731
    hop = lambda a, b: Atom("hop", (a, b))    # noqa: E731
    program.add_rule(path(x, y), [edge(x, y)])
    if rule_shape == "linear":
        program.add_rule(path(x, z), [path(x, y), edge(y, z)])
    elif rule_shape == "nonlinear":
        program.add_rule(path(x, z), [path(x, y), path(y, z)])
    elif rule_shape == "mutual":
        program.add_rule(hop(x, z), [path(x, y), edge(y, z)])
        program.add_rule(path(x, z), [hop(x, y), edge(y, z)])
    elif rule_shape == "filtered":
        program.add_rule(
            path(x, z),
            [path(x, y), edge(y, z), Comparison("!=", x, z)],
        )
        program.add_rule(
            Atom("weight", (x, s)),
            [edge(x, y), Assignment(s, x + y), Comparison("<=", s, 10)],
        )
    elif rule_shape == "negated":  # two_hop is a lower stratum for the anti-join
        program.add_rule(hop(x, z), [edge(x, y), edge(y, z)])
        program.add_rule(Atom("skip", (x, z)), [hop(x, z), ~edge(x, z)])
    elif rule_shape == "loop_negated":
        # Anti-joins on all columns, a column subset and a constant.
        program.add_rule(hop(x, z), [edge(x, y), edge(y, z)])
        program.add_rule(
            path(x, z),
            [path(x, y), edge(y, z), ~hop(x, z), ~Atom("sink", (z,)),
             ~edge(z, Constant(0))],
        )
        program.add_rule(Atom("sink", (x,)), [edge(y, x), ~edge(x, x)])
    elif rule_shape == "loop_filtered":
        program.add_rule(
            path(x, z),
            [path(x, y), edge(y, z), Comparison("!=", x, z),
             Comparison("<", x + 1, z + 7)],
        )
    elif rule_shape == "allocating":
        # Every round's assignment mints symbols no fact ever mentioned.
        dist = lambda a, b: Atom("dist", (a, b))  # noqa: E731
        program.add_rule(dist(x, s), [edge(x, y), Assignment(s, Constant(100))])
        program.add_rule(
            dist(y, w),
            [dist(x, s), edge(x, y), Assignment(w, s + 3), Comparison("<=", w, 118)],
        )
        # Re-binding a bound variable is an equality filter.
        program.add_rule(
            Atom("odd", (x, y)),
            [dist(x, s), dist(y, w), edge(x, y), Assignment(w, s + 3)],
        )
    elif rule_shape == "semi_join":
        # edge(z, w) binds nothing the head reads: a key-only filter.
        program.add_rule(path(x, z), [path(x, y), edge(y, z), edge(z, w)])
    elif rule_shape == "repeated":
        program.add_rule(path(x, x), [edge(x, y), edge(y, x)])
        program.add_rule(path(x, z), [path(x, y), edge(y, z), path(z, z)])
        program.add_rule(hop(x, z), [path(x, y), edge(y, z), edge(w, w)])
    elif rule_shape == "constants":
        program.add_rule(
            path(x, z), [path(x, y), edge(y, z), edge(Constant(0), w), path(w, z)]
        )
        program.add_rule(
            path(Constant(7), z),
            [path(x, z), edge(Constant(1), Constant(2)), edge(x, Constant(3))],
        )
    elif rule_shape == "zero_arity":
        on = Atom("on", ())
        program.add_rule(on, [path(x, y), edge(y, x)])
        program.add_rule(path(x, z), [path(x, y), edge(y, z), on])
        program.add_rule(Atom("off", ()), [edge(x, y), ~Atom("on", ())])
    else:  # empty_relation: ghost is declared by use, never populated
        program.add_rule(path(x, z), [path(x, y), Atom("ghost", (y, z))])
        program.add_rule(path(x, z), [path(x, y), edge(y, z), ~Atom("ghost", (x, z))])
    program.add_facts("edge", sorted(set(edges)))
    return program


def evaluate(program, config):
    return ExecutionEngine(program, config).evaluate()


@pytest.mark.parametrize("rule_shape", RULE_SHAPES)
@settings(max_examples=10, deadline=None)
@given(edges=edges_strategy)
def test_vectorized_matches_pushdown_across_shapes(rule_shape, edges):
    """Interpreted mode: identical relations, rows and deterministic order."""
    program = build_random_program(edges, rule_shape)
    reference = evaluate(program.copy(), EngineConfig.interpreted())
    vectorized = evaluate(
        program.copy(), EngineConfig.interpreted().with_(executor="vectorized")
    )
    assert vectorized == reference, f"{rule_shape} diverged"
    for relation in reference:
        # Bit-for-bit including the deterministic iteration order.
        assert list(vectorized[relation]) == list(reference[relation])


@pytest.mark.parametrize("base", [
    EngineConfig.interpreted(),
    EngineConfig.jit("lambda"),
    EngineConfig.jit("bytecode"),
    EngineConfig.aot(),
], ids=lambda c: c.describe())
@settings(max_examples=6, deadline=None)
@given(edges=edges_strategy)
def test_vectorized_matches_across_modes_and_shards(base, edges):
    """Vectorized x {interpreted, JIT, AOT} x shards {1,2,4} equals the oracle."""
    program = build_random_program(edges, "nonlinear")
    reference = evaluate(program.copy(), EngineConfig.interpreted())
    for shards in SHARD_COUNTS:
        config = EngineConfig.parallel(shards=shards, base=base).with_(
            executor="vectorized"
        )
        assert evaluate(program.copy(), config) == reference, (
            f"{config.describe()} diverged at {shards} shards"
        )


@pytest.mark.parametrize("interning", [True, False], ids=["interned", "raw"])
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("rule_shape", RULE_SHAPES + LOOP_SHAPES)
@settings(max_examples=5, deadline=None)
@given(edges=edges_strategy)
def test_lambda_artifacts_match_pushdown_oracle(rule_shape, shards, interning, edges):
    """Full-mode lambda artifacts, bit-for-bit, over every kernel variant."""
    program = build_random_program(edges, rule_shape)
    reference = evaluate(program.copy(), EngineConfig.interpreted())
    config = EngineConfig.jit("lambda").with_(interning=interning)
    if shards > 1:
        config = EngineConfig.parallel(shards=shards, base=config)
    compiled = evaluate(program.copy(), config)
    assert compiled == reference, f"{rule_shape} diverged under {config.describe()}"
    for relation in reference:
        assert list(compiled[relation]) == list(reference[relation])


@pytest.mark.parametrize("use_indexes", [True, False], ids=["indexed", "unindexed"])
@pytest.mark.parametrize("rule_shape", RULE_SHAPES + LOOP_SHAPES)
@settings(max_examples=5, deadline=None)
@given(edges=edges_strategy)
def test_predicted_block_strategies_are_what_the_kernels_do(rule_shape, use_indexes, edges):
    """EXPLAIN's per-atom strategy is static, so it is exact: per plan, the
    predicted tuple is the counters its kernel bumps (a batch that ran dry
    stopped after some prefix of it)."""
    config = EngineConfig.interpreted(use_indexes=use_indexes).with_(executor="vectorized")
    engine = ExecutionEngine(build_random_program(edges, rule_shape), config)
    engine.evaluate()
    storage = engine.storage
    for name in engine.program.idb_relations():  # give the delta plans rows to join
        storage.force_delta(name, list(storage.derived(name).rows()))
    kinds = ("index", "build", "scan")
    for node in find_nodes(engine.tree, JoinProjectOp):
        predicted = annotate_block_strategies(node.plan, storage_index_view(storage))
        stats = new_block_stats()
        rows = lower_plan(node.plan, storage.symbols, stats=stats)(storage)
        prefixes = [Counter(predicted[:n]) for n in range(len(predicted) + 1)]
        allowed = prefixes[-1:] if rows else prefixes
        assert {kind: stats[kind] for kind in kinds} in [
            {kind: prefix[kind] for kind in kinds} for prefix in allowed
        ], (node.plan.describe(), predicted, stats)
        if not use_indexes:  # only a whole-row key "probes" without an index
            assert all(
                len(layout.key_positions) == layout.arity
                for layout, kind in zip(join_layouts(node.plan), predicted)
                if kind == "index"
            )


@pytest.mark.parametrize("base", [
    EngineConfig.interpreted().with_(executor="vectorized"),
    EngineConfig.jit("lambda"),
    EngineConfig.jit("lambda").with_(interning=False),
], ids=lambda c: c.describe())
@pytest.mark.parametrize("shards", [1, 2])
@settings(max_examples=6, deadline=None)
@given(edges=edges_strategy, mutations=mutations_strategy)
def test_block_kernel_sessions_replay_update_sequences(base, shards, edges, mutations):
    """Incremental insert/retract sequences through the block kernels."""
    edges = [e for e in edges if e[0] != e[1]] or [(0, 1)]
    config = (
        EngineConfig.parallel(shards=shards, base=base) if shards > 1 else base
    )
    with IncrementalSession(build_transitive_closure_program(edges), config) as session:
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
                build_transitive_closure_program(sorted(live)),
                EngineConfig.interpreted(),
            )["path"]
            assert set(session.fetch("path")) == set(expected)
