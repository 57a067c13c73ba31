"""Property-based tests for the core correctness claims of the paper.

Two invariants carry the whole optimization story:

1. **Order invariance** — the order of atoms within a rule body never changes
   the fixpoint (it only changes performance), so the optimizer is free to
   reorder at will.
2. **Strategy invariance** — semi-naive evaluation, naive evaluation, the JIT
   with any backend, and ahead-of-time optimization all compute the same
   fixpoint as a reference implementation.

Both are checked against randomly generated edge relations, with transitive
closure (recursive, the paper's core shape) and a reference closure computed
independently of the engine.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses.micro import build_transitive_closure_program
from repro.core.config import AOTSortMode, EngineConfig
from repro.datalog.literals import Atom
from repro.datalog.program import DatalogProgram
from repro.datalog.rewrite import reorder_rule_body
from repro.datalog.terms import Variable
from repro.engine.engine import ExecutionEngine

x, y, z = Variable("x"), Variable("y"), Variable("z")

edges_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8)),
    min_size=1,
    max_size=25,
)


def reference_closure(edges):
    """Transitive closure by plain iteration, independent of the engine."""
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


def run_closure(edges, config):
    program = build_transitive_closure_program(edges)
    return ExecutionEngine(program, config).evaluate()["path"]


class TestStrategyInvariance:
    @given(edges=edges_strategy)
    @settings(max_examples=25, deadline=None)
    def test_interpreted_matches_reference(self, edges):
        """The tuple-at-a-time oracle itself against the plain closure."""
        oracle = EngineConfig.interpreted().with_(executor="pushdown")
        assert run_closure(edges, oracle) == reference_closure(edges)

    @given(edges=edges_strategy)
    @settings(max_examples=25, deadline=None)
    def test_block_kernels_match_reference(self, edges):
        assert run_closure(edges, EngineConfig.interpreted()) == reference_closure(edges)

    @given(edges=edges_strategy)
    @settings(max_examples=15, deadline=None)
    def test_naive_and_semi_naive_agree(self, edges):
        assert run_closure(edges, EngineConfig.naive()) == run_closure(
            edges, EngineConfig.interpreted().with_(executor="pushdown")
        )

    @given(edges=edges_strategy,
           backend=st.sampled_from(["irgen", "lambda", "quotes", "bytecode"]))
    @settings(max_examples=15, deadline=None)
    def test_jit_backends_match_reference(self, edges, backend):
        assert run_closure(edges, EngineConfig.jit(backend)) == reference_closure(edges)

    @given(edges=edges_strategy,
           sort=st.sampled_from([AOTSortMode.RULES_ONLY, AOTSortMode.FACTS_AND_RULES]),
           online=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_aot_matches_reference(self, edges, sort, online):
        config = EngineConfig.aot(sort=sort, online=online)
        assert run_closure(edges, config) == reference_closure(edges)


class TestOrderInvariance:
    @given(edges=edges_strategy, seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_random_body_permutations_preserve_fixpoint(self, edges, seed):
        """Any permutation of any rule body yields the same fixpoint."""
        rng = random.Random(seed)
        program = DatalogProgram("tc")
        program.add_facts("edge", edges)
        program.add_rule(Atom("path", (x, y)), [Atom("edge", (x, y))])
        program.add_rule(
            Atom("path", (x, z)), [Atom("path", (x, y)), Atom("edge", (y, z))]
        )
        permuted_rules = []
        for rule in program.rules:
            order = list(range(len(rule.positive_atoms())))
            rng.shuffle(order)
            permuted_rules.append(reorder_rule_body(rule, order))
        permuted = program.with_rules(permuted_rules)

        original = ExecutionEngine(program, EngineConfig.interpreted()).evaluate()["path"]
        shuffled = ExecutionEngine(permuted, EngineConfig.interpreted()).evaluate()["path"]
        assert original == shuffled

    @given(edges=edges_strategy)
    @settings(max_examples=10, deadline=None)
    def test_three_atom_rule_orderings_agree(self, edges):
        """A 3-way join rule gives the same result under all 6 atom orders."""
        import itertools

        results = []
        for order in itertools.permutations(range(3)):
            program = DatalogProgram("two_hop")
            program.add_facts("edge", edges)
            body = [Atom("edge", (x, y)), Atom("edge", (y, z)), Atom("edge", (x, z))]
            program.add_rule(Atom("triangle", (x, y, z)), [body[i] for i in order])
            results.append(
                ExecutionEngine(program, EngineConfig.interpreted()).evaluate()["triangle"]
            )
        assert all(result == results[0] for result in results)


class TestJoinOrderOptimizerProperties:
    @given(edges=edges_strategy, big=st.integers(min_value=10, max_value=10000))
    @settings(max_examples=30, deadline=None)
    def test_optimizer_output_is_a_permutation(self, edges, big):
        """The optimizer never drops, duplicates or invents literals."""
        from collections import Counter

        from repro.core.join_order import JoinOrderOptimizer
        from repro.ir.planning import build_join_plan
        from repro.datalog.rules import Rule
        from repro.relational.storage import DatabaseKind

        rule = Rule(
            Atom("p", (x, z)),
            (Atom("a", (x, y)), Atom("b", (y, z)), Atom("c", (x, z))),
        )
        plan = build_join_plan(rule, delta_index=1)

        def cards(relation, kind):
            return {"a": big, "b": 3, "c": len(edges) + 1}.get(relation, 0)

        optimized, _ = JoinOrderOptimizer().optimize_plan(plan, cards)
        assert Counter(s.literal for s in optimized.sources) == Counter(
            s.literal for s in plan.sources
        )
        delta = [s.literal.relation for s in optimized.sources if s.is_delta()]
        assert delta == ["b"]
