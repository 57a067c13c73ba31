"""Unit tests for the runtime join-order optimizer (paper §IV)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.join_order import (
    JoinOrderOptimizer,
    no_index_view,
    storage_cardinality_view,
    storage_index_view,
    zero_cardinality_view,
)
from repro.datalog.literals import Assignment, Atom, Comparison
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.ir.planning import build_join_plan
from repro.relational.operators import AtomSource
from repro.relational.storage import DatabaseKind, StorageManager

v0, v1, v2, v3 = (Variable(f"v{i}") for i in range(4))
x, y, z = Variable("x"), Variable("y"), Variable("z")


def cardinality_view(cards):
    def view(relation, kind):
        if kind == DatabaseKind.DELTA_KNOWN:
            return cards.get(("delta", relation), 0)
        return cards.get(relation, 0)
    return view


class TestOrdering:
    def test_small_relation_goes_first(self):
        rule = Rule(
            Atom("r", (x, z)),
            (Atom("big", (x, y)), Atom("small", (y, z))),
        )
        plan = build_join_plan(rule)
        optimizer = JoinOrderOptimizer()
        cards = cardinality_view({"big": 100_000, "small": 10})
        optimized, decision = optimizer.optimize_plan(plan, cards)
        first = optimized.sources[0].literal
        assert first.relation == "small"
        assert decision.changed

    def test_cartesian_product_avoided(self):
        # VAlias rule 5 from the paper: VaFlow(v0,v2), VaFlow(v3,v1), MAlias(v3,v0)
        rule = Rule(
            Atom("VAlias", (v1, v2)),
            (
                Atom("VaFlow", (v0, v2)),
                Atom("VaFlow", (v3, v1)),
                Atom("MAlias", (v3, v0)),
            ),
        )
        plan = build_join_plan(rule)
        cards = cardinality_view({"VaFlow": 1000, "MAlias": 900})
        optimized, _ = JoinOrderOptimizer().optimize_plan(plan, cards)
        # Every atom after the first must share at least one variable with the
        # atoms before it — i.e. no Cartesian product anywhere in the order.
        bound = set(optimized.sources[0].literal.variables())
        for source in optimized.sources[1:]:
            assert source.literal.variables() & bound
            bound |= source.literal.variables()

    def test_empty_delta_goes_first(self):
        # The paper's iteration-7 example: the delta relation is empty, so
        # putting it first short-circuits the whole sub-query.
        rule = Rule(
            Atom("VAlias", (v1, v2)),
            (
                Atom("VaFlow", (v0, v2)),
                Atom("VaFlow", (v3, v1)),
                Atom("MAlias", (v3, v0)),
            ),
        )
        plan = build_join_plan(rule, delta_index=0)
        cards = cardinality_view({
            "VaFlow": 1_362_950, "MAlias": 79_514_436, ("delta", "VaFlow"): 0,
        })
        optimized, _ = JoinOrderOptimizer().optimize_plan(plan, cards)
        assert optimized.sources[0].kind == DatabaseKind.DELTA_KNOWN

    def test_iteration_one_example_prefers_selective_join(self):
        # Iteration 1 of the paper's example: joining the two VaFlow copies
        # first is a Cartesian product of ~5e5 x 9e5 rows; any order that
        # starts with MAlias ⋈ VaFlow stays linear.
        rule = Rule(
            Atom("VAlias", (v1, v2)),
            (
                Atom("VaFlow", (v0, v2)),
                Atom("VaFlow", (v3, v1)),
                Atom("MAlias", (v3, v0)),
            ),
        )
        plan = build_join_plan(rule, delta_index=0)
        cards = cardinality_view({
            "VaFlow": 903_752, "MAlias": 541_096, ("delta", "VaFlow"): 541_096,
        })
        optimized, _ = JoinOrderOptimizer().optimize_plan(plan, cards)
        relations = [s.literal.relation for s in optimized.sources]
        assert relations[0] != relations[1] or relations[1] == "MAlias"
        # No neighbouring pair may be the two VaFlow atoms (that would be the
        # Cartesian product the optimization exists to avoid).
        assert not (relations[0] == "VaFlow" and relations[1] == "VaFlow")

    def test_single_atom_plan_unchanged(self):
        rule = Rule(Atom("p", (x, y)), (Atom("q", (x, y)),))
        plan = build_join_plan(rule)
        optimized, decision = JoinOrderOptimizer().optimize_plan(
            plan, zero_cardinality_view
        )
        assert optimized is plan
        assert not decision.changed

    def test_assignment_aware_ordering(self):
        # composite(x) :- num(x), num(z), num(y), y <= z, x := y*z, x <= 100.
        # The membership atom num(x) must come last, after the assignment has
        # bound x, turning the scan into a probe.
        rule = Rule(
            Atom("composite", (x,)),
            (
                Atom("num", (x,)),
                Atom("num", (z,)),
                Atom("num", (y,)),
                Comparison("<=", y, z),
                Assignment(x, y * z),
                Comparison("<=", x, Constant(100)),
            ),
        )
        plan = build_join_plan(rule)
        cards = cardinality_view({"num": 100})
        optimized, _ = JoinOrderOptimizer().optimize_plan(plan, cards)
        positive = [
            s.literal for s in optimized.sources
            if isinstance(s.literal, Atom) and not s.literal.negated
        ]
        assert positive[-1].terms == (x,)

    def test_long_rule_uses_greedy_path(self):
        atoms = tuple(
            Atom(f"r{i}", (Variable(f"a{i}"), Variable(f"a{i + 1}"))) for i in range(8)
        )
        rule = Rule(Atom("p", (Variable("a0"), Variable("a8"))), atoms)
        plan = build_join_plan(rule)
        cards = cardinality_view({f"r{i}": 10 * (i + 1) for i in range(8)})
        optimizer = JoinOrderOptimizer(exhaustive_limit=4)
        optimized, decision = optimizer.optimize_plan(plan, cards)
        assert len(optimized.sources) == len(plan.sources)
        assert decision.estimated_cost > 0

    def test_index_availability_affects_choice(self):
        rule = Rule(
            Atom("r", (x, z)),
            (Atom("a", (x, y)), Atom("b", (y, z)), Atom("c", (y, z))),
        )
        plan = build_join_plan(rule)
        cards = cardinality_view({"a": 100, "b": 100, "c": 100})

        def b_indexed(relation, column):
            return relation == "b" and column == 0

        optimized, _ = JoinOrderOptimizer().optimize_plan(plan, cards, b_indexed)
        without_index, _ = JoinOrderOptimizer().optimize_plan(plan, cards, no_index_view)
        relations = [s.literal.relation for s in optimized.sources]
        # The indexed relation is kept off the leading (scanned) position so
        # its index can serve the probe side of the join.
        assert relations[0] != "b"
        # And the index made that plan look cheaper than the index-less one.
        _, with_cost = JoinOrderOptimizer().optimize_plan(plan, cards, b_indexed)
        _, without_cost = JoinOrderOptimizer().optimize_plan(plan, cards, no_index_view)
        assert with_cost.estimated_cost <= without_cost.estimated_cost


class TestRederivationOrdering:
    """DRed's ``[headΔ] + body`` plans at serving cardinalities: a hundred
    pending rows against a 10k-row edge and a 60k-row path."""

    CARDS = {("delta", "path"): 100, "edge": 10_000, "path": 60_000}

    @pytest.mark.parametrize("body", [
        (Atom("path", (x, y)), Atom("edge", (y, z))),
        (Atom("edge", (x, y)), Atom("path", (y, z))),
    ], ids=["path_edge", "edge_path"])
    @pytest.mark.parametrize("indexed", [False, True])
    def test_driven_from_the_delta_and_closed_by_the_bound_atom(self, body, indexed):
        from repro.relational.operators import JoinPlan, join_layouts

        pending = AtomSource(Atom("path", (x, z)), DatabaseKind.DELTA_KNOWN)
        plan = JoinPlan("path", (x, z), (pending,) + tuple(
            AtomSource(atom, DatabaseKind.DERIVED) for atom in body
        ))
        optimized, decision = JoinOrderOptimizer().optimize_plan(
            plan, cardinality_view(self.CARDS),
            (lambda relation, column: True) if indexed else no_index_view,
        )
        assert optimized.sources[0] == pending
        # The smaller relation is probed on one column; the 60k-row one is
        # left for last, where both its columns are bound.
        assert decision.chosen_order == ("path", "edge", "path")
        last = join_layouts(optimized)[-1]
        assert last.relation == "path" and last.key_positions == (0, 1)
        assert last.fresh_positions == ()


class TestViews:
    def test_storage_views(self):
        storage = StorageManager()
        storage.declare("edge", 2)
        storage.insert_derived("edge", (1, 2))
        storage.register_index("edge", 1)
        cards = storage_cardinality_view(storage)
        indexes = storage_index_view(storage)
        assert cards("edge", DatabaseKind.DERIVED) == 1
        assert cards("edge", DatabaseKind.DELTA_KNOWN) == 0
        assert indexes("edge", 1) and not indexes("edge", 0)

    def test_zero_and_no_index_views(self):
        assert zero_cardinality_view("anything", DatabaseKind.DERIVED) == 0
        assert no_index_view("anything", 0) is False

    def test_optimize_with_storage_helper(self):
        storage = StorageManager()
        storage.declare("big", 2)
        storage.declare("small", 2)
        for i in range(50):
            storage.insert_derived("big", (i, i + 1))
        storage.insert_derived("small", (1, 2))
        rule = Rule(Atom("r", (x, z)), (Atom("big", (x, y)), Atom("small", (y, z))))
        plan = build_join_plan(rule)
        optimized = JoinOrderOptimizer().optimize_with_storage(plan, storage)
        assert optimized.sources[0].literal.relation == "small"


class TestDecisionRecord:
    def test_decision_reports_orders(self):
        rule = Rule(
            Atom("r", (x, z)),
            (Atom("big", (x, y)), Atom("small", (y, z))),
        )
        plan = build_join_plan(rule)
        cards = cardinality_view({"big": 1000, "small": 1})
        _, decision = JoinOrderOptimizer().optimize_plan(plan, cards)
        assert decision.original_order == ("big", "small")
        assert decision.chosen_order == ("small", "big")
        assert decision.changed


class TestBlockStrategyAnnotation:
    def test_annotates_scan_then_probe(self):
        from repro.core.join_order import annotate_block_strategies

        rule = Rule(
            Atom("path", (x, z)),
            (Atom("path", (x, y)), Atom("edge", (y, z))),
        )
        plan = build_join_plan(rule)
        indexed = annotate_block_strategies(
            plan, lambda relation, column: relation == "edge" and column == 0
        )
        assert indexed == ("scan", "index")
        assert annotate_block_strategies(plan, no_index_view) == ("scan", "build")
        assert annotate_block_strategies(plan) == ("scan", "build")

    def test_a_key_covering_every_column_never_builds(self):
        from repro.core.join_order import annotate_block_strategies

        rule = Rule(
            Atom("r", (x, y)), (Atom("small", (x, y)), Atom("big", (y, x))),
        )
        assert annotate_block_strategies(
            build_join_plan(rule), no_index_view
        ) == ("scan", "index")

    def test_assignments_bind_and_negation_is_skipped(self):
        from repro.core.join_order import annotate_block_strategies

        rule = Rule(
            Atom("r", (x, z)),
            (
                Atom("num", (x,)),
                Assignment(z, x + 1),
                Atom("num", (z,)),
                Atom("forbidden", (x, z), negated=True),
            ),
        )
        plan = build_join_plan(rule)
        strategies = annotate_block_strategies(
            plan, lambda relation, column: True
        )
        # Second num atom joins on the assigned z: single indexed key.
        assert strategies == ("scan", "index")

    def test_prediction_agrees_with_the_kernels_runtime_choice(self):
        """Prediction and kernel apply one static rule to one layout — also
        when the probe side is as wide as the relation, where the old
        distinct-keys switch built a table the prediction never saw."""
        from repro.core.join_order import (
            annotate_block_strategies,
            storage_index_view,
        )
        from repro.relational.operators import lower_plan, new_block_stats
        from repro.relational.storage import StorageManager

        w = Variable("w")
        rule = Rule(
            Atom("out", (x, w)),
            (Atom("path", (x, y)), Atom("edge", (y, z)), Atom("label", (z, w))),
        )
        plan = build_join_plan(rule, delta_index=0)
        storage = StorageManager()
        for name in ("path", "edge", "label", "out"):
            storage.declare(name, 2)
        storage.register_index("edge", 0)            # label stays unindexed
        for i in range(50):
            storage.insert_derived("edge", (i, i + 1))
            storage.insert_derived("label", (i, f"l{i % 3}"))

        predicted = annotate_block_strategies(plan, storage_index_view(storage))
        assert predicted == ("scan", "index", "build")
        for delta in ([(0, 1), (0, 2), (7, 2)], [(0, k) for k in range(50)]):
            storage.clear_deltas(["path"])
            storage.force_delta("path", delta)
            stats = new_block_stats()
            assert lower_plan(plan, stats=stats)(storage)
            assert {kind: stats[kind] for kind in ("scan", "index", "build")} == {
                kind: predicted.count(kind) for kind in ("scan", "index", "build")
            }

    def test_a_multi_column_key_is_indexed_by_any_of_its_columns(self):
        from repro.core.join_order import annotate_block_strategies

        rule = Rule(
            Atom("r", (x, z)), (Atom("src", (x, y)), Atom("t", (x, y, z))),
        )
        plan = build_join_plan(rule)
        for column, expected in ((0, "index"), (1, "index"), (2, "build")):
            assert annotate_block_strategies(
                plan, lambda relation, c, column=column: relation == "t" and c == column
            ) == ("scan", expected)


# -- the exact search against the search it replaced ----------------------------


def _reference_order(model, sources, cardinalities, indexes, assignments):
    """Cost every ``itertools.permutations`` order of ``sources`` left to
    right and keep the first strictly cheapest one: the exhaustive search
    branch-and-bound must reproduce, order (ties included) and cost."""
    import itertools

    def fire(bound, pending):
        changed = True
        while changed:
            changed = False
            for assignment in list(pending):
                if assignment.input_variables() <= bound:
                    bound.add(assignment.target)
                    pending.remove(assignment)
                    changed = True

    def cost_of(order):
        bound, pending = set(), list(assignments)
        fire(bound, pending)
        total, intermediate = 0.0, 1.0
        for source in order:
            atom = source.literal
            cardinality = cardinalities(atom.relation, source.kind or DatabaseKind.DERIVED)
            seen, conditions, indexed = set(), 0, False
            for position, term in enumerate(atom.terms):
                is_bound = isinstance(term, Constant) or term in bound
                conditions += is_bound or term in seen
                indexed = indexed or (is_bound and indexes(atom.relation, position))
                if isinstance(term, Variable):
                    seen.add(term)
            total += model.join_cost(intermediate, cardinality, conditions, indexed)
            intermediate *= max(model.output_cardinality(cardinality, conditions), 0.0)
            bound.update(atom.variables())
            fire(bound, pending)
        return total

    best, best_cost = None, float("inf")
    for permutation in itertools.permutations(sources):
        cost = cost_of(permutation)
        if cost < best_cost:
            best, best_cost = list(permutation), cost
    return best, best_cost


#: The Fig. 8 / Fig. 9 workloads at their smallest registered scale.
FIG89_TINY = ("andersen", "inverse_functions", "cspa_tiny", "csda",
              "ackermann", "fibonacci", "primes")


def _run_recording_plans(name, ordering, config, on_plan):
    """Evaluate a benchmark, calling ``on_plan(optimizer, plan, cards,
    indexes, optimized, decision)`` at every ``optimize_plan``."""
    from repro.analyses import Ordering
    from repro.analyses.registry import get_benchmark
    from repro.engine.engine import ExecutionEngine

    original = JoinOrderOptimizer.optimize_plan

    def recording(self, plan, cardinalities, indexes=no_index_view):
        optimized, decision = original(self, plan, cardinalities, indexes)
        on_plan(self, plan, cardinalities, indexes, optimized, decision)
        return optimized, decision

    spec = get_benchmark(name)
    JoinOrderOptimizer.optimize_plan = recording
    try:
        result = ExecutionEngine(spec.build(Ordering(ordering)), config).evaluate()
    finally:
        JoinOrderOptimizer.optimize_plan = original
    return result[spec.query_relation]


def _positive(plan):
    return [s for s in plan.sources
            if isinstance(s.literal, Atom) and not s.literal.negated]


class TestExactSearch:
    @pytest.mark.parametrize("ordering", ["optimized", "worst"])
    @pytest.mark.parametrize("name", FIG89_TINY)
    def test_matches_exhaustive_search_on_every_plan_the_jit_sees(self, name, ordering):
        from repro.core.config import EngineConfig
        from repro.datalog.literals import Assignment as AssignmentLiteral

        checked = []

        def check(optimizer, plan, cardinalities, indexes, optimized, decision):
            positive = _positive(plan)
            if not 2 <= len(positive) <= optimizer.exhaustive_limit:
                return
            assignments = [s.literal for s in plan.sources
                           if isinstance(s.literal, AssignmentLiteral)]
            expected, cost = _reference_order(
                optimizer.selectivity, positive, cardinalities, indexes, assignments
            )
            assert _positive(optimized) == expected
            assert decision.estimated_cost == cost  # the same float, not close
            checked.append(len(positive))

        _run_recording_plans(name, ordering, EngineConfig.jit("lambda"), check)
        assert checked

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_exhaustive_search_on_random_plans(self, data):
        relations = ["a", "b", "c"]
        names = st.sampled_from([Variable(n) for n in "uvwxyz"])
        terms = st.one_of(names, names, st.builds(Constant, st.integers(0, 2)))
        atoms = data.draw(st.lists(
            st.tuples(st.sampled_from(relations), st.lists(terms, min_size=1, max_size=3),
                      st.booleans()),
            min_size=2, max_size=6,
        ))
        sources = [
            AtomSource(Atom(relation, tuple(args)),
                       DatabaseKind.DELTA_KNOWN if delta else DatabaseKind.DERIVED)
            for relation, args, delta in atoms
        ]
        sizes = st.sampled_from([0, 0, 1, 10, 10, 100, 1000])
        cards = {relation: data.draw(sizes) for relation in relations}
        cards.update({("delta", r): data.draw(sizes) for r in relations})
        indexed = data.draw(st.sets(st.tuples(st.sampled_from(relations),
                                              st.integers(0, 2))))
        assignments = [
            Assignment(target, source + 1)
            for target, source in data.draw(st.lists(st.tuples(names, names), max_size=2))
            if target != source
        ]
        view = cardinality_view(cards)

        def indexes(relation, column):
            return (relation, column) in indexed

        optimizer = JoinOrderOptimizer()
        order, cost = optimizer.order_sources(sources, view, indexes, assignments)
        expected, expected_cost = _reference_order(
            optimizer.selectivity, sources, view, indexes, assignments
        )
        assert order == expected
        assert cost == expected_cost

    def test_effort_against_exhaustive_search_on_inverse_functions(self):
        """``join_cost`` calls of the whole JIT run, branch-and-bound
        against costing every permutation (n! orders of n steps each) on
        the same plans.  Deterministic: the plans and cardinalities are."""
        import math

        from repro.core.config import EngineConfig
        from repro.relational.statistics import SelectivityModel

        class Counting(SelectivityModel):
            calls = 0

            def join_cost(self, *args):
                Counting.calls += 1
                return super().join_cost(*args)

        searched = exhaustive = counted = 0

        def tally(optimizer, plan, cardinalities, indexes, optimized, decision):
            nonlocal searched, exhaustive, counted
            calls, counted = Counting.calls - counted, Counting.calls
            n = len(_positive(plan))
            if 2 <= n <= optimizer.exhaustive_limit:
                searched += calls
                exhaustive += math.factorial(n) * n

        config = EngineConfig.jit("lambda").with_(selectivity=Counting())
        _run_recording_plans("inverse_functions", "worst", config, tally)
        assert exhaustive > 0
        ratio = searched / exhaustive
        assert ratio <= 0.25
        # Measured: 592 calls where every permutation would take 5020.
        assert (searched, exhaustive) == (592, 5020)
