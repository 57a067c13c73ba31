"""Unit tests for the push/pull sub-query evaluators and the lowered block
kernels (``lower_plan``) both the vectorized interpreter and the lambda
backend run."""

import pytest

from repro.datalog.literals import Assignment, Atom, Comparison
from repro.datalog.terms import Constant, Variable
from repro.relational.operators import (
    AtomSource,
    JoinPlan,
    PullSubqueryEvaluator,
    PushSubqueryEvaluator,
    SubqueryEvaluator,
    bound_constraints,
    evaluate_subquery,
    join_layouts,
    lower_plan,
    match_atom,
    new_block_stats,
    project_head,
)
from repro.relational.storage import DatabaseKind, StorageManager

x, y, z = Variable("x"), Variable("y"), Variable("z")


def storage_with_graph() -> StorageManager:
    storage = StorageManager()
    storage.declare("edge", 2)
    storage.declare("path", 2)
    storage.declare("blocked", 1)
    for edge in [(1, 2), (2, 3), (3, 4)]:
        storage.insert_derived("edge", edge)
    storage.seed_delta("path", [(1, 2), (2, 3), (3, 4)])
    storage.insert_derived("blocked", (4,))
    return storage


def simple_plan(delta: bool = False) -> JoinPlan:
    """path(x, z) :- path(x, y), edge(y, z)."""
    kind = DatabaseKind.DELTA_KNOWN if delta else DatabaseKind.DERIVED
    return JoinPlan(
        head_relation="path",
        head_terms=(x, z),
        sources=(
            AtomSource(Atom("path", (x, y)), kind),
            AtomSource(Atom("edge", (y, z)), DatabaseKind.DERIVED),
        ),
        rule_name="tc_step",
    )


class TestHelpers:
    def test_match_atom_binds_new_variables(self):
        bindings = match_atom(Atom("edge", (x, y)), (1, 2), {})
        assert bindings == {x: 1, y: 2}

    def test_match_atom_respects_existing_bindings(self):
        assert match_atom(Atom("edge", (x, y)), (1, 2), {x: 1}) == {x: 1, y: 2}
        assert match_atom(Atom("edge", (x, y)), (1, 2), {x: 9}) is None

    def test_match_atom_constant_mismatch(self):
        assert match_atom(Atom("edge", (Constant(5), y)), (1, 2), {}) is None

    def test_match_atom_repeated_variable(self):
        assert match_atom(Atom("loop", (x, x)), (1, 1), {}) == {x: 1}
        assert match_atom(Atom("loop", (x, x)), (1, 2), {}) is None

    def test_bound_constraints(self):
        atom = Atom("r", (x, Constant(7), y))
        assert bound_constraints(atom, {x: 3}) == {0: 3, 1: 7}

    def test_project_head_with_expression(self):
        assert project_head((x, x + 1), {x: 4}) == (4, 5)


class TestJoinPlan:
    def test_describe_marks_delta(self):
        plan = simple_plan(delta=True)
        assert "pathδ" in plan.describe()
        assert "edge*" in plan.describe()

    def test_delta_relation(self):
        assert simple_plan(delta=True).delta_relation() == "path"
        assert simple_plan(delta=False).delta_relation() is None

    def test_reorder(self):
        plan = simple_plan()
        reordered = plan.reorder([1, 0])
        assert reordered.sources[0].literal.relation == "edge"
        with pytest.raises(ValueError):
            plan.reorder([0, 0])


class TestEvaluation:
    @pytest.mark.parametrize("style", ["push", "pull"])
    def test_two_way_join(self, style):
        storage = storage_with_graph()
        result = evaluate_subquery(storage, simple_plan(), style)
        assert result == {(1, 3), (2, 4)}

    @pytest.mark.parametrize("style", ["push", "pull"])
    def test_delta_source_restricts_input(self, style):
        storage = storage_with_graph()
        storage.swap_and_clear(["path"])  # delta becomes empty
        assert evaluate_subquery(storage, simple_plan(delta=True), style) == set()
        assert evaluate_subquery(storage, simple_plan(delta=False), style) == {(1, 3), (2, 4)}

    @pytest.mark.parametrize("style", ["push", "pull"])
    def test_negation_filters(self, style):
        storage = storage_with_graph()
        plan = JoinPlan(
            head_relation="ok",
            head_terms=(y,),
            sources=(
                AtomSource(Atom("edge", (x, y)), DatabaseKind.DERIVED),
                AtomSource(Atom("blocked", (y,), negated=True), None),
            ),
        )
        assert evaluate_subquery(storage, plan, style) == {(2,), (3,)}

    @pytest.mark.parametrize("style", ["push", "pull"])
    def test_comparison_and_assignment(self, style):
        storage = storage_with_graph()
        plan = JoinPlan(
            head_relation="succ",
            head_terms=(x, z),
            sources=(
                AtomSource(Atom("edge", (x, y)), DatabaseKind.DERIVED),
                AtomSource(Comparison("<", x, Constant(3)), None),
                AtomSource(Assignment(z, y * 10), None),
            ),
        )
        assert evaluate_subquery(storage, plan, style) == {(1, 20), (2, 30)}

    @pytest.mark.parametrize("style", ["push", "pull"])
    def test_assignment_to_bound_variable_acts_as_filter(self, style):
        storage = storage_with_graph()
        plan = JoinPlan(
            head_relation="self_loop_next",
            head_terms=(x,),
            sources=(
                AtomSource(Atom("edge", (x, y)), DatabaseKind.DERIVED),
                AtomSource(Assignment(y, x + 1), None),
            ),
        )
        # Every edge in the chain graph satisfies y == x + 1.
        assert evaluate_subquery(storage, plan, style) == {(1,), (2,), (3,)}

    @pytest.mark.parametrize("style", ["push", "pull"])
    def test_constants_in_atoms(self, style):
        storage = storage_with_graph()
        plan = JoinPlan(
            head_relation="from_two",
            head_terms=(y,),
            sources=(AtomSource(Atom("edge", (Constant(2), y)), DatabaseKind.DERIVED),),
        )
        assert evaluate_subquery(storage, plan, style) == {(3,)}

    def test_push_and_pull_agree_on_three_way_join(self):
        storage = storage_with_graph()
        plan = JoinPlan(
            head_relation="two_hop",
            head_terms=(x, z),
            sources=(
                AtomSource(Atom("edge", (x, y)), DatabaseKind.DERIVED),
                AtomSource(Atom("edge", (y, z)), DatabaseKind.DERIVED),
                AtomSource(Atom("path", (x, z)), DatabaseKind.DERIVED),
            ),
        )
        push = PushSubqueryEvaluator(storage).evaluate(plan)
        pull = PullSubqueryEvaluator(storage).evaluate(plan)
        assert push == pull

    def test_negation_with_unbound_variable_raises(self):
        storage = storage_with_graph()
        plan = JoinPlan(
            head_relation="bad",
            head_terms=(x,),
            sources=(
                AtomSource(Atom("blocked", (y,), negated=True), None),
                AtomSource(Atom("edge", (x, y)), DatabaseKind.DERIVED),
            ),
        )
        with pytest.raises((ValueError, KeyError)):
            PullSubqueryEvaluator(storage).evaluate(plan)

    def test_unknown_style_rejected(self):
        storage = storage_with_graph()
        with pytest.raises(ValueError):
            SubqueryEvaluator(storage, "vectorized")

    def test_push_consumer_counts(self):
        storage = storage_with_graph()
        rows = []
        count = PushSubqueryEvaluator(storage).evaluate_into(simple_plan(), rows.append)
        assert count == len(rows) == 2

    def test_indexes_do_not_change_results(self):
        storage = storage_with_graph()
        without = evaluate_subquery(storage, simple_plan())
        storage.register_index("edge", 0)
        storage.register_index("path", 1)
        with_indexes = evaluate_subquery(storage, simple_plan())
        assert without == with_indexes


# -- lowered block kernels ----------------------------------------------------

w = Variable("w")


def kernel_storage(**relations) -> StorageManager:
    """A storage holding ``relations`` (name -> rows) in Derived."""
    storage = StorageManager()
    for name, rows in relations.items():
        rows = list(rows)
        storage.declare(name, len(rows[0]) if rows else 2)
        storage.derived(name).insert_many(rows)
    return storage


def plan_of(head_terms, *literals) -> JoinPlan:
    return JoinPlan(
        head_relation="out",
        head_terms=tuple(head_terms),
        sources=tuple(
            AtomSource(
                literal,
                DatabaseKind.DERIVED
                if isinstance(literal, Atom) and not literal.negated else None,
            )
            for literal in literals
        ),
        rule_name="r",
    )


def run_kernel(storage, plan):
    """Lower and run; the pushdown oracle must agree."""
    rows = lower_plan(plan, storage.symbols)(storage)
    assert rows == evaluate_subquery(storage, plan)
    return rows


def strategies(stats):
    """How each positive atom of the batches so far got its rows."""
    return {key: stats[key] for key in ("index", "build", "scan")}


class TestLoweredJoin:
    def test_join_extends_block(self):
        storage = kernel_storage(src=[(0, 1), (0, 2)], edge=[(1, 2), (2, 3), (2, 4)])
        plan = plan_of((x, y, z), Atom("src", (x, y)), Atom("edge", (y, z)))
        assert run_kernel(storage, plan) == {(0, 1, 2), (0, 2, 3), (0, 2, 4)}

    def test_join_prunes_dead_columns(self):
        plan = plan_of((x, z), Atom("src", (x, y)), Atom("edge", (y, z)))
        first, second = join_layouts(plan)
        assert first.out_variables == (x, y)
        assert second.kept_slots == (0,) and second.out_variables == (x, z)
        storage = kernel_storage(src=[(0, 1)], edge=[(1, 2)])
        assert run_kernel(storage, plan) == {(0, 2)}

    def test_constants_and_repeated_variables(self):
        storage = kernel_storage(edge=[(1, 1), (1, 2), (2, 2)])
        assert run_kernel(storage, plan_of((x,), Atom("edge", (x, x)))) == {(1,), (2,)}
        pinned = plan_of((y,), Atom("edge", (Constant(1), y)))
        assert run_kernel(storage, pinned) == {(1,), (2,)}

    def test_keyed_join_filters_constants_through_the_index(self):
        storage = kernel_storage(src=[(1,), (2,)], t=[(1, 7, 5), (1, 8, 6), (2, 7, 9)])
        storage.register_index("t", 0)
        storage.derived("t").build_index(0)
        plan = plan_of((x, z), Atom("src", (x,)), Atom("t", (x, Constant(7), z)))
        stats = new_block_stats()
        kernel = lower_plan(plan, stats=stats)
        assert kernel(storage) == {(1, 5), (2, 9)}
        assert stats["batches"] == 1
        assert strategies(stats) == {"index": 1, "build": 0, "scan": 1}

    def test_all_constant_atom_keeps_or_drops_the_whole_block(self):
        storage = kernel_storage(src=[(7,), (8,)], edge=[(1, 2)])
        kept = plan_of((z,), Atom("src", (z,)), Atom("edge", (Constant(1), Constant(2))))
        assert run_kernel(storage, kept) == {(7,), (8,)}
        dropped = plan_of((z,), Atom("src", (z,)), Atom("edge", (Constant(9), Constant(9))))
        assert run_kernel(storage, dropped) == set()

    def test_key_only_atom_is_a_semi_join(self):
        """An atom that binds nothing new filters; it never multiplies rows."""
        storage = kernel_storage(src=[(1, 5), (2, 6), (3, 7)],
                                 edge=[(1, 10), (1, 11), (1, 12), (3, 13)])
        plan = plan_of((x, y), Atom("src", (x, y)), Atom("edge", (x, w)))
        (_, semi) = join_layouts(plan)
        assert semi.fresh_positions == () and semi.key_positions == (0,)
        kernel = lower_plan(plan)
        assert sorted(kernel.steps[1](storage, [(1, 5), (2, 6), (3, 7)])) == [(1, 5), (3, 7)]
        assert run_kernel(storage, plan) == {(1, 5), (3, 7)}
        # The same through a live index, with a constant to filter on.
        storage.register_index("edge", 0)
        storage.derived("edge").build_index(0)
        pinned = plan_of((x, y), Atom("src", (x, y)), Atom("edge", (x, Constant(13))))
        assert run_kernel(storage, pinned) == {(3, 7)}

    def test_cartesian_product(self):
        storage = kernel_storage(a=[(1,), (2,)], b=[(8,), (9,)])
        plan = plan_of((x, y), Atom("a", (x,)), Atom("b", (y,)))
        assert join_layouts(plan)[1].key_positions == ()
        assert run_kernel(storage, plan) == {(1, 8), (1, 9), (2, 8), (2, 9)}

    def test_empty_relation_short_circuits(self):
        storage = kernel_storage(src=[(0, 1)], edge=[])
        plan = plan_of((x, z), Atom("src", (x, y)), Atom("edge", (y, z)))
        assert run_kernel(storage, plan) == set()

    def test_multi_column_key(self):
        storage = kernel_storage(src=[(1, 2), (3, 4)], t=[(1, 2, 9), (3, 5, 8)])
        plan = plan_of((x, z), Atom("src", (x, y)), Atom("t", (x, y, z)))
        assert join_layouts(plan)[1].key_positions == (0, 1)
        assert run_kernel(storage, plan) == {(1, 9)}


class TestWholeRowSemiJoin:
    """A key covering every column probes the relation's own row set."""

    @staticmethod
    def run(storage, plan):
        stats = new_block_stats()
        rows = lower_plan(plan, storage.symbols, stats=stats)(storage)
        assert rows == evaluate_subquery(storage, plan)
        assert stats["build"] == 0, "a whole-row key must never build a table"
        return rows, stats

    def test_key_in_column_order(self):
        storage = kernel_storage(src=[(1, 2), (2, 1), (3, 4)], q=[(1, 2), (3, 9)])
        plan = plan_of((x, y), Atom("src", (x, y)), Atom("q", (x, y)))
        (_, semi) = join_layouts(plan)
        assert semi.key_positions == (0, 1) and semi.fresh_positions == ()
        rows, stats = self.run(storage, plan)
        assert rows == {(1, 2)}
        assert strategies(stats) == {"index": 1, "build": 0, "scan": 1}

    def test_column_order_differs_from_slot_order(self):
        # q is asymmetric: (2, 1) is in it, (1, 2) is not.  The block holds
        # (x, y); the atom wants (y, x).
        storage = kernel_storage(src=[(1, 2), (2, 1), (3, 4)], q=[(2, 1), (4, 4)])
        plan = plan_of((x, y), Atom("src", (x, y)), Atom("q", (y, x)))
        assert join_layouts(plan)[1].key_slots == (1, 0)
        assert self.run(storage, plan)[0] == {(1, 2)}

    def test_arity_three_with_a_dead_column(self):
        storage = kernel_storage(
            src=[(1, 2, 3), (3, 2, 1), (7, 8, 9)], t=[(3, 1, 2), (9, 9, 9)]
        )
        plan = plan_of((x,), Atom("src", (x, y, z)), Atom("t", (z, x, y)))
        assert self.run(storage, plan)[0] == {(1,)}

    def test_arity_one_and_repeated_variable(self):
        storage = kernel_storage(src=[(1, 1), (1, 2), (5, 5)], n=[(1,), (2,)],
                                 q=[(1, 1), (1, 2), (5, 6)])
        unary = plan_of((x, y), Atom("src", (x, y)), Atom("n", (y,)))
        assert self.run(storage, unary)[0] == {(1, 1), (1, 2)}
        diagonal = plan_of((x, y), Atom("src", (x, y)), Atom("q", (x, x)))
        assert self.run(storage, diagonal)[0] == {(1, 1), (1, 2)}

    def test_no_kept_columns_clamps_to_one_row(self):
        storage = kernel_storage(src=[(1, 2), (3, 4)], q=[(3, 4)])
        plan = plan_of((), Atom("src", (x, y)), Atom("q", (x, y)))
        assert self.run(storage, plan)[0] == {()}
        storage.derived("q").clear()
        storage.derived("q").insert((9, 9))
        assert self.run(storage, plan)[0] == set()

    def test_empty_relation(self):
        storage = kernel_storage(src=[(1, 2)], q=[])
        plan = plan_of((x, y), Atom("src", (x, y)), Atom("q", (x, y)))
        rows, stats = self.run(storage, plan)
        assert rows == set() and stats["index"] == 0

    def test_reads_the_copy_the_source_names(self):
        storage = kernel_storage(src=[(1, 2), (3, 4)], q=[(1, 2), (3, 4)])
        storage.force_delta("q", [(3, 4)])
        plan = JoinPlan("out", (x, y), (
            AtomSource(Atom("src", (x, y)), DatabaseKind.DERIVED),
            AtomSource(Atom("q", (x, y)), DatabaseKind.DELTA_KNOWN),
        ))
        assert self.run(storage, plan)[0] == {(3, 4)}


class TestHeadShapedLastJoin:
    """The last join writes head rows, whatever order the head wants them in,
    and hands back the set it built: nothing projects or de-duplicates after."""

    @staticmethod
    def last_step(storage, plan):
        """Run the plan; also return what its last step emitted on its own."""
        kernel = lower_plan(plan)
        rows = [()]
        for step in kernel.steps:
            rows = step(storage, rows)
        assert kernel(storage) == rows == evaluate_subquery(storage, plan)
        return kernel, rows

    def test_last_join_emits_head_rows(self):
        storage = kernel_storage(path=[(1, 2), (2, 3)], edge=[(2, 3), (3, 4)])
        plan = plan_of((x, z), Atom("path", (x, y)), Atom("edge", (y, z)))
        kernel, rows = self.last_step(storage, plan)
        assert isinstance(rows, set) and rows == {(1, 3), (2, 4)}
        assert kernel.project is None       # the set is the result as it stands

    def test_fresh_columns_may_lead(self):
        """edge first, path second: the head's x is fresh, its z is kept."""
        storage = kernel_storage(path=[(1, 2), (2, 3)], edge=[(2, 3), (3, 4)])
        plan = plan_of((x, z), Atom("edge", (y, z)), Atom("path", (x, y)))
        assert join_layouts(plan)[1].out_variables == (x, z)
        _, rows = self.last_step(storage, plan)
        assert isinstance(rows, set) and rows == {(1, 3), (2, 4)}

    def test_kept_columns_are_permuted_into_head_order(self):
        storage = kernel_storage(src=[(1, 2, 3)], edge=[(3, 4)])
        plan = plan_of((y, x, w), Atom("src", (x, y, z)), Atom("edge", (z, w)))
        assert join_layouts(plan)[1].out_variables == (y, x, w)
        _, rows = self.last_step(storage, plan)
        assert isinstance(rows, set) and rows == {(2, 1, 4)}

    def test_interleaved_head_needs_no_projection_either(self):
        """kept, fresh, kept, kept — no concatenation order gives this."""
        storage = kernel_storage(src=[(1, 2, 3), (5, 6, 3)], t=[(3, 4, 5), (3, 7, 5)])
        plan = plan_of((x, w, y, z), Atom("src", (x, y, z)), Atom("t", (z, w, Variable("v"))))
        kernel, rows = self.last_step(storage, plan)
        assert kernel.project is None and isinstance(rows, set)
        assert rows == {(1, 4, 2, 3), (1, 7, 2, 3), (5, 4, 6, 3), (5, 7, 6, 3)}

    def test_a_final_head_may_repeat_a_variable(self):
        storage = kernel_storage(src=[(1, 2)], edge=[(2, 3), (2, 4)])
        plan = plan_of((z, x, z), Atom("src", (x, y)), Atom("edge", (y, z)))
        kernel, rows = self.last_step(storage, plan)
        assert kernel.project is None and rows == {(3, 1, 3), (4, 1, 4)}

    def test_duplicate_candidates_collapse_inside_the_step(self):
        """Two derivations of one head row: the step itself emits it once."""
        storage = kernel_storage(path=[(1, 2), (1, 3)], edge=[(2, 9), (3, 9)])
        plan = plan_of((x, z), Atom("path", (x, y)), Atom("edge", (y, z)))
        _, rows = self.last_step(storage, plan)
        assert isinstance(rows, set) and rows == {(1, 9)}

    def test_a_filter_after_the_last_join_projects_with_plain_set(self):
        storage = kernel_storage(path=[(1, 2), (2, 3)], edge=[(2, 3), (3, 4)], no=[(2, 4)])
        plan = plan_of((z, x), Atom("path", (x, y)), Atom("edge", (y, z)),
                       Atom("no", (x, z), negated=True))
        kernel = lower_plan(plan)
        assert join_layouts(plan)[1].out_variables == (z, x)
        assert kernel.project is set
        assert run_kernel(storage, plan) == {(3, 1)}

    def test_head_constants_and_expressions_project(self):
        storage = kernel_storage(edge=[(1, 2), (3, 4)])
        plan = plan_of((x, Constant(0), x + y), Atom("edge", (x, y)))
        assert lower_plan(plan).project not in (None, set)
        assert run_kernel(storage, plan) == {(1, 0, 3), (3, 0, 7)}

    def test_the_result_is_a_fresh_set_every_call(self):
        storage = kernel_storage(edge=[(1, 2)])
        for head in ((x, y), (y, x)):
            kernel = lower_plan(plan_of(head, Atom("edge", (x, y))))
            first = kernel(storage)
            first.clear()                    # callers union / intersect in place
            assert kernel(storage) and storage.derived("edge").rows() == {(1, 2)}

    def test_projection_shapes(self):
        storage = kernel_storage(edge=[(1, 2), (3, 4)])
        edge = Atom("edge", (x, y))
        assert run_kernel(storage, plan_of((x, y), edge)) == {(1, 2), (3, 4)}
        assert run_kernel(storage, plan_of((y,), edge)) == {(2,), (4,)}
        assert run_kernel(storage, plan_of((y, x), edge)) == {(2, 1), (4, 3)}
        assert run_kernel(storage, plan_of((x, x), edge)) == {(1, 1), (3, 3)}
        assert run_kernel(storage, plan_of((), edge)) == {()}

    def test_zero_arity_head_over_an_empty_block_is_empty(self):
        storage = kernel_storage(edge=[])
        assert run_kernel(storage, plan_of((), Atom("edge", (x, y)))) == set()


class TestLoweredBuiltins:
    def test_negation_filters_members(self):
        storage = kernel_storage(src=[(1, 2), (3, 4)], edge=[(1, 2)])
        plan = plan_of((x, y), Atom("src", (x, y)), Atom("edge", (x, y), negated=True))
        assert run_kernel(storage, plan) == {(3, 4)}

    def test_negation_with_constants_and_column_subsets(self):
        storage = kernel_storage(src=[(1, 2), (3, 4)], edge=[(2, 0)], flag=[(3,)])
        constant = plan_of((x,), Atom("src", (x, y)),
                           Atom("edge", (y, Constant(0)), negated=True))
        assert run_kernel(storage, constant) == {(3,)}
        subset = plan_of((y,), Atom("src", (x, y)), Atom("flag", (x,), negated=True))
        assert run_kernel(storage, subset) == {(2,)}

    def test_negation_requires_bound_variables(self):
        plan = plan_of((x,), Atom("src", (x,)), Atom("edge", (x, z), negated=True))
        with pytest.raises(ValueError, match="unbound variable"):
            lower_plan(plan)

    def test_comparison_and_assignment(self):
        storage = kernel_storage(src=[(1, 2), (5, 2)])
        plan = plan_of((x, y, z), Atom("src", (x, y)), Comparison("<", x, y),
                       Assignment(z, x + y))
        assert run_kernel(storage, plan) == {(1, 2, 3)}

    def test_rebinding_an_assignment_is_an_equality_filter(self):
        storage = kernel_storage(src=[(1, 2), (5, 2)])
        hit = plan_of((x,), Atom("src", (x, y)), Assignment(y, x + 1))
        assert run_kernel(storage, hit) == {(1,)}
        miss = plan_of((x,), Atom("src", (x, y)), Assignment(y, Constant(9)))
        assert run_kernel(storage, miss) == set()

    def test_unbound_comparison_operand_is_rejected_at_lowering(self):
        plan = plan_of((x,), Atom("src", (x,)), Comparison("<", x, z))
        with pytest.raises(KeyError, match="unbound variable"):
            lower_plan(plan)
