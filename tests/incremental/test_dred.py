"""Delete-and-rederive, called directly: both phases against brute force.

``over_delete`` + ``rederivation_seeds`` are driven by hand on a session's
storage (the way ``IncrementalSession._apply_incremental`` drives them) over
every head shape the set-at-a-time re-derivation has to get right, under
both executors and both value domains.  The oracle for the survivor set is
deliberately dumb: every rule's whole body evaluated in as-written order by
the pushdown recursion, intersected with the cone, plus the asserted rows.
A twin session then applies the same retraction through the public path and
is held to a from-scratch recompute.
"""

import pytest

from repro.core.config import EngineConfig
from repro.datalog.literals import Assignment, Atom, Comparison
from repro.datalog.program import DatalogProgram
from repro.datalog.terms import Constant, Variable
from repro.incremental import IncrementalSession
from repro.incremental.dred import over_delete, rederivation_seeds
from repro.ir.encoding import encode_plan
from repro.ir.planning import seed_plan
from repro.relational.operators import SubqueryEvaluator
from repro.relational.storage import DatabaseKind
from repro.telemetry import tracing

X, Y, Z, S = (Variable(v) for v in "XYZS")
DIAMOND = [(0, 1), (1, 2), (2, 4), (1, 3), (3, 4), (4, 5), (5, 6)]
TWO_CYCLES = [(1, 2), (2, 1), (1, 3), (3, 1), (3, 4)]


def edge(a, b):
    return Atom("edge", (a, b))


def path(a, b):
    return Atom("path", (a, b))


def closure(recursive_body, edges=DIAMOND, name="tc"):
    program = DatalogProgram(name)
    program.add_rule(path(X, Y), [edge(X, Y)])
    program.add_rule(path(X, Z), recursive_body)
    program.add_facts("edge", edges)
    return program


def head_constant():
    # Two rules for one head, both with a constant in it.
    program = closure([path(X, Y), edge(Y, Z)], name="head_constant")
    program.add_rule(Atom("hit", (X, Constant(4))), [path(X, Constant(4))])
    program.add_rule(Atom("hit", (X, Constant(4))), [edge(X, Constant(3))])
    program.add_rule(Atom("hit", (X, Constant(5))), [path(X, Constant(5))])
    return program


def repeated_head_variable():
    # 1 sits on two 2-cycles, 2 on one: retracting edge(2, 1) leaves loop(1, 1).
    program = DatalogProgram("repeated")
    program.add_rule(Atom("loop", (X, X)), [edge(X, Y), edge(Y, X)])
    program.add_facts("edge", TWO_CYCLES)
    program.add_fact("loop", (1, 2))  # off the diagonal: no rule can rescue it
    return program


def zero_arity_head():
    program = DatalogProgram("zero_arity")
    program.add_rule(Atom("on", ()), [edge(X, Y), edge(Y, X)])
    program.add_rule(Atom("seen", (X,)), [edge(X, Y), Atom("on", ())])
    program.add_facts("edge", TWO_CYCLES)
    return program


def builtins_in_body():
    program = closure([path(X, Y), edge(Y, Z), Comparison("!=", X, Z)], name="builtins")
    program.add_rule(
        Atom("far", (X, S)),
        [path(X, Y), edge(Y, Z), Assignment(S, Z + 10), Comparison("<=", S, 15)],
    )
    return program


def expression_head():
    # Y // 4 is not invertible: no row of bucket can be matched against it.
    program = closure([path(X, Y), edge(Y, Z)], name="expression_head")
    program.add_rule(Atom("bucket", (X, Y // 4)), [edge(X, Y)])
    return program


def asserted_and_derived():
    program = closure([path(X, Y), edge(Y, Z)], name="asserted_and_derived")
    program.add_fact("path", (1, 4))   # also derivable, two ways
    program.add_fact("path", (2, 5))   # also derivable, only through the cone
    return program


#: name -> (program builder, retraction, relations that must see a survivor)
CASES = {
    "tc_path_edge": (lambda: closure([path(X, Y), edge(Y, Z)]), {"edge": [(2, 4)]}, ["path"]),
    "tc_edge_path": (lambda: closure([edge(X, Y), path(Y, Z)]), {"edge": [(2, 4)]}, ["path"]),
    "tc_path_path": (lambda: closure([path(X, Y), path(Y, Z)]), {"edge": [(2, 4)]}, ["path"]),
    "head_constant": (head_constant, {"edge": [(2, 4)]}, ["path", "hit"]),
    "repeated_head_variable": (
        repeated_head_variable, {"edge": [(2, 1)], "loop": [(1, 2)]}, ["loop"],
    ),
    # seen(X) needs on(): it comes back by propagation, not as a seed.
    "zero_arity_head": (zero_arity_head, {"edge": [(2, 1)]}, ["on"]),
    "builtins_in_body": (builtins_in_body, {"edge": [(2, 4)]}, ["path", "far"]),
    "expression_head": (
        expression_head, {"edge": [(1, 2), (5, 6)]}, ["path", "bucket"],
    ),
    "asserted_and_derived": (
        asserted_and_derived, {"edge": [(2, 4)], "path": [(1, 4)]}, ["path"],
    ),
}


def config_for(executor, interning):
    return EngineConfig.interpreted().with_(executor=executor, interning=interning)


def run_dred(program, retraction, config):
    """Both DRed phases by hand; returns (session, cone, seeds, steps)."""
    session = IncrementalSession(program, config)
    session.refresh()
    storage, symbols = session.storage, session.storage.symbols
    evaluator = SubqueryEvaluator(storage, executor=config.executor)
    eligible = {}
    for name, rows in retraction.items():
        eligible[name] = {symbols.lookup_row(row) for row in rows}
        for row in eligible[name]:
            assert storage.forget_base_row(name, row)
    cone = over_delete(session.program, storage, eligible, evaluator)
    for name, rows in cone.deleted.items():
        storage.retract_rows(name, rows)
    steps = []
    seeds = rederivation_seeds(session.program, storage, cone, evaluator, steps=steps)
    return session, cone, seeds, steps


def brute_force_survivors(session, cone):
    """Asserted rows, plus every rule's whole body, as written, tuple at a time."""
    storage = session.storage
    oracle = SubqueryEvaluator(storage, executor="pushdown")
    expected = {
        name: {row for row in rows if storage.is_base_row(name, row)}
        for name, rows in cone.deleted.items()
    }
    for rule in session.program.rules:
        derived = oracle.evaluate(encode_plan(seed_plan(rule), storage.symbols))
        expected.setdefault(rule.head_relation, set()).update(
            derived & cone.rows(rule.head_relation)
        )
    return {name: rows for name, rows in expected.items() if rows}


def assert_deltas_empty(storage):
    for name in storage.relation_names():
        for kind in (DatabaseKind.DELTA_KNOWN, DatabaseKind.DELTA_NEW):
            assert not storage.relation(name, kind), (name, kind)


@pytest.mark.parametrize("interning", [True, False], ids=["interned", "raw"])
@pytest.mark.parametrize("executor", ["pushdown", "vectorized"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_survivors_match_brute_force_and_recompute(case, executor, interning):
    build, retraction, rescued_relations = CASES[case]
    config = config_for(executor, interning)
    session, cone, seeds, steps = run_dred(build(), retraction, config)

    assert_deltas_empty(session.storage)
    seeds = {name: rows for name, rows in seeds.items() if rows}
    assert seeds == brute_force_survivors(session, cone)
    for name in rescued_relations:  # the case exercises what it claims to
        assert seeds.get(name), f"{case}: no survivor in {name}"
        assert seeds[name] < cone.rows(name) or name == "on", (
            f"{case}: nothing left deleted in {name}"
        )
    for step in steps:
        assert step.survivors <= step.pending

    twin = IncrementalSession(build(), config)
    report = twin.apply(None, retraction)
    assert report.strategy == "incremental"
    assert report.over_deleted == cone.total()
    assert report.rederived == sum(len(rows) for rows in seeds.values())
    twin.self_check()
    assert_deltas_empty(twin.storage)


@pytest.mark.parametrize("executor", ["pushdown", "vectorized"])
def test_a_later_rule_sees_only_what_earlier_rules_left(executor):
    build, retraction, _ = CASES["head_constant"]
    _, cone, seeds, steps = run_dred(build(), retraction, config_for(executor, True))
    hit = [step for step in steps if step.relation == "hit"]
    assert [step.how for step in hit] == ["delta-join"] * len(hit)
    assert hit[0].pending == len(cone.rows("hit"))
    examined = hit[0].pending
    for earlier, later in zip(hit, hit[1:]):
        assert later.pending == earlier.pending - earlier.survivors
        examined += later.pending
    assert sum(step.survivors for step in hit) == len(seeds["hit"])
    assert examined < len(hit) * len(cone.rows("hit"))


@pytest.mark.parametrize("executor", ["pushdown", "vectorized"])
def test_expression_heads_fall_back_to_the_whole_body(executor):
    build, retraction, _ = CASES["expression_head"]
    _, _, _, steps = run_dred(build(), retraction, config_for(executor, True))
    how = {step.relation: step.how for step in steps}
    assert how == {"path": "delta-join", "bucket": "full-body"}
    assert all(
        (step.decision is None) == (step.how == "full-body") for step in steps
    )


def test_pending_rows_are_scrubbed_when_evaluation_fails():
    build, retraction, _ = CASES["tc_path_edge"]
    session = IncrementalSession(build(), config_for("vectorized", True))
    session.refresh()
    storage = session.storage
    evaluator = SubqueryEvaluator(storage, executor="vectorized")
    eligible = {
        name: {storage.symbols.lookup_row(row) for row in rows}
        for name, rows in retraction.items()
    }
    cone = over_delete(session.program, storage, eligible, evaluator)
    for name, rows in cone.deleted.items():
        storage.retract_rows(name, rows)

    class Boom(Exception):
        pass

    class FailingEvaluator:
        def evaluate(self, plan):
            assert storage.relation("path", DatabaseKind.DELTA_KNOWN)  # loaded
            raise Boom()

    with pytest.raises(Boom):
        rederivation_seeds(session.program, storage, cone, FailingEvaluator())
    assert_deltas_empty(storage)


@pytest.mark.parametrize("executor", ["pushdown", "vectorized"])
def test_cone_of_a_thousand_rows(executor):
    # A 40-node chain feeding a 40-node chain through one bridge edge: the
    # bridge's cone is 40 × 40 paths, found in rounds of whole frontiers.
    left = [(i, i + 1) for i in range(39)]
    right = [(100 + i, 101 + i) for i in range(39)]
    program = closure([path(X, Y), edge(Y, Z)], left + [(39, 100)] + right + [(0, 139)])
    session, cone, seeds, _ = run_dred(
        program, {"edge": [(39, 100)]}, config_for(executor, True)
    )
    assert len(cone.rows("path")) == 40 * 40
    assert cone.rounds >= 40
    symbols = session.storage.symbols
    assert set(symbols.resolve_rows(seeds["path"])) == {(0, 139)}
    assert_deltas_empty(session.storage)


class TestNoSilentPathChoice:
    """How each pending row was examined is the session's own output."""

    @staticmethod
    def counters(session):
        return {
            labels: value
            for name, labels, _, value in session.metrics.rows()
            if name == "dred_rederive_rows_total"
        }

    def test_counter_names_the_mechanism(self):
        build, retraction, _ = CASES["expression_head"]
        session = IncrementalSession(build(), config_for("vectorized", True))
        report = session.apply(None, retraction)
        counters = self.counters(session)
        assert counters["how=full-body"] > 0      # bucket(X, Y // 4)
        assert counters["how=delta-join"] > 0     # path
        assert "how=base" not in counters
        assert counters["how=delta-join"] + counters["how=full-body"] >= report.over_deleted - 1

    def test_still_asserted_rows_count_as_base(self):
        build, _, _ = CASES["asserted_and_derived"]
        session = IncrementalSession(build(), config_for("vectorized", True))
        session.apply(None, {"edge": [(2, 4)]})
        assert self.counters(session)["how=base"] == 2   # path(1,4), path(2,5)
        session.self_check()

    def test_each_pending_row_is_counted_once_per_rule_that_saw_it(self):
        build, retraction, _ = CASES["head_constant"]
        session = IncrementalSession(build(), config_for("vectorized", True))
        session.apply(None, retraction)
        # path: 9 pending rows seen by both rules (the first rescues none);
        # hit: 6 seen by two rules, then 5 — the second rescued hit(1, 4).
        assert self.counters(session)["how=delta-join"] == 9 + 9 + 6 + 6 + 5

    def test_span_and_explain_show_the_chosen_order(self):
        build, retraction, _ = CASES["tc_path_edge"]
        config = config_for("vectorized", True).with_(telemetry=tracing())
        session = IncrementalSession(build(), config)
        report = session.apply(None, retraction)
        span = next(s for s in session.last_trace.spans if s.name == "dred:rederive")
        assert span.attributes["rows"] == report.rederived
        assert span.attributes["survivors"] == report.rederived
        assert span.attributes["pending"] >= report.over_deleted - 1
        dred = [r for r in session.profile.reorders if r.stage == "dred"]
        assert [r.rule_name for r in dred] == ["path#1:rederive", "path#2:rederive"]
        for record in dred:
            order = ", ".join(record.decision.chosen_order)
            assert f"{record.rule_name}: {order}" in span.attributes["order"]
            assert sorted(record.decision.chosen_order) == sorted(
                record.decision.original_order
            )

    def test_connection_explain_lists_rederivation_orders(self):
        from repro import Database

        build, retraction, _ = CASES["tc_path_edge"]
        with Database(build(), config_for("vectorized", True)) as database:
            connection = database.connect()
            connection.retract_facts("edge", retraction["edge"])
            # Seven edges against nine pending rows: edge leads, as data says.
            assert "[dred] path#2:rederive: path ⋈ path ⋈ edge -> edge ⋈ " in (
                connection.explain()
            )
