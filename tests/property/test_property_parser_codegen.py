"""Property-based tests for the parser round trip and the code generators."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import get_backend
from repro.datalog.literals import Atom
from repro.datalog.parser import parse_program
from repro.datalog.program import DatalogProgram
from repro.datalog.terms import Variable
from repro.ir.planning import build_join_plan
from repro.datalog.rules import Rule
from repro.relational.operators import evaluate_subquery
from repro.relational.storage import StorageManager

x, y, z = Variable("x"), Variable("y"), Variable("z")

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
small_ints = st.integers(min_value=0, max_value=99)


class TestParserProperties:
    @given(relation=identifiers, rows=st.lists(st.tuples(small_ints, small_ints), max_size=20))
    @settings(max_examples=50)
    def test_facts_round_trip_through_source(self, relation, rows):
        source = "\n".join(f"{relation}({a}, {b})." for a, b in rows)
        program = parse_program(source)
        parsed = {fact.values for fact in program.facts}
        assert parsed == set(rows)

    @given(rows=st.lists(st.tuples(small_ints, small_ints), min_size=1, max_size=15))
    @settings(max_examples=30, deadline=None)
    def test_parsed_and_dsl_programs_agree(self, rows):
        from repro.core.config import EngineConfig
        from repro.engine.engine import ExecutionEngine

        source = "\n".join(f"edge({a}, {b})." for a, b in rows)
        source += "\npath(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).\n"
        parsed_result = ExecutionEngine(
            parse_program(source), EngineConfig.interpreted()
        ).evaluate()["path"]

        program = DatalogProgram()
        program.add_facts("edge", rows)
        program.add_rule(Atom("path", (x, y)), [Atom("edge", (x, y))])
        program.add_rule(Atom("path", (x, z)), [Atom("path", (x, y)), Atom("edge", (y, z))])
        dsl_result = ExecutionEngine(program, EngineConfig.interpreted()).evaluate()["path"]
        assert parsed_result == dsl_result


class TestCodegenProperties:
    @given(
        edges=st.lists(st.tuples(small_ints, small_ints), max_size=30),
        paths=st.lists(st.tuples(small_ints, small_ints), max_size=30),
        backend=st.sampled_from(["quotes", "bytecode", "lambda", "irgen"]),
        use_indexes=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_compiled_subquery_equals_interpreted(self, edges, paths, backend, use_indexes):
        """For arbitrary relation contents, every backend's compiled artifact
        computes exactly what the generic interpreter computes."""
        storage = StorageManager()
        storage.declare("edge", 2)
        storage.declare("path", 2)
        if use_indexes:
            storage.register_index("edge", 0)
            storage.register_index("path", 1)
        for row in edges:
            storage.insert_derived("edge", row)
        storage.seed_delta("path", paths)

        rule = Rule(
            Atom("path", (x, z)), (Atom("path", (x, y)), Atom("edge", (y, z))), "tc"
        )
        plan = build_join_plan(rule, delta_index=0)
        reference = evaluate_subquery(storage, plan)
        artifact = get_backend(backend).compile_plans([plan], storage)
        assert artifact(storage) == reference
