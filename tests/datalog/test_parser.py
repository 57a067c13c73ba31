"""Unit tests for the textual Datalog parser."""

import pytest

from repro.datalog.literals import Assignment, Atom, Comparison
from repro.datalog.parser import ParseError, parse_program
from repro.datalog.terms import Aggregate, Constant, Variable


class TestFacts:
    def test_integer_facts(self):
        program = parse_program("edge(1, 2). edge(2, 3).")
        assert len(program.facts) == 2
        assert program.facts[0].values == (1, 2)

    def test_string_and_symbol_constants(self):
        program = parse_program('name(alice, "Alice Smith").')
        assert program.facts[0].values == ("alice", "Alice Smith")

    def test_float_constants(self):
        program = parse_program("weight(a, 1.5).")
        assert program.facts[0].values == ("a", 1.5)

    def test_negative_constant_via_expression(self):
        program = parse_program("delta(0 - 3).")
        assert program.facts[0].values == (-3,)

    def test_literal_kinds_keep_their_values_and_types(self):
        program = parse_program('m(-3, -1.5, 7, "a, b", \'c.d\', e_F).')
        values = program.facts[0].values
        assert values == (-3, -1.5, 7, "a, b", "c.d", "e_F")
        assert [type(v) for v in values] == [int, float, int, str, str, str]

    def test_nonground_fact_rejected(self):
        with pytest.raises(ParseError):
            parse_program("edge(X, 2).")


class TestRules:
    def test_simple_rule(self):
        program = parse_program("path(X, Y) :- edge(X, Y).")
        rule = program.rules[0]
        assert rule.head.relation == "path"
        assert rule.body[0].relation == "edge"
        assert rule.head.terms == (Variable("X"), Variable("Y"))

    def test_recursive_rule_with_multiple_atoms(self):
        program = parse_program("path(X, Z) :- path(X, Y), edge(Y, Z).")
        assert len(program.rules[0].body) == 2

    def test_negation(self):
        program = parse_program("alone(X) :- node(X), !linked(X).")
        negated = program.rules[0].negated_atoms()
        assert len(negated) == 1 and negated[0].relation == "linked"

    def test_negation_tilde_syntax(self):
        program = parse_program("alone(X) :- node(X), ~linked(X).")
        assert len(program.rules[0].negated_atoms()) == 1

    def test_comparison_literal(self):
        program = parse_program("small(X) :- num(X), X < 10.")
        builtin = program.rules[0].builtins()[0]
        assert isinstance(builtin, Comparison)
        assert builtin.op == "<"

    def test_assignment_literal(self):
        program = parse_program("next(X, Y) :- num(X), Y = X + 1.")
        builtin = program.rules[0].builtins()[0]
        assert isinstance(builtin, Assignment)
        assert builtin.target == Variable("Y")

    def test_assignment_with_walrus_style(self):
        program = parse_program("next(X, Y) :- num(X), Y := X * 2.")
        assert isinstance(program.rules[0].builtins()[0], Assignment)

    def test_equality_between_expressions_is_comparison(self):
        program = parse_program("eq(X, Y) :- num(X), num(Y), X + 1 == Y.")
        builtin = program.rules[0].builtins()[0]
        assert isinstance(builtin, Comparison)

    def test_aggregation_in_head(self):
        program = parse_program("total(K, sum(V)) :- sales(K, V).")
        head_terms = program.rules[0].head.terms
        assert isinstance(head_terms[1], Aggregate)
        assert head_terms[1].func == "sum"

    def test_operator_precedence(self):
        program = parse_program("r(X, Y) :- num(X), Y = X + 2 * 3.")
        assignment = program.rules[0].builtins()[0]
        assert assignment.evaluate({Variable("X"): 1}) == 7

    def test_parenthesised_expression(self):
        program = parse_program("r(X, Y) :- num(X), Y = (X + 2) * 3.")
        assignment = program.rules[0].builtins()[0]
        assert assignment.evaluate({Variable("X"): 1}) == 9


class TestDeclarationsAndComments:
    def test_decl_sets_arity(self):
        program = parse_program(".decl edge(2)\nedge(1, 2).")
        assert program.relations["edge"].arity == 2

    def test_comments_are_ignored(self):
        program = parse_program(
            "% a comment\n// another\nedge(1, 2). % trailing\n"
        )
        assert len(program.facts) == 1

    def test_uppercase_is_variable_lowercase_is_constant(self):
        program = parse_program("likes(X, bob) :- person(X).")
        head = program.rules[0].head
        assert head.terms[0] == Variable("X")
        assert head.terms[1] == Constant("bob")


class TestErrors:
    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_program("edge(1, 2)")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_program("edge(1, 2) @.")

    def test_error_reports_line(self):
        with pytest.raises(ParseError) as info:
            parse_program("edge(1, 2).\nbroken(")
        assert info.value.line == 2

    def test_missing_operator_in_builtin(self):
        with pytest.raises(ParseError):
            parse_program("r(X) :- num(X), X.")


class TestErrorPositions:
    """Line and column come from the character offset of the error."""

    def test_multi_line_string_does_not_skew_later_lines(self):
        with pytest.raises(ParseError) as info:
            parse_program('a("x\ny").\nb(1) :- .')
        assert (info.value.line, info.value.column) == (3, 9)

    def test_error_inside_a_run_of_bulk_facts_is_the_offending_clause(self):
        lines = [f"edge({i}, {i + 1})." for i in range(1000)]
        lines[612] = "edge(612, X)."
        with pytest.raises(ParseError, match="must be ground") as info:
            parse_program("\n".join(lines))
        assert (info.value.line, info.value.column) == (613, 13)

    def test_arity_clash_is_a_parse_error_at_the_fact(self):
        lines = [f"edge({i}, {i + 1})." for i in range(50)]
        lines[31] = "  edge(31, 32, 33)."
        with pytest.raises(ParseError, match="arity 3, previously 2") as info:
            parse_program("\n".join(lines))
        assert (info.value.line, info.value.column) == (32, 19)
        assert isinstance(info.value, ValueError)  # what callers caught before

    def test_missing_dot_points_where_the_dot_belongs(self):
        with pytest.raises(ParseError, match="expected '.' or ':-'") as info:
            parse_program("edge(1, 2)\nedge(2, 3).")
        assert (info.value.line, info.value.column) == (1, 11)


class TestPercent:
    """``%`` always starts a comment; there is no textual modulo."""

    def test_mid_line_percent_is_a_comment(self):
        program = parse_program(
            "r(X) :- n(X), % X % 2 == 0,\n        X < 4.\nn(1). % n(2).\n"
        )
        assert len(program.rules[0].body) == 2
        assert [fact.values for fact in program.facts] == [(1,)]

    def test_modulo_is_an_error_on_its_own_line(self):
        source = "n(1).\neven(X) :- n(X), Y = X % 2, Y == 0.\nn(2).\nn(3).\n"
        with pytest.raises(ParseError, match="expected DOT") as info:
            parse_program(source)
        assert (info.value.line, info.value.column) == (2, 23)


class TestEndToEnd:
    def test_parsed_program_evaluates(self):
        from repro import EngineConfig, ExecutionEngine

        source = """
        edge(1, 2). edge(2, 3). edge(3, 4).
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y), edge(Y, Z).
        """
        program = parse_program(source)
        results = ExecutionEngine(program, EngineConfig.interpreted()).evaluate()
        assert (1, 4) in results["path"]
        assert len(results["path"]) == 6
