"""Differential property: ``parse_program`` against the clause grammar.

``parse_program`` reads ground facts with one regular expression and sends
everything else through the recursive-descent grammar.  The grammar alone
(``_parse_clause_by_clause``: every clause tokenised and descended) is the
oracle: for any source text the two must build the same program — facts in
the same order with the same value types (symbol ids are allocated in fact
order; a durability directory written before a reordering refuses to
recover), the same declarations, the same rules — or raise the same error at
the same line and column.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datalog.parser import _parse_clause_by_clause, parse_program


def outcome(parse, source):
    """Everything observable about one parse, in comparable form."""
    try:
        program = parse(source, name="p")
    except ValueError as error:  # ParseError carries its position in the text
        return ("error", type(error).__name__, str(error),
                getattr(error, "line", None), getattr(error, "column", None))
    return (
        "ok",
        # repr() tells 0.0 from -0.0 and 1 from 1.0; the types tell 1 from True.
        [(fact.relation, repr(fact.values), [type(v) for v in fact.values])
         for fact in program.facts],
        list(program.relations.items()),
        program.rules,
    )


def assert_same(source):
    assert outcome(parse_program, source) == outcome(_parse_clause_by_clause, source)


# -- source generator ----------------------------------------------------------------

RELATIONS = ["edge", "node", "Label", "sys_x", "p_1"]
ARITIES = {"edge": 2, "node": 1, "Label": 2, "sys_x": 0, "p_1": 3}

STRING_BODY = st.text(alphabet=" ab,).%/\n'\"-1X", max_size=6)


@st.composite
def quoted(draw):
    quote = draw(st.sampled_from("\"'"))
    return quote + draw(STRING_BODY).replace(quote, "") + quote


LITERAL = st.one_of(  # what the regular expression is meant to take
    st.integers(0, 10 ** 6).map(str),
    st.integers(0, 99).map("-{}".format),
    st.sampled_from(["1.5", "-2.25", "0.0", "-0.0", "007"]),
    quoted(),
    st.sampled_from(["a", "bob", "x_Y9", "count"]),
)
GROUND = st.sampled_from(["0 - 1", "2 * 3", "(4)", "- 3", "7 / 2", "1 + 1.5"])
BROKEN = st.sampled_from(["X", "_", "Who", "sum(X)", "+3", "1.", "1e3", "1 2", ""])

GAP = st.sampled_from(["", "", "", " ", "\n", "\r\n", "\t"])
SEPARATOR = st.sampled_from([
    "\n", "\n", "\n", " ", "", "\r\n", "\n\n", "  % trailing\n",
    "\n// edge(9, 9).\n", "\n% a % b // c\n",
    "\n%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%\n",
])


@st.composite
def fact(draw, broken=False):
    """A fact the grammar accepts — or, ``broken``, one it must reject."""
    relation = draw(st.sampled_from(RELATIONS))
    arity = ARITIES[relation]
    # Mostly bulk facts; some the grammar has to evaluate.
    kind = draw(st.sampled_from([LITERAL] * 5 + [GROUND]))
    dot = draw(st.sampled_from([".", ".", ".", ".", " .", "\n."]))
    if broken:
        flaw = draw(st.sampled_from(["argument", "arity", "dot"]))
        if flaw == "argument":
            kind = BROKEN
        elif flaw == "arity":
            arity += draw(st.sampled_from([-1, 1]))
        else:
            dot = draw(st.sampled_from(["", ". .", ".decl"]))
    arguments = [
        draw(GAP) + draw(st.one_of(LITERAL, kind)) + draw(GAP)
        for _ in range(max(arity, 0))
    ]
    if arguments and kind is GROUND and draw(st.booleans()):
        arguments[0] = " % c, d).\n" + arguments[0]  # a comment inside the clause
    name = relation + draw(st.sampled_from(["", "", "", " "]))
    return f"{name}({','.join(arguments)}){dot}"


RULE = st.sampled_from([
    ".decl edge(2)", ".decl node(1)", ".decl p_1(3)",
    "path(X, Y) :- edge(X, Y).",
    "path(X, Z) :- path(X, Y), edge(Y, Z).",
    "lonely(X) :- node(X), !edge(X, X).",
    "total(K, sum(V)) :- Label(K, V).",
    "next(X, Y) :- node(X), % why\n  Y = X + 1, Y <= 9.",
])
MALFORMED = st.sampled_from([
    ".decl node(2)", ".decl", "edge(1, 2) :- .", "edge(1, 2)", "@", "(",
    "even(X) :- node(X), Y = X % 2, Y == 0.",
])


@st.composite
def sources(draw):
    """Two programs in three are valid; the third has one flaw somewhere."""
    clauses = draw(st.lists(st.one_of(fact(), fact(), fact(), RULE), max_size=25))
    if draw(st.integers(0, 2)) == 0:
        flaw = draw(st.one_of(fact(broken=True), MALFORMED))
        clauses.insert(draw(st.integers(0, len(clauses))), flaw)
    return "".join(clause + draw(SEPARATOR) for clause in clauses)


@given(source=sources())
@settings(max_examples=400, deadline=None)
@example(source="edge(1, 2).\nnode(1).\nedge(2, 3).\nnode(2).\nedge(1, 2).\n")
@example(source='Label(1, "a, b"). Label(2, "c) d"). Label(3, \'e. f\').')
@example(source='Label(1, "x\ny").\nedge(1, X).')
@example(source="edge(-3, 1.5).\nedge(-0.0, 0 - 3).")
@example(source="sys_x().\nsys_x( ).\n")
def test_parse_program_equals_the_clause_grammar(source):
    assert_same(source)


@pytest.mark.parametrize("source", [
    # what only one path could get wrong, pinned by hand
    "edge(1, 2).decl node(1)",                  # DECL wins over DOT in the tokeniser
    "edge(1, 2)..",
    "edge(1.).", "edge(1.2.3).", "edge(1e3).", "edge(1abc).",
    "edge(1, 2) % no dot\n",
    "edge(1, % inside\n 2).",
    "edge(1,\n\n     2)\n.\n",
    "edge (1, 2) .",
    "edge(1, 2).\r\nedge(2, 3).\r\n",
    "edge(1,\x0c2).", "edge(1,\xa02).",          # whitespace the tokeniser rejects
    "edge(٣, 2).",                         # \d and int() both take any Unicode digit
    "edge('a\"b', \"c'd\").",
    "edge(count, sum).", "edge(sum(X)).",
    "edge(--3).", "edge(- 3).", "edge(+3).",
    "node(1).\nnode(1, 2).\nnode(3).",          # arity clash inside a run
    ".decl node(2)\nnode(1).",                  # ... and against a declaration
    "path(X) :- node(X).\npath(1, 2).",         # ... and against a rule
    "node(1).\nnode(2)\nnode(3).",
    "% only a comment",
    "%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%\npath(X) :- node(X).",
    "",
])
def test_hand_picked_sources(source):
    assert_same(source)


def test_interleaved_relations_keep_source_order():
    """The order symbol ids are allocated in — stated, not just compared."""
    source = "edge(1, 2).\nnode(a).\nedge(2, 3).\nnode('b c').\nedge(-3, 1.5).\n"
    facts = parse_program(source).facts
    assert [(fact.relation, fact.values) for fact in facts] == [
        ("edge", (1, 2)), ("node", ("a",)), ("edge", (2, 3)),
        ("node", ("b c",)), ("edge", (-3, 1.5)),
    ]
    assert [type(v) for v in facts[4].values] == [int, float]
    assert_same(source)
