"""A textual Datalog parser.

The grammar is a small superset of classic Datalog, close to what the
benchmark programs in the paper use (Soufflé-style surface syntax without the
type system):

.. code-block:: none

    % line comment                      // also a comment
    .decl edge(2)                       (optional arity declaration)
    edge(1, 2).                         ground fact
    path(X, Y) :- edge(X, Y).           rule
    path(X, Z) :- path(X, Y), edge(Y, Z).
    prime(X)   :- number(X), !composite(X).         stratified negation
    fib(N2, S) :- fib(N, A), fib(N1, B),
                  N1 = N + 1, N2 = N + 2, S = A + B, N2 <= 25.
    total(K, sum(V)) :- sales(K, V).                aggregation

Tokens starting with an upper-case letter or ``_`` are variables; numbers and
quoted strings are constants; lower-case bare identifiers in argument
position are string constants (as in Prolog/Datalog tradition).
``Var = expression`` binds (assignment); ``==``, ``!=``, ``<``, ``<=``, ``>``
and ``>=`` are comparisons.  Arithmetic is ``+ - * /`` with the usual
precedence; ``/`` is integer division.  ``%`` and ``//`` *always* start a
comment that runs to the end of the line, also in the middle of a clause:
the textual syntax has no modulo operator (the DSL has one).

Ground facts bypass the grammar.  A program read from text is mostly its
extensional database, so :func:`parse_program` tries one regular expression
at every clause start: relation name, a parenthesised list of *literal*
constants (an integer or decimal with an optional ``-`` directly in front, a
quoted string, a lower-case identifier) and the closing ``.``.  What it
matches becomes rows directly, in source order — symbol ids are allocated in
that order — with a run of one relation going through one ``add_facts``.
Everything else goes through the clause grammar, tokenised lazily from that
offset: rules, ``.decl``, arithmetic (``edge(0 - 1, 2).``), a comment inside
a clause, an upper-case argument (the "must be ground" error), an arity
clash, and any quoted string containing ``,`` ``)`` ``.`` ``%`` ``/`` or a
newline, which the expression cannot prove simple.

Errors carry the line and column of a character offset, computed from the
text when raised.  An "expected ..." error points just past the last token
its clause consumed — where the token belongs — not at whatever follows,
which after a mid-line ``%`` is the next line or the end of the file.
"""

from __future__ import annotations

import re
from typing import Any, List, NamedTuple, Optional, Tuple

from repro.datalog.literals import Assignment, Atom, Comparison, Literal
from repro.datalog.program import DatalogProgram
from repro.datalog.terms import (
    Aggregate,
    BinaryExpression,
    Constant,
    Term,
    Variable,
)

_AGGREGATE_NAMES = {"count", "sum", "min", "max", "mean"}


class ParseError(ValueError):
    """Raised on any syntax error, with line/column information."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class _Token(NamedTuple):
    kind: str
    value: str
    offset: int


_TOKEN_SPEC = [
    ("WS", r"[ \t\r\n]+"),
    ("COMMENT", r"(?:%|//)[^\n]*"),
    ("DECL", r"\.decl\b"),
    ("NUMBER", r"\d+(?:\.\d+)?"),
    ("STRING", r"\"[^\"]*\"|'[^']*'"),
    ("IMPLIES", r":-"),
    ("ASSIGN", r":="),
    ("LE", r"<="),
    ("GE", r">="),
    ("EQ", r"=="),
    ("NE", r"!="),
    ("LT", r"<"),
    ("GT", r">"),
    ("EQUALS", r"="),
    ("NOT", r"!|~"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("COMMA", r","),
    ("DOT", r"\."),
    ("PLUS", r"\+"),
    ("MINUS", r"-"),
    ("STAR", r"\*"),
    ("SLASH", r"/"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
]

_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))

# One ground clause, with the whitespace and comments in front of it.  Every
# piece is a subset of what the tokens above accept, and no two adjacent
# pieces can share a character (a comment must reach its line end), so a
# failed match costs one scan of the clause head, never a backtracking search.
_GAP = r"[ \t\r\n]*"
_LITERAL = (r"(?:-?\d+(?:\.\d+)?|\"[^\"\n,).%/]*\"|'[^'\n,).%/]*'"
            r"|[a-z][A-Za-z0-9_]*)")
_GROUND_CLAUSE = re.compile(
    rf"{_GAP}(?:(?:%|//)[^\n]*(?:\n|\Z){_GAP})*"
    rf"([A-Za-z_][A-Za-z0-9_]*){_GAP}"
    rf"\(({_GAP}(?:{_LITERAL}{_GAP}(?:,{_GAP}{_LITERAL}{_GAP})*)?)\){_GAP}"
    r"\.(?!decl\b)"
)


def _number(text: str) -> Any:
    return float(text) if "." in text else int(text)


def _literal(text: str) -> Any:
    """The value of one ``_LITERAL``, as the grammar's ``_parse_primary``
    values it (``-3`` is ``0 - 3`` there, so ``-0.0`` is ``0.0`` here too)."""
    first = text[0]
    if first in "\"'":
        return text[1:-1]
    if first == "-":
        return 0 - _number(text[1:])
    return _number(text) if first.isdigit() else text


def _ground_rows(arguments: List[str]) -> List[Tuple[Any, ...]]:
    """Rows from the argument texts ``_GROUND_CLAUSE`` captured."""
    try:  # the bulk EDB case: nothing but integers
        return [tuple(map(int, text.split(","))) for text in arguments]
    except ValueError:
        # No literal the expression accepts contains a comma.
        return [
            tuple(_literal(part.strip()) for part in text.split(","))
            if text.strip() else ()
            for text in arguments
        ]


class _Parser:
    """Recursive-descent parser, tokenising one clause at a time."""

    def __init__(self, text: str, program_name: str) -> None:
        self.text = text
        self.offset = 0  # where the next token is scanned from
        self.tokens: List[_Token] = []  # the current clause, as far as scanned
        self.position = 0
        self.program = DatalogProgram(program_name)

    # -- token utilities -------------------------------------------------------

    def _scan(self) -> _Token:
        text, offset = self.text, self.offset
        while offset < len(text):
            match = _TOKEN_RE.match(text, offset)
            if match is None:
                raise self._error(f"unexpected character {text[offset]!r}", offset)
            start, offset = offset, match.end()
            if match.lastgroup not in ("WS", "COMMENT"):
                self.offset = offset
                return _Token(match.lastgroup, match.group(), start)
        self.offset = offset
        return _Token("EOF", "", offset)

    def _peek(self, ahead: int = 0) -> _Token:
        tokens, index = self.tokens, self.position + ahead
        while len(tokens) <= index:
            tokens.append(self._scan())
        return tokens[index]

    def _advance(self) -> _Token:
        token = self._peek()
        self.position += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._peek()
        if token.kind != kind:
            raise self._missing(f"expected {kind}, got {token.kind} ({token.value!r})")
        return self._advance()

    def _error(self, message: str, offset: Optional[int] = None) -> ParseError:
        """At ``offset``; by default at the next token."""
        if offset is None:
            offset = self._peek().offset
        line_start = self.text.rfind("\n", 0, offset) + 1
        return ParseError(
            message, self.text.count("\n", 0, offset) + 1, offset - line_start + 1
        )

    def _missing(self, message: str) -> ParseError:
        """An "expected ..." error: just past the clause's last consumed token."""
        if self.position == 0:
            return self._error(message)
        last = self.tokens[self.position - 1]
        return self._error(message, last.offset + len(last.value))

    # -- grammar ---------------------------------------------------------------

    def parse(self, bulk_facts: bool = True) -> DatalogProgram:
        while True:
            # A clause ends on the last token it consumed: nothing is
            # buffered here, and ``offset`` is the start of the next clause.
            self.tokens.clear()
            self.position = 0
            if bulk_facts:
                bulk_facts = self._parse_ground_facts()
            kind = self._peek().kind
            if kind == "EOF":
                return self.program
            if kind == "DECL":
                self._parse_declaration()
            else:
                self._parse_clause()

    def _parse_ground_facts(self) -> bool:
        """Consume every ground clause ``_GROUND_CLAUSE`` matches from here.

        False once a run's arity clashes: the run is left unconsumed and the
        rest of the text goes through ``_parse_clause``, which raises on the
        offending fact with its position.
        """
        text, offset, match = self.text, self.offset, _GROUND_CLAUSE.match
        found = match(text, offset)
        while found is not None:
            run_start, relation, arguments = offset, found.group(1), []
            while found is not None and found.group(1) == relation:
                arguments.append(found.group(2))
                offset = found.end()
                found = match(text, offset)
            try:
                self.program.add_facts(relation, _ground_rows(arguments))
            except ValueError:
                self.offset = run_start
                return False
        self.offset = offset
        return True

    def _parse_declaration(self) -> None:
        self._expect("DECL")
        name = self._expect("IDENT").value
        self._expect("LPAREN")
        arity_token = self._expect("NUMBER")
        self._expect("RPAREN")
        self.program.declare_relation(name, int(arity_token.value))

    def _parse_clause(self) -> None:
        head = self._parse_atom(allow_aggregates=True)
        token = self._peek()
        if token.kind == "DOT":
            self._advance()
            values = []
            for term in head.terms:
                if isinstance(term, Constant):
                    values.append(term.value)
                elif not term.variables():
                    # Constant arithmetic such as ``edge(0 - 1, 2).``
                    values.append(term.substitute({}))
                else:
                    raise self._error(
                        f"fact {head.relation!r} must be ground", token.offset
                    )
            try:
                self.program.add_fact(head.relation, values)
            except ValueError as clash:  # arity differs from the relation's
                raise self._error(str(clash), token.offset) from None
            return
        if token.kind == "IMPLIES":
            self._advance()
            body = self._parse_body()
            self._expect("DOT")
            self.program.add_rule(head, body)
            return
        raise self._missing("expected '.' or ':-' after atom")

    def _parse_body(self) -> List[Literal]:
        literals = [self._parse_literal()]
        while self._peek().kind == "COMMA":
            self._advance()
            literals.append(self._parse_literal())
        return literals

    def _parse_literal(self) -> Literal:
        token = self._peek()
        if token.kind == "NOT":
            self._advance()
            atom = self._parse_atom()
            return atom.negate()
        if token.kind == "IDENT" and self._peek(1).kind == "LPAREN":
            # Could still be a comparison whose left side is an aggregate-like
            # call; plain Datalog does not allow that, so treat as an atom.
            saved = self.position
            atom = self._parse_atom()
            if self._peek().kind in ("LE", "GE", "EQ", "NE", "LT", "GT", "EQUALS", "ASSIGN"):
                # e.g. f(X) = Y is not supported; rewind and parse as expression.
                self.position = saved
            else:
                return atom
        return self._parse_builtin()

    def _parse_builtin(self) -> Literal:
        left = self._parse_expression()
        token = self._peek()
        operators = {
            "LE": "<=", "GE": ">=", "EQ": "==", "NE": "!=", "LT": "<", "GT": ">",
        }
        if token.kind in operators:
            self._advance()
            right = self._parse_expression()
            return Comparison(operators[token.kind], left, right)
        if token.kind in ("EQUALS", "ASSIGN"):
            self._advance()
            right = self._parse_expression()
            if isinstance(left, Variable):
                return Assignment(left, right)
            return Comparison("==", left, right)
        raise self._missing("expected a comparison or assignment operator")

    def _parse_atom(self, allow_aggregates: bool = False) -> Atom:
        name = self._expect("IDENT").value
        self._expect("LPAREN")
        terms: List[Term] = []
        if self._peek().kind != "RPAREN":
            terms.append(self._parse_argument(allow_aggregates))
            while self._peek().kind == "COMMA":
                self._advance()
                terms.append(self._parse_argument(allow_aggregates))
        self._expect("RPAREN")
        return Atom(name, tuple(terms))

    def _parse_argument(self, allow_aggregates: bool) -> Term:
        token = self._peek()
        if (
            allow_aggregates
            and token.kind == "IDENT"
            and token.value in _AGGREGATE_NAMES
            and self._peek(1).kind == "LPAREN"
        ):
            self._advance()
            self._expect("LPAREN")
            inner = self._expect("IDENT")
            self._expect("RPAREN")
            return Aggregate(token.value, Variable(inner.value))
        return self._parse_expression()

    # Expressions: term (+|-) term (*|/) ... with usual precedence.
    def _parse_expression(self) -> Term:
        left = self._parse_multiplicative()
        while self._peek().kind in ("PLUS", "MINUS"):
            op = "+" if self._advance().kind == "PLUS" else "-"
            right = self._parse_multiplicative()
            left = BinaryExpression(op, left, right)
        return left

    def _parse_multiplicative(self) -> Term:
        left = self._parse_primary()
        while self._peek().kind in ("STAR", "SLASH"):
            op = "*" if self._advance().kind == "STAR" else "//"
            right = self._parse_primary()
            left = BinaryExpression(op, left, right)
        return left

    def _parse_primary(self) -> Term:
        token = self._peek()
        if token.kind == "NUMBER":
            self._advance()
            return Constant(_number(token.value))
        if token.kind == "STRING":
            self._advance()
            return Constant(token.value[1:-1])
        if token.kind == "IDENT":
            self._advance()
            if token.value[0].isupper() or token.value[0] == "_":
                return Variable(token.value)
            return Constant(token.value)
        if token.kind == "LPAREN":
            self._advance()
            inner = self._parse_expression()
            self._expect("RPAREN")
            return inner
        if token.kind == "MINUS":
            self._advance()
            inner = self._parse_primary()
            return BinaryExpression("-", Constant(0), inner)
        raise self._error(f"unexpected token {token.value!r} in expression")


def parse_program(text: str, name: str = "parsed") -> DatalogProgram:
    """Parse Datalog source ``text`` into a :class:`DatalogProgram`."""
    return _Parser(text, name).parse()


def _parse_clause_by_clause(text: str, name: str = "parsed") -> DatalogProgram:
    """Every clause through the grammar, ground facts included: the oracle
    the tests and the bench gate hold :func:`parse_program` against."""
    return _Parser(text, name).parse(bulk_facts=False)
