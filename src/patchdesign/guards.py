"""Boolean guard expressions over Petri-net markings.

Grammar (whitespace-insensitive)::

    expr   := term ('||' term)*
    term   := factor ('&&' factor)*
    factor := atom | '(' expr ')'
    atom   := '#' IDENT CMP INT | 'true' | 'false'
    CMP    := '==' | '!=' | '<=' | '>=' | '<' | '>'

'&&' binds tighter than '||'.  Atoms compare the token count of a place
against an integer constant.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass


class GuardSyntaxError(ValueError):
    """Malformed guard text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


_CMP_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<=": operator.le,
    ">=": operator.ge,
    "<": operator.lt,
    ">": operator.gt,
}


@dataclass(frozen=True)
class Comparison:
    place: str
    op: str
    value: int

    def evaluate(self, marking) -> bool:
        return _CMP_OPS[self.op](marking[self.place], self.value)

    def places(self):
        return {self.place}

    def unparse(self) -> str:
        return f"#{self.place} {self.op} {self.value}"


@dataclass(frozen=True)
class Literal:
    value: bool

    def evaluate(self, marking) -> bool:
        return self.value

    def places(self):
        return set()

    def unparse(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class _Junction:
    """Two or more terms joined by one connective; ``AllOf`` and
    ``AnyOf`` share its places and its unparsing, and compare unequal
    to each other over the same terms."""

    terms: tuple

    def places(self):
        return set().union(*(t.places() for t in self.terms))

    def _join(self, connective: str, nested: type) -> str:
        """The terms' text joined by ``connective``, each term of type
        ``nested`` in parentheses."""
        return connective.join(f"({t.unparse()})" if isinstance(t, nested) else t.unparse()
                               for t in self.terms)


class AllOf(_Junction):
    """Conjunction; a junction term is parenthesised, since '&&' binds
    tighter than '||'."""

    def evaluate(self, marking) -> bool:
        return all(t.evaluate(marking) for t in self.terms)

    def unparse(self) -> str:
        return self._join(" && ", _Junction)


class AnyOf(_Junction):
    """Disjunction; only a nested disjunction is parenthesised."""

    def evaluate(self, marking) -> bool:
        return any(t.evaluate(marking) for t in self.terms)

    def unparse(self) -> str:
        return self._join(" || ", AnyOf)


TRUE = Literal(True)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<hash>#)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)"
    r"|(?P<cmp>==|!=|<=|>=|<|>)|(?P<and>&&)|(?P<or>\|\|)"
    r"|(?P<lpar>\()|(?P<rpar>\))|(?P<bad>\S))",
    re.ASCII,  # no other script's digits or whitespace
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        self._tokenize()
        self.i = 0

    def _tokenize(self):
        """(kind, text, offset) of each token; trailing whitespace matches
        nothing, and the first character no token starts with raises."""
        for m in _TOKEN_RE.finditer(self.text):
            kind = m.lastgroup
            if kind == "bad":
                raise GuardSyntaxError(f"unexpected character {m[kind]!r}", m.start(kind))
            self.tokens.append((kind, m[kind], m.start(kind)))

    def _eof_offset(self) -> int:
        stripped = self.text.rstrip()
        return max(len(stripped) - 1, 0)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def expect(self, kind, what):
        tok = self.peek()
        if tok is None:
            raise GuardSyntaxError(f"expected {what}, found end of input", self._eof_offset())
        if tok[0] != kind:
            raise GuardSyntaxError(f"expected {what}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def parse(self):
        expr = self.expr()
        tok = self.peek()
        if tok is not None:
            raise GuardSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return expr

    def expr(self):
        """terms joined by '||', each term factors joined by '&&'."""
        return self._junction("or", lambda: self._junction("and", self.factor, AllOf), AnyOf)

    def _junction(self, connective, operand, junction):
        """operand (connective operand)*: one operand alone, or a
        ``junction`` of them all."""
        operands = [operand()]
        while self.peek() and self.peek()[0] == connective:
            self.i += 1
            operands.append(operand())
        return operands[0] if len(operands) == 1 else junction(tuple(operands))

    def factor(self):
        tok = self.peek()
        if tok is None:
            raise GuardSyntaxError("expected expression, found end of input", self._eof_offset())
        kind = tok[0]
        if kind == "lpar":
            self.i += 1
            inner = self.expr()
            self.expect("rpar", "')'")
            return inner
        if kind == "ident" and tok[1] in ("true", "false"):
            self.i += 1
            return Literal(tok[1] == "true")
        if kind == "hash":
            self.i += 1
            name = self.expect("ident", "place name")[1]
            op = self.expect("cmp", "comparison operator")[1]
            value = self.expect("int", "integer")[1]
            return Comparison(name, op, int(value))
        raise GuardSyntaxError(f"expected expression, found {tok[1]!r}", tok[2])


def parse_guard(text: str):
    """Parse guard text into an expression tree.

    Raises GuardSyntaxError with a byte offset on malformed input.
    """
    return _Parser(text).parse()


def check_places(expr, known_places) -> None:
    """Raise ValueError if the expression references an undeclared place."""
    unknown = expr.places() - set(known_places)
    if unknown:
        raise ValueError(f"guard references unknown place(s): {sorted(unknown)}")
