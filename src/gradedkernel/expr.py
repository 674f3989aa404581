"""Parser for the series interchange grammar.

    expr   := [sign] term (sign term)*
    term   := factor ('*' factor)*
    factor := INT ['/' INT] | NAME ['^' INT]

Variable order inside a term is free.  Each factor is read as a `Series`
(`NAME ^ INT` by `Series.variable`) and a term is the product of its factors,
so the product applies the Koszul signs and an odd variable squared is zero.
Parsing therefore costs time that grows with the length of the text, not
with the values of its exponents.  INT is ASCII digits only.  `0` and `1` are
ordinary rational factors.  The printer in `graded_core.format_series` emits
exactly this grammar, so every printed series re-parses to an equal one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Mapping, Tuple

from .errors import ProblemSyntaxError, UnknownNameError
from .graded_core import GradedVariable, Series


@dataclass
class _Token:
    kind: str  # NAME, INT, OP, END
    value: str
    line: int
    column: int


_OPS = set("+-*/^")


def _int_value(token: _Token) -> int:
    try:
        return int(token.value)
    except ValueError:  # past the interpreter's digit limit for int()
        raise ProblemSyntaxError(f"malformed integer literal ({len(token.value)} characters)",
                                 token.line, token.column) from None


def _tokenize(text: str, line: int, column: int) -> List[_Token]:
    tokens: List[_Token] = []
    i = 0
    cur_line, cur_col = line, column
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            cur_line += 1
            cur_col = 1
            i += 1
            continue
        if ch.isspace():
            cur_col += 1
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token("OP", ch, cur_line, cur_col))
            i += 1
            cur_col += 1
            continue
        if "0" <= ch <= "9":  # str.isdigit and int() also take non-ASCII digits
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("INT", text[i:j], cur_line, cur_col))
            cur_col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], cur_line, cur_col))
            cur_col += j - i
            i = j
            continue
        raise ProblemSyntaxError(f"unexpected character {ch!r}", cur_line, cur_col)
    tokens.append(_Token("END", "", cur_line, cur_col))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token], names: Mapping[str, GradedVariable]):
        self.tokens = tokens
        self.names = names
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_int(self) -> Tuple[int, _Token]:
        token = self.advance()
        if token.kind != "INT":
            raise ProblemSyntaxError("expected an integer", token.line, token.column)
        return _int_value(token), token

    def parse_expression(self) -> Series:
        total = Series.zero()
        sign = 1
        token = self.peek()
        if token.kind == "OP" and token.value in "+-":
            self.advance()
            sign = -1 if token.value == "-" else 1
        total = total + sign * self.parse_term()
        while True:
            token = self.peek()
            if token.kind == "OP" and token.value in "+-":
                self.advance()
                sign = -1 if token.value == "-" else 1
                total = total + sign * self.parse_term()
            elif token.kind == "END":
                return total
            else:
                raise ProblemSyntaxError(f"expected '+', '-' or end, got {token.value!r}",
                                         token.line, token.column)

    def parse_term(self) -> Series:
        term = self.parse_factor()
        while True:
            token = self.peek()
            if token.kind == "OP" and token.value == "*":
                self.advance()
                term = term * self.parse_factor()
            else:
                return term

    def parse_factor(self) -> Series:
        token = self.advance()
        if token.kind == "INT":
            value = Fraction(_int_value(token))
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.value == "/":
                self.advance()
                denominator, dtok = self.expect_int()
                if denominator == 0:
                    raise ProblemSyntaxError("zero denominator", dtok.line, dtok.column)
                value /= denominator
            return Series.constant(value)
        if token.kind == "NAME":
            var = self.names.get(token.value)
            if var is None:
                raise UnknownNameError(f"unknown variable {token.value!r}",
                                       token.line, token.column)
            exponent = 1
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.value == "^":
                self.advance()
                exponent, _ = self.expect_int()
            return Series.variable(var, exponent)
        raise ProblemSyntaxError(f"expected a number or a variable, got {token.value!r}",
                                 token.line, token.column)


def parse_series(text: str, names: Mapping[str, GradedVariable],
                 line: int = 1, column: int = 1) -> Series:
    """Parse an expression against a name -> variable environment."""
    parser = _Parser(_tokenize(text, line, column), names)
    return parser.parse_expression()
