"""Recursive-descent parser for the element grammar used by the CLI.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := ('-')* atom ('^' INT)?
    atom   := INT | 'th' | 't' | 'x' | 'pK' | '(' expr ')'

INT is a run of decimal digits, any Unicode decimal digit included; a
literal longer than Python's limit on int digits is a parse error at its
position.  `th` is the generator of T over the prime ring, `t` the
equal-mode uniformizer, `x` the element pi_D, and `pK` the uniformizer of
K.  Expressions evaluate to elements of the order A (DElem).
"""

from __future__ import annotations

import re

from .algebra import AlgebraCtx
from .errors import ParseError


# one token per match: whitespace (skipped), an INT, a symbol or operator,
# or any other single character (an error)
_TOKEN = re.compile(r"\s+|(\d+)|(th|pK|[tx+*^()-])|(.)", re.S)


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        self.idx = 0
        for match in _TOKEN.finditer(text):
            num, sym, bad = match.groups()
            pos = match.start()
            if num:
                try:
                    self.tokens.append(("int", int(num), pos))
                except ValueError:  # past Python's limit on int digits
                    raise ParseError(f"integer literal of {len(num)} digits "
                                     "is too long", pos) from None
            elif sym:
                self.tokens.append((sym, None, pos))
            elif bad:
                raise ParseError(f"unexpected character {bad!r}", pos)

    def peek(self):
        if self.idx < len(self.tokens):
            return self.tokens[self.idx]
        return ("eof", None, len(self.text))

    def next(self):
        tok = self.peek()
        self.idx += 1
        return tok


class Parser:
    def __init__(self, ctx: AlgebraCtx):
        self.ctx = ctx

    def parse(self, text):
        lex = _Lexer(text)
        value = self._expr(lex)
        tok = lex.peek()
        if tok[0] != "eof":
            raise ParseError(f"unexpected token {tok[0]!r}", tok[2])
        return value

    def _expr(self, lex):
        value = self._term(lex)
        while lex.peek()[0] in ("+", "-"):
            op = lex.next()[0]
            rhs = self._term(lex)
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self, lex):
        value = self._factor(lex)
        while lex.peek()[0] == "*":
            lex.next()
            value = value * self._factor(lex)
        return value

    def _factor(self, lex):
        neg = False
        while lex.peek()[0] == "-":
            lex.next()
            neg = not neg
        value = self._atom(lex)
        if lex.peek()[0] == "^":
            pos = lex.next()[2]
            tok = lex.next()
            if tok[0] != "int":
                raise ParseError("exponent must be a non-negative integer",
                                 tok[2] if tok[0] != "eof" else pos + 1)
            value = value ** tok[1]
        return -value if neg else value

    def _atom(self, lex):
        ctx = self.ctx
        tok = lex.next()
        kind, val, pos = tok
        if kind == "int":
            return ctx.from_int(val)
        if kind == "th":
            return ctx.from_T(ctx.T.gen)
        if kind == "t":
            if ctx.T.n == 1:
                raise ParseError("symbol 't' is only defined in equal "
                                 "characteristic", pos)
            return ctx.from_T(ctx.T.uniformizer)
        if kind == "x":
            return ctx.pi_D
        if kind == "pK":
            return ctx.from_T(ctx.T.uniformizer)
        if kind == "(":
            value = self._expr(lex)
            closing = lex.next()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2])
            return value
        raise ParseError(f"unexpected token {kind!r}", pos)


def evaluate(ctx: AlgebraCtx, text: str):
    return Parser(ctx).parse(text)
