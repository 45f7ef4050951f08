"""Recursive-descent parser for the element grammar used by the CLI:
`_tokens` splits the text, and `evaluate` descends the grammar below by
one nested function per rule over the token list, which ends in an eof
token.

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


def _tokens(text):
    """The (kind, value, pos) tokens of `text`, ending in an eof token."""
    tokens = []
    for match in _TOKEN.finditer(text):
        num, sym, bad = match.groups()
        pos = match.start()
        if num:
            try:
                tokens.append(("int", int(num), pos))
            except ValueError:  # past Python's limit on int digits
                raise ParseError(f"integer literal of {len(num)} digits "
                                 "is too long", pos) from None
        elif sym:
            tokens.append((sym, None, pos))
        elif bad:
            raise ParseError(f"unexpected character {bad!r}", pos)
    tokens.append(("eof", None, len(text)))
    return tokens


def evaluate(ctx: AlgebraCtx, text: str):
    """The element of A (a DElem) that `text` denotes."""
    toks = _tokens(text)[::-1]  # the next token is toks[-1]; eof is taken only to fail

    def expr():
        value = term()
        while toks[-1][0] in ("+", "-"):
            op = toks.pop()[0]
            rhs = term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term():
        value = factor()
        while toks[-1][0] == "*":
            toks.pop()
            value = value * factor()
        return value

    def factor():
        neg = False
        while toks[-1][0] == "-":
            toks.pop()
            neg = not neg
        value = atom()
        if toks[-1][0] == "^":
            pos = toks.pop()[2]
            kind, exp, at = toks.pop()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer",
                                 at if kind != "eof" else pos + 1)
            value = value ** exp
        return -value if neg else value

    def atom():
        kind, val, pos = toks.pop()
        if kind == "int":
            return ctx.from_int(val)
        if kind == "th":
            return ctx.from_T(ctx.T.gen)
        if kind == "t" and ctx.T.n == 1:
            raise ParseError("symbol 't' is only defined in equal "
                             "characteristic", pos)
        if kind in ("t", "pK"):
            return ctx.from_T(ctx.T.uniformizer)
        if kind == "x":
            return ctx.pi_D
        if kind == "(":
            value = expr()
            kind, _, pos = toks.pop()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            return value
        raise ParseError(f"unexpected token {kind!r}", pos)

    value = expr()
    kind, _, pos = toks[-1]
    if kind != "eof":
        raise ParseError(f"unexpected token {kind!r}", pos)
    return value
