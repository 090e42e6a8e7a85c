"""One tokenizer and one precedence parser for all text the workbench reads.

    expr  := [+|-] term {(+|-) term}
    term  := power {(*|/) power}
    power := atom [^ INT]
    atom  := INT | NAME | ( expr )

INT is a run of ASCII digits, NAME a letter (ASCII or θ) and then letters and
digits; the other tokens are ``+ - * / ^ ( ) [ ] , : ; ::``, and whitespace
between tokens is ignored.  Operators associate to the left: ``1/t*theta`` is
theta/t.  Comma lists ``[e, ...]`` and ``(e, ...)`` hold twisted polynomials
and points; modules and places put ``::``, ``;`` and ``finite:`` around them.

A `Ring` gives the text its meaning: the names it allows, its integer
constants, whether ``/`` divides, and a value's size in F_p-monomials (for a
fraction, the larger of numerator and denominator).  A base of size m > 1 is
raised to n only if Lucas' bound prod_i C(m-1+d_i, d_i) over the base-p digits
d_i of n, on the terms of the result, is at most `_POWER_TERM_CAP`; two
factors of sizes m, k > 1 are multiplied or divided only if m * k is at most
that cap too.  Otherwise, and for parentheses nested deeper than
`_NESTING_CAP`, parsing fails fast with ValueError.  This module imports
nothing from the package.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable

_POWER_TERM_CAP = 10 ** 4
_NESTING_CAP = 100

_TOKEN = re.compile(
    r"\s*(?:([0-9]+|[A-Za-zθ][A-Za-z0-9θ]*|::|[-+*/^()\[\],:;])|(\S))")
_BINARY = {"+": operator.add, "-": operator.sub,
           "*": operator.mul, "/": operator.truediv}


@dataclass(frozen=True)
class Ring:
    """The target of a parse; see the module docstring."""
    p: int
    names: Callable  # token -> value, or None if the ring has no such name
    const: Callable  # int -> value
    size: Callable  # value -> number of F_p-monomials
    divides: bool = True


def _lucas_terms(m: int, n: int, p: int) -> int:
    """Bound on the terms of f^n for f with m terms; stops once over the cap."""
    bound = 1
    while n and bound <= _POWER_TERM_CAP:
        n, d = divmod(n, p)
        bound *= math.comb(m - 1 + d, d)
    return bound


class Parser:
    """A cursor over the tokens of one text; each method reads one construct."""

    def __init__(self, text: str):
        self.tokens = []
        for token, stray in _TOKEN.findall(text):
            if stray:
                raise ValueError(f"unexpected character {stray!r}")
            self.tokens.append(token)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise ValueError("unexpected end of text")
        self.pos += 1
        return token

    def accept(self, token: str) -> bool:
        if self.peek() != token:
            return False
        self.pos += 1
        return True

    def expect(self, token: str):
        if not self.accept(token):
            raise ValueError(f"expected {token!r}, found {self.peek()!r}")

    def done(self, value):
        """`value`, once every token has been read."""
        if self.peek() is not None:
            raise ValueError(f"unexpected {self.peek()!r} after the end")
        return value

    def integer(self) -> int:
        token = self.take()
        if not token.isdigit():
            raise ValueError(f"expected an integer, found {token!r}")
        return int(token)

    def expr(self, ring: Ring):
        sign = self.take() if self.peek() in ("+", "-") else "+"
        acc = self.term(ring)
        if sign == "-":
            acc = -acc
        while self.peek() in ("+", "-"):
            acc = _BINARY[self.take()](acc, self.term(ring))
        return acc

    def term(self, ring: Ring):
        acc = self.power(ring)
        while self.peek() in ("*", "/"):
            op = self.take()
            if op == "/" and not ring.divides:
                raise ValueError("'/' is not defined in this ring")
            factor = self.power(ring)
            m, k = ring.size(acc), ring.size(factor)
            if m > 1 and k > 1 and m * k > _POWER_TERM_CAP:
                raise ValueError(f"a product of {m}- and {k}-term factors may"
                                 f" exceed {_POWER_TERM_CAP} terms")
            acc = _BINARY[op](acc, factor)
        return acc

    def power(self, ring: Ring):
        base = self.atom(ring)
        if not self.accept("^"):
            return base
        n = self.integer()
        m = ring.size(base)
        if m > 1 and _lucas_terms(m, n, ring.p) > _POWER_TERM_CAP:
            raise ValueError(f"a power of a {m}-term base may exceed"
                             f" {_POWER_TERM_CAP} terms")
        return base ** n

    def atom(self, ring: Ring):
        token = self.take()
        if token.isdigit():
            return ring.const(int(token))
        if token != "(":
            value = ring.names(token)
            if value is None:
                raise ValueError(f"unexpected {token!r}")
            return value
        if self.depth == _NESTING_CAP:
            raise ValueError(f"parentheses nest deeper than {_NESTING_CAP}")
        self.depth += 1
        value = self.expr(ring)
        self.expect(")")
        self.depth -= 1
        return value

    def items(self, opening: str, closing: str, ring: Ring) -> list:
        """A comma list of expressions between `opening` and `closing`."""
        self.expect(opening)
        if self.accept(closing):
            return []
        values = [self.expr(ring)]
        while self.accept(","):
            values.append(self.expr(ring))
        self.expect(closing)
        return values


def parse(text: str, ring: Ring):
    """The value in `ring` of `text`, one expression of the grammar."""
    parser = Parser(text)
    return parser.done(parser.expr(ring))
