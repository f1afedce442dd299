"""Parser for polynomial expressions.

Grammar (whitespace ignored, positions are byte offsets into the input):

    expr   := ['-'] term { ('+' | '-') term }
    term   := factor { '*' factor }
    factor := atom [ '^' INT ]
    atom   := RAT | NAME | '(' expr ')'
    RAT    := INT [ '/' INT ]

Numerals are unsigned; minus is only the binary or leading unary operator.
'/' exists solely inside rational literals, matching how coefficients are
printed, so every text() output parses back.  NAME must be a variable of
the ambient ring.  Parentheses nest at most MAX_DEPTH deep, so the
recursive descent stays far below the interpreter's recursion limit, and an
integer literal has at most MAX_DIGITS digits, the interpreter's default
limit for converting text to int.  A power is expanded only when its term
count, bounded by the number of monomials of degree k in the base's t
terms, is at most MAX_POWER_TERMS, and a product only when its factors'
term counts multiply to at most MAX_PRODUCT_PAIRS, the pairs of terms it
would multiply; a bigger one of either is a ResourceLimit.
"""

import re
from math import comb

from .errors import ExponentOverflow, PolySyntaxError, ResourceLimit, UnknownVariable
from .fields import QQ
from .poly import EXP_CAP

MAX_DEPTH = 100
MAX_DIGITS = 4300
MAX_POWER_TERMS = 1000
MAX_PRODUCT_PAIRS = 100_000

_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*^()/])"
)


def _tokenize(text):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise PolySyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "int" and len(m.group()) > MAX_DIGITS:
            raise PolySyntaxError("integer literal too long", pos)
        if m.lastgroup != "ws":
            toks.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, ring, toks):
        self.ring = ring
        self.toks = toks
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expr(self):
        kind, val, _ = self.peek()
        negate = kind == "op" and val == "-"
        if negate:
            self.take()
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                rhs = self.factor()
                pairs = len(acc.terms) * len(rhs.terms)
                if pairs > MAX_PRODUCT_PAIRS:
                    raise ResourceLimit(
                        f"product of a {len(acc.terms)}-term and a {len(rhs.terms)}-term "
                        f"polynomial multiplies more than {MAX_PRODUCT_PAIRS} pairs of terms"
                    )
                acc = acc * rhs
            else:
                return acc

    def factor(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.take()
            if kind != "int":
                raise PolySyntaxError("exponent must be an unsigned integer", pos)
            k = int(val)
            if k > EXP_CAP:
                raise ExponentOverflow(f"exponent {k} exceeds the cap {EXP_CAP}")
            t = len(base.terms)  # zero or a monomial stays one term at most
            if t > 1 and comb(k + t - 1, t - 1) > MAX_POWER_TERMS:
                raise ResourceLimit(
                    f"power {k} of a {t}-term polynomial may have more than "
                    f"{MAX_POWER_TERMS} terms"
                )
            return base**k
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3, p3 = self.take()
                if k3 != "int":
                    raise PolySyntaxError("denominator must be an unsigned integer", p3)
                if int(v3) == 0:
                    raise PolySyntaxError("denominator is zero", p3)
                return self.ring.const(QQ.div(int(val), int(v3)))
            return self.ring.const(int(val))
        if kind == "name":
            if val not in self.ring.index:
                raise UnknownVariable(f"unknown variable {val!r}", pos)
            return self.ring.var(val)
        if kind == "op" and val == "(":
            if self.depth == MAX_DEPTH:
                raise PolySyntaxError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            kind, val, pos = self.take()
            if not (kind == "op" and val == ")"):
                raise PolySyntaxError("expected ')'", pos)
            return inner
        raise PolySyntaxError(f"expected integer, variable, or '(', got {val!r}", pos)


def parse_poly(ring, text):
    """Parse `text` into a polynomial of `ring`."""
    p = _Parser(ring, _tokenize(text))
    result = p.expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise PolySyntaxError(f"trailing input {val!r}", pos)
    return result


def parse_many(ring, texts):
    return [parse_poly(ring, t) for t in texts]
