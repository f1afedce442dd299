"""Coefficient fields: the rationals and prime fields of word-sized order.

Elements are plain Python values, so polynomials stay hashable and
comparable for free; the field object only carries the operations.  In
characteristic p an element is an int in [0, p).  A rational is an int when
it is integral and a Fraction otherwise, and every operation of `Rationals`
returns that normal form: most coefficients are small integers, and int
arithmetic is many times cheaper than Fraction arithmetic.  An integral
value prints, hashes and compares the same either way (str(3) ==
str(Fraction(3)), hash(3) == hash(Fraction(3))), so polynomials, memo keys
and printed output do not depend on the representation.  Division of two
ints goes through divmod and builds a Fraction only on a remainder, never
through `/`, so no float appears.

`fractions`, with `decimal` and `numbers` behind it, costs milliseconds of
every start-up, and most runs never divide with a remainder.  So this
module imports it at the first such division, and it is the one module
that knows so (`lu.unifactor`, which computes in Fractions, is itself
imported at the first factor search).  The Fraction type tests load
nothing: no value is a Fraction before `fractions` is in `sys.modules`.
"""

import sys
from functools import cache
from math import isqrt

from .errors import LuError, ResourceLimit


def is_int(v):
    """An int and not a bool: JSON's `true` and `false`, which Python counts as ints."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_fraction(x):
    """Whether x is a Fraction; loads nothing (see the module docstring)."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def is_rational(x):
    """Whether x is an int or a Fraction, a constant a ring can coerce."""
    return isinstance(x, int) or is_fraction(x)


def _canonical(s):
    """The int for an integral value, the Fraction otherwise."""
    return s if s.__class__ is int or s.denominator != 1 else s.numerator


class Rationals:
    """The field of rational numbers; elements are int when integral, else Fraction."""

    char = 0
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, int) or is_fraction(x):
            return _canonical(x)
        raise LuError(f"cannot coerce {x!r} into the rationals")

    def add(self, a, b):
        return _canonical(a + b)

    def mul(self, a, b):
        return _canonical(a * b)

    def neg(self, a):
        return _canonical(-a)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self.div(1, a)

    def div(self, a, b):
        # int/int is the common case; the Fraction test goes through the
        # numbers ABCs, so it runs only when the exact class test fails
        if a.__class__ is not int or b.__class__ is not int:
            if is_fraction(a) or is_fraction(b):
                return _canonical(a / b)
        q, r = divmod(a, b)
        if not r:
            return q
        from fractions import Fraction

        return Fraction(a, b)

    def sign_abs(self, a):
        """Split into (sign, magnitude) for printing."""
        return (-1, -a) if a < 0 else (1, a)

    def str_of(self, a):
        try:
            return str(a)
        except ValueError:  # more digits than the interpreter converts to text
            raise ResourceLimit("coefficient has too many digits to print") from None

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Integers mod p for a prime p below 2**31; elements are ints in [0, p)."""

    def __init__(self, p):
        # trial division, at most 46339 steps below 2**31; GF builds a field once
        word = isinstance(p, int) and 2 <= p < 2**31
        if not word or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            raise LuError(f"modulus must be a prime below 2**31, got {p!r}")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if is_fraction(x):
            if x.denominator % self.p == 0:
                raise LuError(
                    f"coefficient {x} has no value in GF({self.p}): "
                    f"its denominator is divisible by p = {self.p}"
                )
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        raise LuError(f"cannot coerce {x!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def sign_abs(self, a):
        # residues are canonical representatives, never printed with a sign
        return (1, a)

    def str_of(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


@cache
def GF(p):
    """Cached prime field constructor."""
    return PrimeField(p)
