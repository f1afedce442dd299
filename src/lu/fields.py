"""Coefficient fields: the rationals and prime fields of word-sized order.

Elements are plain Python values (Fraction for characteristic zero, int in
[0, p) for characteristic p), so polynomials stay hashable and comparable
for free.  The field object only carries the operations.
"""

from fractions import Fraction

from .errors import LuError


def _is_prime_u31(p):
    # deterministic Miller-Rabin; bases 2,3,5,7 decide primality below 3.2e9
    if p < 2:
        return False
    for q in (2, 3, 5, 7):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of rational numbers; elements are fractions.Fraction."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise LuError(f"cannot coerce {x!r} into the rationals")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def div(self, a, b):
        return a / b

    def sign_abs(self, a):
        """Split into (sign, magnitude) for printing."""
        return (-1, -a) if a < 0 else (1, a)

    def str_of(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Integers mod p for a prime p below 2**31; elements are ints in [0, p)."""

    def __init__(self, p):
        if not isinstance(p, int) or not 2 <= p < 2**31 or not _is_prime_u31(p):
            raise LuError(f"modulus must be a prime below 2**31, got {p!r}")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise LuError(
                    f"coefficient {x} has no value in GF({self.p}): "
                    f"its denominator is divisible by p = {self.p}"
                )
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        raise LuError(f"cannot coerce {x!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

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

_FP_CACHE = {}


def GF(p):
    """Cached prime field constructor."""
    if p not in _FP_CACHE:
        _FP_CACHE[p] = PrimeField(p)
    return _FP_CACHE[p]
