"""Monomial orders as sort keys on exponent tuples.

Every order exposes `arity` and `key(exps)`; tuple comparison of keys agrees
with the order (bigger key means bigger monomial).  Orders are frozen
dataclasses so they can index Groebner basis caches.
"""

from dataclasses import dataclass
from operator import mul, neg

from .errors import DimensionMismatch


@dataclass(frozen=True)
class Lex:
    """Lexicographic order; priority[0] is the most significant variable index."""

    priority: tuple

    def __post_init__(self):
        if sorted(self.priority) != list(range(len(self.priority))):
            raise DimensionMismatch(f"priority is not a permutation: {self.priority}")

    @property
    def arity(self):
        return len(self.priority)

    def key(self, e):
        return tuple(e[i] for i in self.priority)


@dataclass(frozen=True)
class DegRevLex:
    """Total degree first, ties by smallest last exponent of the difference."""

    arity: int

    def key(self, e):
        return (sum(e), tuple(map(neg, reversed(e))))


@dataclass(frozen=True)
class WeightRefined:
    """Compare weight rows lexicographically (heavier first), ties decided by `tie`."""

    rows: tuple
    tie: object

    def __post_init__(self):
        for r in self.rows:
            if len(r) != self.tie.arity:
                raise DimensionMismatch(
                    f"weight row arity {len(r)} differs from order arity {self.tie.arity}"
                )

    @property
    def arity(self):
        return self.tie.arity

    def key(self, e):
        return (tuple([sum(map(mul, r, e)) for r in self.rows]), self.tie.key(e))


@dataclass(frozen=True)
class PositionOverTerm:
    """Order on module elements sum f_k*e_k encoded as polynomials.

    The exponent tuple holds `tie.arity` ring variables followed by one tag
    variable per position, exactly one of them 1.  Position 0 is strongest;
    inside a position `tie` decides.
    """

    tie: object
    positions: int

    @property
    def arity(self):
        return self.tie.arity + self.positions

    def position(self, e):
        return e.index(1, self.tie.arity) - self.tie.arity

    def key(self, e):
        n = self.tie.arity
        return (e[n:], self.tie.key(e[:n]))


def canonical_order(names):
    """Lex with later-alphabet names more significant.

    This is the order every printed or traced basis is reduced against, so
    that output is reproducible byte for byte.
    """
    ranked = sorted(range(len(names)), key=lambda i: names[i], reverse=True)
    return Lex(tuple(ranked))


def elimination_order(names, drop):
    """Order making every monomial that touches `drop` beat every one that avoids it."""
    dropset = set(drop)
    row = tuple(1 if nm in dropset else 0 for nm in names)
    return WeightRefined((row,), DegRevLex(len(names)))


def weight_order(rows, n):
    """Weight rows compared lexicographically, refined by degrevlex to a total order."""
    return WeightRefined(tuple(tuple(r) for r in rows), DegRevLex(n))
