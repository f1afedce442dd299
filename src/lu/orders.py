"""Monomial orders as sort keys on exponent tuples.

Every order exposes `arity` and `key(exps)`; tuple comparison of keys agrees
with the order (bigger key means bigger monomial).  Orders are frozen
dataclasses so they can index Groebner basis caches.
"""

from dataclasses import dataclass
from operator import mul, neg

from .errors import DimensionMismatch

LT, EQ, GT = -1, 0, 1


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
        return (tuple(sum(map(mul, r, e)) for r in self.rows), self.tie.key(e))


def compare_monomials(order, a, b):
    """Three-way comparison of two exponent tuples, returns LT, EQ, or GT."""
    if len(a) != order.arity or len(b) != order.arity:
        raise DimensionMismatch(
            f"exponent arity ({len(a)}, {len(b)}) does not match order arity {order.arity}"
        )
    ka, kb = order.key(a), order.key(b)
    if ka < kb:
        return LT
    if ka > kb:
        return GT
    return EQ


def canonical_order(names):
    """Lex with later-alphabet names more significant.

    This is the order every printed or traced basis is reduced against, so
    that output is reproducible byte for byte.
    """
    ranked = sorted(range(len(names)), key=lambda i: names[i], reverse=True)
    return Lex(tuple(ranked))


def degrevlex(n):
    return DegRevLex(n)


def elimination_order(names, drop):
    """Order making every monomial that touches `drop` beat every one that avoids it."""
    dropset = set(drop)
    row = tuple(1 if nm in dropset else 0 for nm in names)
    return WeightRefined((row,), DegRevLex(len(names)))


def weight_order(rows, n):
    """Weight rows compared lexicographically, refined by degrevlex to a total order."""
    return WeightRefined(tuple(tuple(r) for r in rows), DegRevLex(n))
