"""Monomial orders as sort keys on exponent tuples.

Every order exposes `arity` and `key(exps)`; tuple comparison of keys agrees
with the order (bigger key means bigger monomial).  Orders are immutable
and compare by class and fields, so they can index Groebner basis caches.
"""

from operator import mul, neg

from .errors import DimensionMismatch


class _Order:
    """Fields named by the subclass's `__slots__`.  Two orders are equal
    when they are of one class with equal fields (named tuples of two
    classes would compare equal); the hash, which every memo lookup reads,
    is computed once."""

    __slots__ = ("_key", "_hash")

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", fields)
        object.__setattr__(self, "_hash", hash(fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return type(self) is type(other) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key))
        return f"{type(self).__name__}({args})"


class Lex(_Order):
    """Lexicographic order; priority[0] is the most significant variable index."""

    __slots__ = ("priority",)

    def __init__(self, priority):
        if sorted(priority) != list(range(len(priority))):
            raise DimensionMismatch(f"priority is not a permutation: {priority}")
        super().__init__(priority)

    @property
    def arity(self):
        return len(self.priority)

    def key(self, e):
        return tuple(e[i] for i in self.priority)


class DegRevLex(_Order):
    """Total degree first, ties by smallest last exponent of the difference."""

    __slots__ = ("arity",)

    def key(self, e):
        return (sum(e), tuple(map(neg, reversed(e))))


class WeightRefined(_Order):
    """Compare weight rows lexicographically (heavier first), ties decided by `tie`."""

    __slots__ = ("rows", "tie")

    def __init__(self, rows, tie):
        for r in rows:
            if len(r) != tie.arity:
                raise DimensionMismatch(
                    f"weight row arity {len(r)} differs from order arity {tie.arity}"
                )
        super().__init__(rows, tie)

    @property
    def arity(self):
        return self.tie.arity

    def key(self, e):
        return (tuple([sum(map(mul, r, e)) for r in self.rows]), self.tie.key(e))


class PositionOverTerm(_Order):
    """Order on module elements sum f_k*e_k encoded as polynomials.

    The exponent tuple holds `tie.arity` ring variables followed by one tag
    variable per position, exactly one of them 1.  Position 0 is strongest;
    inside a position `tie` decides.
    """

    __slots__ = ("tie", "positions")

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
