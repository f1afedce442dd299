"""Exact multivariate polynomials with dictionary term storage.

A polynomial enters a ring through the parser (at the boundaries: scenes,
the command line, traces), the ring's constructors (`var`, `const`,
`monomial`), arithmetic, or `Polynomial.to_ring`, the one map between rings
that share variable names.

This module owns ring membership: `PolyRing.own`, the one test and the
one LuError, guards ideal generators, what an ideal divides, what a
valuation reads and blowup data, whose exponents would otherwise be read
against another ring's variables.
"""

from operator import add, le, sub

from .errors import DimensionMismatch, ExponentOverflow, LuError
from .fields import is_rational
from .orders import canonical_order

EXP_CAP = 1 << 16


def mono_mul(a, b):
    c = tuple(map(add, a, b))
    for x in c:
        if x > EXP_CAP:
            raise ExponentOverflow(f"exponent {x} exceeds the cap {EXP_CAP}")
    return c


def mono_divides(a, b):
    """True when the monomial with exponents a divides the one with exponents b."""
    return all(map(le, a, b))


def mono_div(b, a):
    """Exponent difference b - a; caller guarantees divisibility."""
    return tuple(map(sub, b, a))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_gcd(a, b):
    return tuple(map(min, a, b))


def mono_deg(a):
    return sum(a)


class PolyRing:
    """Polynomial ring over a fixed field with an ordered tuple of named variables.

    It carries `canonical`, the order its ideals' own bases and normal forms
    are reduced under and every trace prints bases in.
    """

    __slots__ = ("field", "names", "index", "canonical")

    def __init__(self, field, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise LuError(f"duplicate variable names: {names}")
        self.field = field
        self.names = names
        self.index = {nm: i for i, nm in enumerate(names)}
        self.canonical = canonical_order(names)

    @property
    def n(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.names)}]"

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = self.field.coerce(c)
        if c == self.field.zero:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.n: c})

    def var(self, name):
        if name not in self.index:
            raise LuError(f"no variable {name!r} in {self!r}")
        e = [0] * self.n
        e[self.index[name]] = 1
        return Polynomial(self, {tuple(e): self.field.one})

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.n:
            raise DimensionMismatch(f"expected {self.n} exponents, got {len(exps)}")
        if any(x < 0 for x in exps):
            raise LuError(f"negative exponent in {exps}")
        if any(x > EXP_CAP for x in exps):
            raise ExponentOverflow(f"exponent above cap in {exps}")
        c = self.field.coerce(coeff)
        if c == self.field.zero:
            return self.zero()
        return Polynomial(self, {exps: c})

    def extend(self, extra):
        """Same field, variables of self followed by the new names."""
        return PolyRing(self.field, self.names + tuple(extra))

    def drop(self, names):
        gone = set(names)
        return PolyRing(self.field, tuple(nm for nm in self.names if nm not in gone))

    def own(self, f, what=""):
        """f, if a polynomial of this ring; else a LuError naming it after `what`."""
        if isinstance(f, Polynomial) and (f.ring is self or f.ring == self):
            return f
        raise LuError(f"{what}{f!r} is not a polynomial of {self!r}")


class Polynomial:
    """An element of `ring`: `terms` maps exponent tuples to nonzero coefficients.

    A polynomial is an immutable value.  The constructor takes ownership of
    `terms`, and nothing mutates that dict afterwards; every operation builds
    a new one.  `leading` relies on this: it keeps its last answer, with the
    order it was asked under, in `_lead`.
    """

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring, terms):
        # takes ownership of terms; callers guarantee no zero coefficients
        self.ring = ring
        self.terms = terms
        self._lead = None

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise LuError(f"mixed rings: {self.ring!r} and {other.ring!r}")
            return other
        if is_rational(other):
            return self.ring.const(other)
        return NotImplemented

    def is_zero(self):
        return not self.terms

    def constant_value(self):
        """The coefficient if this is a constant, else None."""
        if not self.terms:
            return self.ring.field.zero
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            if not any(e):
                return c
        return None

    def degree(self):
        if not self.terms:
            return -1
        return max(mono_deg(e) for e in self.terms)

    def variables(self):
        """Names that actually occur."""
        seen = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    seen.add(self.ring.names[i])
        return seen

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.ring.field
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = F.add(t.get(e, F.zero), c)
            if s == F.zero:
                t.pop(e, None)
            else:
                t[e] = s
        return Polynomial(self.ring, t)

    __radd__ = __add__

    def __neg__(self):
        F = self.ring.field
        return Polynomial(self.ring, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.ring.field
        t = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = mono_mul(ea, eb)
                s = F.add(t.get(e, F.zero), F.mul(ca, cb))
                if s == F.zero:
                    t.pop(e, None)
                else:
                    t[e] = s
        return Polynomial(self.ring, t)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise LuError(f"polynomial power must be a nonnegative integer, got {k!r}")
        acc = self.ring.one()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return acc

    def scale(self, c):
        c = self.ring.field.coerce(c)
        if c == self.ring.field.zero:
            return self.ring.zero()
        F = self.ring.field
        out = Polynomial(self.ring, {e: F.mul(v, c) for e, v in self.terms.items()})
        if self._lead is not None:
            # a nonzero scalar moves no monomial: the leading one stays
            order, (e, _) = self._lead
            out._lead = order, (e, out.terms[e])
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not is_rational(other):
                return False
            other = self.ring.const(other)
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def leading(self, order=None):
        """(exponents, coefficient) of the biggest term, or None for zero.

        Computed once per order: the answer for the last order asked is kept,
        and an order that is, or equals, that one gets it back.
        """
        if not self.terms:
            return None
        order = order or self.ring.canonical
        lead = self._lead
        if lead is not None and (lead[0] is order or lead[0] == order):
            return lead[1]
        e = max(self.terms, key=order.key)
        lead = e, self.terms[e]
        self._lead = order, lead
        return lead

    def monic(self, order=None):
        if not self.terms:
            return self
        _, c = self.leading(order)
        if c == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(c))

    def to_ring(self, target, rename=None):
        """This polynomial in `target`, the one way between rings.

        Each occurring variable goes to the target's variable of the same
        name, or of the name `rename` (names to names) gives it.  Embedding
        into a chart ring, renaming chart variables and contracting to a
        subring are all this exponent remap.  A variable the target lacks,
        a rename that merges two variables, or another field is a LuError.
        Into its own ring with no rename, a polynomial is itself.
        """
        if target is self.ring and not rename:
            return self
        if target.field != self.ring.field:
            raise LuError(f"cannot move {self.ring!r} into {target!r}")
        names = self.ring.names
        if rename:
            names = [rename.get(nm, nm) for nm in names]
            if len(set(names)) < len(names):
                raise LuError(f"renaming {rename} merges variables of {self.ring!r}")
        pos = [target.index.get(nm) for nm in names]
        t = {}
        for e, c in self.terms.items():
            e2 = [0] * target.n
            for i, k in enumerate(e):
                if not k:
                    continue
                if pos[i] is None:
                    raise LuError(
                        f"polynomial mentions {names[i]!r}, absent from {target!r}"
                    )
                e2[pos[i]] = k
            t[tuple(e2)] = c
        return Polynomial(target, t)

    def text(self):
        """Deterministic rendering, biggest term first under the canonical order."""
        if not self.terms:
            return "0"
        key = self.ring.canonical.key
        F = self.ring.field
        parts = []
        for e, c in sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True):
            sign, mag = F.sign_abs(c)
            mono = "*".join(
                nm if k == 1 else f"{nm}^{k}"
                for nm, k in zip(self.ring.names, e)
                if k
            )
            if not mono:
                body = F.str_of(mag)
            elif mag == F.one:
                body = mono
            else:
                body = f"{F.str_of(mag)}*{mono}"
            if not parts:
                parts.append(body if sign > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if sign > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"<{self.text()}>"
