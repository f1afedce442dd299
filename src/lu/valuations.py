"""Weight valuations of finite rank and their instance certificates.

A weight valuation is given by a support prime P and an integer weight row
per rank coordinate.  The value of a residue class is the lexicographic
minimum of the weight vectors of the monomials in its normal form against P.
That normal form computes the true filtration value exactly when P falls in
one of three certified classes: the zero ideal, an ideal generated by
variables, or an ideal whose reduced basis is weight homogeneous (then the
weight graded ring of R is R itself regraded, so multiplicativity is the
primality of P and no representative can beat the normal form).  certify()
refuses anything else rather than returning values that may undershoot.

Every normal form is taken against P's one basis, reduced under the ring's
canonical lex order; the weights build no order of their own.  For a
certified support the value does not depend on that choice.  A zero or
variable support reduces a monomial to itself or to 0 under every order.  A
weight homogeneous P has a weight homogeneous reduced basis under every
monomial order (Cox, Little & O'Shea, ch. 8 §3), so division keeps each
weight piece f_w of f in its weight: NF(f) = sum_w NF(f_w), and NF(f_w) = 0
exactly when f_w lies in P.  The value is therefore the least w with f_w
outside P, under any order.  That homogeneity is the condition that makes a
certified value independent of the order; outside the classes the values
read can move with it.

Values are read by linearity.  Division by a reduced Groebner basis leaves
the unique remainder with no term in the leading ideal, so the normal form
is linear: NF(sum c_e x^e) = sum c_e NF(x^e).  A valuation keeps NF(x^e),
with the weight vector of each of its monomials, in a table of its own, the
first time a monomial e reaches `value_of`; every later value reading that
monomial adds its stored terms instead of dividing again.  The equality
needs neither homogeneity nor primality of the support, so an uncertified
valuation reads the same values as one that divides each element whole.
The table lives and dies with its valuation and holds one entry per
distinct monomial passed in: for `axiom_violations`, whose samples have
degree at most 4, that is at most C(n + 8, n) entries, the monomials of
degree at most 8 that a product of two samples reaches.

`axiom_violations` reads the same table without building a product, on
samples drawn packed: a monomial x^e is the one int sum(e_i * 9**i).  A
sample's exponents are at most 4, so a product's are at most 8, below the
base: no digit carries, and the key of x^a * x^b is the sum of their keys.
An index that lives for one call maps each key to NF(x^e) as (slot,
coefficient) pairs, a slot being a small int naming one normal-form
monomial, with the weight vectors in a list.  A key the index misses is
unpacked and read from the valuation's table, or divided into it, as
value_of does, so the table gets exactly the entries that value_of(f),
value_of(g) and value_of(f * g) would add.  Per sample it sums NF(f) and
NF(g) once each, and reads v(f * g) from the sum over the product's
terms, multiplied out by adding keys: NF(f * g) = sum c_a c_b
NF(x^(a + b)).  Only multiplicativity is sampled: since NF(f + g) =
NF(f) + NF(g), the ultrametric inequality, and its equality at distinct
values, hold by construction of the reading (the proof is in
`axiom_violations`).  f and g become Polynomials only when a violation
is reported.
"""

from functools import cache
from operator import add, mul

from .decomp import NOT_PRIME, is_prime, is_variable_gb, minimal_primes
from .errors import (
    CertificationError,
    InitialIdealNotPrime,
    LuError,
    NotCentered,
    NotMinimalPrime,
    UnsupportedInstance,
)
from .fields import is_int
from .ideals import Ideal
from .poly import Polynomial


class Value:
    """Element of Z^k ordered lexicographically by `<` alone, or infinity."""

    __slots__ = ("vec",)

    def __init__(self, vec):
        if vec is not None:
            vec = tuple(vec)
            if not all(map(is_int, vec)):
                raise LuError(f"value coordinates must be integers, got {vec!r}")
        self.vec = vec

    @classmethod
    def _of(cls, vec):
        """A finite value from a tuple of ints, taken as it is."""
        v = object.__new__(cls)
        v.vec = vec
        return v

    @property
    def is_infinite(self):
        return self.vec is None

    def __eq__(self, other):
        return isinstance(other, Value) and self.vec == other.vec

    def __hash__(self):
        return hash(self.vec)

    def __lt__(self, other):
        if self.is_infinite:
            return False
        if other.is_infinite:
            return True
        if len(self.vec) != len(other.vec):
            raise LuError("comparing values of different rank")
        return self.vec < other.vec

    def __add__(self, other):
        if self.is_infinite or other.is_infinite:
            return Value(None)
        return Value._of(tuple(map(add, self.vec, other.vec)))

    def __sub__(self, other):
        if other.is_infinite:
            raise LuError("cannot subtract an infinite value")
        if self.is_infinite:
            return Value(None)
        return Value(tuple(a - b for a, b in zip(self.vec, other.vec)))

    @property
    def is_positive(self):
        if self.is_infinite:
            return True
        return self.vec > (0,) * len(self.vec)

    @property
    def is_zero(self):
        return self.vec == (0,) * len(self.vec) if self.vec is not None else False

    def truncate(self, r):
        if self.is_infinite:
            return Value(None)
        return Value(self.vec[:r])

    def text(self):
        if self.is_infinite:
            return "inf"
        return "(" + ",".join(str(x) for x in self.vec) + ")"

    def __repr__(self):
        return f"Value({self.text()})"


class WeightValuation:
    """Support prime plus a weight row per rank coordinate."""

    __slots__ = ("ring", "support", "rows", "_monomial_nf", "_weight")

    def __init__(self, ring, support, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise LuError("a weight valuation needs at least one row")
        for r in rows:
            if len(r) != ring.n:
                raise LuError(
                    f"weight row of length {len(r)} in a ring with {ring.n} variables"
                )
            if not all(map(is_int, r)):
                raise LuError(f"weight row entries must be integers, got {r!r}")
        if support.ring != ring:
            raise LuError("support lives in a different ring")
        self.ring = ring
        self.support = support
        self.rows = rows
        # exps -> the normal form of x^exps as (exps, coeff) items
        self._monomial_nf = {}
        # exps -> weight vector, for each monomial of a stored normal form
        self._weight = {}

    @property
    def rank(self):
        return len(self.rows)

    def column(self, name):
        i = self.ring.index[name]
        return tuple(r[i] for r in self.rows)

    def weight_of_exps(self, e):
        return tuple(sum(map(mul, r, e)) for r in self.rows)

    def is_homogeneous(self, g):
        """Whether every term of the nonzero polynomial g has one weight vector."""
        return len({self.weight_of_exps(e) for e in g.terms}) == 1

    def value_of(self, f):
        """The least weight vector among the monomials of f's normal form.

        Division by the support's reduced basis is unique, hence linear, so
        the normal form is summed term by term, NF(f) = sum c_e NF(x^e), from
        the valuation's table of monomial normal forms.  A monomial missing
        there is divided once, against that basis under the ring's canonical
        order, and stored; the table grows by one entry per distinct
        monomial passed in, and no further.  Coefficients that cancel in the
        sum are skipped, and an empty sum is the infinite value.
        """
        # a table hit skips Ideal.normal_form, so its guard is asked here
        self.ring.own(f)
        w = self._least_weight(self._normal_form_terms(f.terms))
        return Value(None) if w is None else Value._of(w)

    def _normal_form_terms(self, terms):
        """NF(sum c_e x^e) as {exps: coeff}, from {e: c_e} with nonzero c_e.

        A coefficient that cancels in the sum stays, as the field's zero.
        """
        table = self._monomial_nf
        F = self.ring.field
        add, fmul, one = F.add, F.mul, F.one
        acc = {}
        for e, c in terms.items():
            nf = table.get(e)
            if nf is None:
                nf = table[e] = self._divide_monomial(e)
            for e2, c2 in nf:
                # most monomials are their own normal form, with coefficient one
                c2 = c if c2 == one else fmul(c, c2)
                acc[e2] = add(acc[e2], c2) if e2 in acc else c2
        return acc

    def _least_weight(self, nf):
        """The least weight vector over nf's nonzero terms, or None if none is."""
        zero = self.ring.field.zero
        weight = self._weight
        left = [weight[e] for e, c in nf.items() if c != zero]
        return min(left) if left else None

    def _divide_monomial(self, e):
        """NF(x^e) as (exps, coeff) items, each monomial's weight recorded."""
        nf = self.support.normal_form(self.ring.monomial(e))
        weight = self._weight
        for e2 in nf.terms:
            if e2 not in weight:
                weight[e2] = self.weight_of_exps(e2)
        return tuple(nf.terms.items())

    def __repr__(self):
        w = "; ".join(",".join(str(x) for x in r) for r in self.rows)
        return f"WeightValuation(rows=[{w}], support={self.support!r})"


def support_class(nu):
    """'zero', 'variables', or 'weight-homogeneous'; None outside the classes."""
    gb = nu.support.groebner()
    if not gb:
        return "zero"
    if is_variable_gb(gb):
        return "variables"
    if all(map(nu.is_homogeneous, gb)):
        return "weight-homogeneous"
    return None


def center_ideal(nu):
    """Support plus every variable of positive value."""
    gens = list(nu.support.gens)
    for nm in nu.ring.names:
        if nu.value_of(nu.ring.var(nm)).is_positive:
            gens.append(nu.ring.var(nm))
    return Ideal(nu.ring, gens)


def certify(nu, defining, center):
    """Run the instance checks tying nu to a presented local ring.

    Returns the admitting support class.  Raises InitialIdealNotPrime,
    NotMinimalPrime, NotCentered, or UnsupportedInstance.

    A variable the support contains may have a negative weight column: its
    value is infinite, and every monomial that holds it reduces to 0 (the
    support's reduced basis holds the variable itself), so the column is
    never read.
    """
    if not nu.support.contains_ideal(defining):
        raise CertificationError("support does not contain the defining ideal")
    if nu.support.is_unit_ideal():
        raise CertificationError("support is the unit ideal")
    cls = support_class(nu)
    if cls is None:
        raise UnsupportedInstance(
            "support must be zero, variable generated, or weight homogeneous "
            "for normal forms to compute the filtration value"
        )
    verdict = is_prime(nu.support)
    if verdict.verdict == NOT_PRIME:
        raise InitialIdealNotPrime(
            "weight graded ring has zero divisors", verdict.evidence()
        )
    if not verdict.is_prime:
        raise UnsupportedInstance(f"support primality undecided: {verdict.reason}")
    mins = minimal_primes(defining)
    if not any(nu.support == q for q in mins):
        raise NotMinimalPrime(
            "support is not a minimal prime of the defining ideal",
            f"candidates: {[q.canonical_strings() for q in mins]}",
        )
    ring = nu.ring
    for nm in ring.names:
        col = nu.column(nm)
        if col < (0,) * nu.rank and not nu.support.contains(ring.var(nm)):
            raise NotCentered(f"variable {nm} has negative weight column {col}")
    for g in center.groebner():
        if not nu.value_of(g).is_positive:
            raise NotCentered(
                f"center generator {g.text()} has value {nu.value_of(g).text()}"
            )
    samples = [ring.one()]
    samples += [ring.one() + g for g in center.gens[:6]]
    for nm in ring.names:
        v = ring.var(nm)
        if not center.contains(v):
            samples.append(v)
    for f in samples:
        v = nu.value_of(f)
        if not v.is_zero:
            raise NotCentered(
                f"element {f.text()} outside the center has value {v.text()}"
            )
    return cls


def decompose(nu):
    """Split off the first row: a coarser valuation and the rest on its center.

    Returns (nu1, nu2) where nu1 keeps the support with the first row and
    nu2 lives on the quotient by nu1's center with the remaining rows.  A
    rank one valuation has nothing to split off and is refused.
    """
    if nu.rank < 2:
        raise UnsupportedInstance("splitting needs a valuation of rank at least two")
    nu1 = WeightValuation(nu.ring, nu.support, nu.rows[:1])
    p1 = center_ideal(nu1)
    nu2 = WeightValuation(nu.ring, p1, nu.rows[1:])
    return nu1, nu2


@cache
def _sample_coefficients(F):
    """The sample coefficients -3..3 as elements of F, coerced once per field."""
    return tuple(F.coerce(c) for c in range(-3, 4))


def _packed_samples(ring, rng):
    """Nonzero random polynomials of ring, each as {key: coeff} in draw order.

    A monomial x^e is packed into the one int key sum(e_i * 9**i).  Each
    of up to 4 terms gets up to 4 variable factors, so every exponent of a
    sample is at most 4 and every exponent of a product of two samples at
    most 8: below the base, so the key of x^a * x^b is key(a) + key(b),
    with no carry.  Each term gets a coefficient in [-3, 3]; terms that land
    on one monomial are summed, and one that cancels is dropped.

    The draws are those of rng.randint(1, 4) for the term count,
    rng.randint(0, 4) per term for its factor count, rng.randrange(n) per
    factor and rng.randint(-3, 3) per coefficient, made here by the
    rejection sampling those methods use in CPython 3.10-3.13: draw
    getrandbits(m.bit_length()) until it is below the range's width m.  So
    a seed gives the same polynomials as those methods would, at a fraction
    of the calls.  A ring with no variables (width 0) would never be left,
    and is refused at the first sample, before any draw.
    """
    n = ring.n
    if n < 1:
        raise LuError("cannot sample polynomials in a ring with no variables")
    F = ring.field
    fadd, zero = F.add, F.zero
    coeffs = _sample_coefficients(F)
    bits = rng.getrandbits
    k_var = n.bit_length()
    place = [9**i for i in range(n)]
    while True:
        t = {}
        r = bits(3)  # randint(1, 4) - 1: 4 values, 3 bits
        while r >= 4:
            r = bits(3)
        for _ in range(r + 1):
            k = 0
            d = bits(3)  # randint(0, 4): 5 values, 3 bits
            while d > 4:
                d = bits(3)
            for _ in range(d):
                i = bits(k_var)  # randrange(n)
                while i >= n:
                    i = bits(k_var)
                k += place[i]
            c = bits(3)  # randint(-3, 3) + 3: 7 values, 3 bits
            while c >= 7:
                c = bits(3)
            c = coeffs[c]
            if k in t:
                c = fadd(t[k], c)
            if c == zero:
                t.pop(k, None)
            else:
                t[k] = c
        if t:
            yield t


def _unpack(k, n):
    """The exponent tuple of the packed key k, in n variables."""
    e = []
    for _ in range(n):
        k, d = divmod(k, 9)
        e.append(d)
    return tuple(e)


def _as_polynomial(ring, sample):
    """A packed sample as a Polynomial of ring, its terms in the same order."""
    n = ring.n
    return Polynomial(ring, {_unpack(k, n): c for k, c in sample.items()})


def axiom_violations(nu, count=200, seed=0xC0FFEE):
    """Sampled checks of multiplicativity.

    The ultrametric inequality needs no sample: it holds by construction of
    the value reading.  v(f), v(g) and v(f + g) are least weights over the
    nonzero slots of NF(f), NF(g) and their slot-wise sum, since NF is
    linear.  A nonzero slot of the sum is nonzero in NF(f) or in NF(g), so
    v(f + g) >= min(v(f), v(g)).  When v(f) < v(g), the least slots of
    NF(f) have weight below v(g), so they are zero in NF(g) and stay nonzero
    in the sum: v(f + g) = v(f).

    Returns a list of (axiom, f, g) triples that failed; empty means the
    sample saw no violation.  A negative count is a LuError: a check that
    cannot run must not read as a pass, and a ring with no variables is
    refused at the first sample.

    Samples are drawn packed (see _packed_samples and the module
    docstring): the product's terms are multiplied out by adding keys, with
    cancelled terms dropped, and its exponents stay at most 8, far below
    EXP_CAP, so they are not checked against it.  The index from keys to
    (slot, coeff) rows lives for this call only; nu's table gets exactly
    the entries that value_of(f), value_of(g) and value_of(f * g) would
    add, each with one Ideal.normal_form.  No product polynomial and no
    Value is built: values compare as weight tuples with None for
    infinity, which is what Value's equality reads.  f and g become
    Polynomials only when a violation is reported.
    """
    if count < 0:
        raise LuError(f"the sample count must be nonnegative, got {count}")
    ring = nu.ring
    n = ring.n
    F = ring.field
    fadd, fmul, zero, one = F.add, F.mul, F.zero, F.one
    table, divide = nu._monomial_nf, nu._divide_monomial
    index = {}  # key -> NF(x^e) as ((slot, coeff), ...)
    slots = {}  # exps -> slot
    weights = []  # slot -> weight vector

    def nf(sample):
        acc = {}
        for k, c in sample.items():
            row = index.get(k)
            if row is None:
                e = _unpack(k, n)
                terms = table.get(e)
                if terms is None:
                    terms = table[e] = divide(e)
                row = []
                for e2, c2 in terms:
                    s = slots.get(e2)
                    if s is None:
                        s = slots[e2] = len(weights)
                        weights.append(nu._weight[e2])
                    row.append((s, c2))
                row = index[k] = tuple(row)
            for s, c2 in row:
                # most monomials are their own normal form, with coefficient one
                c2 = c if c2 == one else fmul(c, c2)
                acc[s] = fadd(acc[s], c2) if s in acc else c2
        return acc

    def least(acc):
        left = [weights[s] for s, c in acc.items() if c != zero]
        return min(left) if left else None

    # imported here, not with the module: only sampling needs it, and
    # `import lu` is paid by every run
    import random

    draw = _packed_samples(ring, random.Random(seed))
    bad = []
    for _ in range(count):
        f = next(draw)
        g = next(draw)
        vf, vg = least(nf(f)), least(nf(g))
        fg = {}
        for ka, ca in f.items():
            for kb, cb in g.items():
                k = ka + kb
                c = fmul(ca, cb)
                if k in fg:
                    c = fadd(fg[k], c)
                    if c == zero:
                        del fg[k]
                        continue
                fg[k] = c
        v_sum = None if vf is None or vg is None else tuple(map(add, vf, vg))
        if least(nf(fg)) != v_sum:
            bad.append(("multiplicativity", f, g))
    return [(axiom, _as_polynomial(ring, f), _as_polynomial(ring, g)) for axiom, f, g in bad]
