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

`axiom_violations` reads the same table without building a product.  Per
sample it sums NF(f) and NF(g) once each, reads v(f + g) from the merge of
those two sums, since NF(f + g) = NF(f) + NF(g), and v(f * g) from the
table sum over the product's terms, multiplied out as exponent ->
coefficient pairs: NF(f * g) = sum c_a c_b NF(x^(a + b)).
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


def sample_polynomials(ring, rng):
    """One nonzero polynomial with small random support; deterministic per rng.

    Each of up to 4 terms gets up to 4 variable factors and a coefficient
    in [-3, 3]; terms that land on one monomial are summed.

    The draws are those of rng.randint(1, 4) for the term count,
    rng.randint(0, 4) per term for its factor count, rng.randrange(n) per
    factor and rng.randint(-3, 3) per coefficient, made here by the
    rejection sampling those methods use in CPython 3.10-3.13: draw
    getrandbits(m.bit_length()) until it is below the range's width m.  So
    a seed gives the same polynomials as those methods would, at a fraction
    of the calls.  A ring with no variables (width 0) would never be left,
    and is refused first.
    """
    n = ring.n
    if n < 1:
        raise LuError("cannot sample polynomials in a ring with no variables")
    F = ring.field
    zero = F.zero
    coeffs = _sample_coefficients(F)
    bits = rng.getrandbits
    k_var = n.bit_length()
    while True:
        t = {}
        r = bits(3)  # randint(1, 4) - 1: 4 values, 3 bits
        while r >= 4:
            r = bits(3)
        for _ in range(r + 1):
            e = [0] * n
            d = bits(3)  # randint(0, 4): 5 values, 3 bits
            while d > 4:
                d = bits(3)
            for _ in range(d):
                i = bits(k_var)  # randrange(n)
                while i >= n:
                    i = bits(k_var)
                e[i] += 1
            e = tuple(e)
            c = bits(3)  # randint(-3, 3) + 3: 7 values, 3 bits
            while c >= 7:
                c = bits(3)
            c = coeffs[c]
            if e in t:
                c = F.add(t[e], c)
            if c == zero:
                t.pop(e, None)
            else:
                t[e] = c
        if t:
            return Polynomial(ring, t)


def axiom_violations(nu, count=200, seed=0xC0FFEE):
    """Sampled checks of multiplicativity and the ultrametric inequality.

    Distinct values sharpen the inequality to an equality, and that is
    checked too.  Returns a list of (axiom, f, g) triples that failed;
    empty means the sample saw no violation.  A negative count is a
    LuError: a check that cannot run must not read as a pass.

    Every value comes from nu's table of monomial normal forms, and no
    product or sum polynomial and no Value is built.  Each sample sums
    NF(f) and NF(g) once; v(f + g) is read from the merge of the two sums,
    and v(f * g) from the table sum over the product's terms, multiplied
    out as an exponent -> coefficient dict with cancelled terms dropped,
    so the table gets the entries that value_of(f * g) would add.  Samples
    have degree at most 4, so a product's exponents stay at most 8, far
    below EXP_CAP, and are not checked against it.  Values compare as
    weight tuples with None for infinity, under Value's rules: infinity is
    largest, and min keeps the first of two equal values.  f and g stay
    Polynomials only to be reported.
    """
    if count < 0:
        raise LuError(f"the sample count must be nonnegative, got {count}")
    ring = nu.ring
    F = ring.field
    fadd, fmul, zero = F.add, F.mul, F.zero
    nf, least = nu._normal_form_terms, nu._least_weight
    # imported here, not with the module: only sampling needs it, and
    # `import lu` is paid by every run
    import random

    rng = random.Random(seed)
    bad = []
    for _ in range(count):
        f = sample_polynomials(ring, rng)
        g = sample_polynomials(ring, rng)
        nf_f, nf_g = nf(f.terms), nf(g.terms)
        vf, vg = least(nf_f), least(nf_g)
        fg = {}
        for ea, ca in f.terms.items():
            for eb, cb in g.terms.items():
                e = tuple(map(add, ea, eb))
                c = fmul(ca, cb)
                if e in fg:
                    c = fadd(fg[e], c)
                    if c == zero:
                        del fg[e]
                        continue
                fg[e] = c
        v_sum = None if vf is None or vg is None else tuple(map(add, vf, vg))
        if least(nf(fg)) != v_sum:
            bad.append(("multiplicativity", f, g))
        merged = dict(nf_f)
        for e, c in nf_g.items():
            merged[e] = fadd(merged[e], c) if e in merged else c
        vs = least(merged)
        low = vg if vg is not None and (vf is None or vg < vf) else vf
        if vs is not None and (low is None or vs < low):
            bad.append(("ultrametric", f, g))
        elif vf != vg and vs != low:
            bad.append(("ultrametric-strict", f, g))
    return bad
