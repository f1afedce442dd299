"""Radical, primality certificates, associated primes, and Krull dimension.

Primality here is a verdict, not a guess: "prime" is only returned for input
classes carrying a proof (zero and coordinate ideals, graph ideals, lattice
ideals with saturated exponent lattice, principal univariate irreducibles,
zero dimensional rings certified to be fields), "not-prime" always comes with
a zero divisor witness that is re-verified by normal forms, and everything
else is "unknown" so that callers can refuse the instance instead of lying.

`is_prime` answers the unit ideal (not prime) first.  Then it walks one
cascade, `_CLASSES`, on the ideal's reduced basis: graph (which takes the
zero and variable ideals too), monomial witness, binomial lattice,
principal univariate, zero dimensional.  A graph ideal's reduced basis is
x_i - f_i with f_i free of every leading variable x_i, so R/I is a
polynomial ring.  Each class is a function `(I, gb) -> Primality | None`,
None meaning it does not apply; the first prime or not-prime verdict wins,
else the first unknown.  Every not-prime verdict is built by `_witnessed`,
and both factoring classes read one factor search, `_factor_witness`.  `lu.unifactor` (and with it `fractions`)
is imported at the first factor search or squarefree part, so a run that
needs neither never loads it.  The zero dimensional class reads
minimal polynomials, each the generator of (I + (T - f)) ∩ k[T] by
elimination in the one Groebner engine.

This module owns the shape of a basis of variables: `is_variable_gb` is
the one test, read also by `lu.valuations`' support classes and by
`lu.localring`'s cotangent rows.  It owns the text of a refutation too:
`Primality.evidence`, read by `require_prime` and `lu.valuations.certify`.

`radical` certifies its result by the same kind of classes; a zero
dimensional ideal whose variables have squarefree minimal polynomials is
radical in characteristic zero (Seidenberg's lemma).

Associated and minimal primes come from one split, `_split_primes`: a
splitter f outside rad(I) with (I : f) != I gives the checked identity
I = (I : f^∞) ∩ (I + (f^n)), both parts strictly larger than I.  A leaf
whose radical `is_prime` refutes with a witness (g, h) is split at g, and
one it cannot decide is refused.  A leaf whose radical P is certified prime
is kept, with P as its one prime, only when it is P-primary: when it is P,
or when `_primary_splitter`, the complete test of Gianni, Trager and
Zacharias, finds it primary; otherwise that test's h splits it.  So every
leaf is primary to a certified prime (or monomial, with its associated
primes from `_monomial_associated_primes`: the variable ideals of its
irredundant irreducible components, found from its minimal generators by
combinatorics alone, with no colon, no basis and no cap), and I is their
intersection: R/I embeds in the product of the leaves' quotients, so every
associated prime of I is a leaf's.  `associated_primes` keeps a leaf that
is minimal, hence associated, or that some (I : c) equals.  For a prime Q
and c in (I : Q), (I : c) = Q exactly when c lies outside I' = I R_Q ∩ R,
so if no element of the basis of (I : Q) is such a c, (I : Q) lies in I'
and no c is: the leaf is not associated and is dropped.  `minimal_primes` is the
minimal leaves of the radical's split, with no colon certificate, since a
radical ideal has no embedded primes.

`is_prime` and `radical` are `functools.lru_cache`s of the MEMO_CAP most
recently used ideals.  They are keyed by the canonical reduced basis: an
ideal hashes and compares by its ring and that basis, the one its traces
print, so every presentation of one ideal shares one entry, and
`cache_info()` counts the verdicts reused and computed cold.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product

from .errors import CertificationError, LuError, UnsupportedInstance
from .ideals import MEMO_CAP, Ideal, groebner_basis
from .lattice import saturation_defect
from .orders import elimination_order
from .poly import mono_div, mono_divides, mono_gcd

PRIME = "prime"
NOT_PRIME = "not-prime"
UNKNOWN = "unknown"

MAX_STANDARD_MONOMIALS = 4096


class Primality(namedtuple("Primality", "verdict witness reason", defaults=(None, ""))):
    """A witness is a pair (g, h) with g*h in I and neither g nor h in I."""

    __slots__ = ()

    @property
    def is_prime(self):
        return self.verdict == PRIME

    def evidence(self):
        """`witness (g)*(h)`, or the reason when there is no witness."""
        if self.witness:
            g, h = self.witness
            return f"witness ({g.text()})*({h.text()})"
        return self.reason


def _is_variable_exps(e):
    return sum(e) == 1


def _is_monomial_gb(gb):
    return all(len(g.terms) == 1 for g in gb)


def is_variable_gb(gb):
    """Whether each element of the reduced (so monic) basis gb is a variable."""
    return all(len(g.terms) == 1 and _is_variable_exps(next(iter(g.terms))) for g in gb)


def _pure_difference(g):
    """Exponent pair (a, b) when g is monic x^a - x^b, else None."""
    if len(g.terms) != 2:
        return None
    F = g.ring.field
    (e1, c1), (e2, c2) = sorted(g.terms.items())
    if c1 == F.one and c2 == F.neg(F.one):
        return e1, e2
    if c2 == F.one and c1 == F.neg(F.one):
        return e2, e1
    return None


def _graph_class(I, gb):
    """Sections x_i = f_i(other variables), so R/I is a polynomial ring:
    every leading monomial of the reduced basis is a variable.  Reducedness
    does the rest: the leads are distinct, no term is divisible by another
    element's lead, and a term divisible by its own lead x_i would exceed
    x_i.  A basis of variables is one, and so is the zero ideal's, which is
    empty."""
    if all(_is_variable_exps(g.leading()[0]) for g in gb):
        return Primality(PRIME)


def _witnessed(I, g, h):
    """The not-prime verdict with witness (g, h) when g*h lies in I and
    neither g nor h does, else None."""
    if not I.contains(g) and not I.contains(h) and I.contains(g * h):
        return Primality(NOT_PRIME, (g, h))
    return None


def _monomial_witness(I, gb):
    """x and g / x for the first monomial g of a monomial basis that is not
    a variable, with x its first variable; None for any other basis."""
    if not _is_monomial_gb(gb):
        return None
    for g in gb:
        (e,) = g.terms
        if not _is_variable_exps(e):
            i = next(i for i, x in enumerate(e) if x)
            rest = e[:i] + (e[i] - 1,) + e[i + 1:]
            return _witnessed(I, I.ring.var(I.ring.names[i]), I.ring.monomial(rest))


def _zero_divisor_variable(B, names):
    """(x, B : x) for the first x of `names` with B : x != B, or None.

    None says B is saturated at those variables: B : (x_1*...*x_k)^∞ = B
    exactly when every B : x_i = B.  B lies in B : x, so the two are equal
    when B holds the colon's generators, which B's basis decides without a
    basis of the colon.
    """
    for nm in names:
        c = B.colon(B.ring.var(nm))
        if not B.contains_ideal(c):
            return nm, c
    return None


def _binomial_class(I, gb):
    """Variables plus pure-difference binomials; decided through the lattice."""
    ring = I.ring
    varnames = set()
    binoms = []
    for g in gb:
        if len(g.terms) == 1 and _is_variable_exps(next(iter(g.terms))):
            varnames.add(ring.names[next(iter(g.terms)).index(1)])
            continue
        pd = _pure_difference(g)
        if pd is None:
            return None
        binoms.append(pd)
    if ring.field.char != 0:
        return Primality(UNKNOWN, reason="lattice primality needs characteristic zero")
    # a reduced basis keeps killed variables out of the binomials
    sub = ring.drop(varnames)
    rows = []
    sub_binoms = []
    for a, b in binoms:
        ra = tuple(a[ring.index[nm]] for nm in sub.names)
        rb = tuple(b[ring.index[nm]] for nm in sub.names)
        rows.append(tuple(x - y for x, y in zip(ra, rb)))
        sub_binoms.append(sub.monomial(ra) - sub.monomial(rb))
    B = Ideal(sub, sub_binoms)
    hit = _zero_divisor_variable(B, sub.names)
    if hit:
        # x*g lies in B, g outside it; x is not in B, whose elements vanish
        # where every variable is 1, and I meets k[sub] in B, so (x, g) is a
        # witness, which `_witnessed` still checks
        nm, c = hit
        g = next(g for g in c.groebner() if not B.contains(g))
        return _witnessed(I, ring.var(nm), g.to_ring(ring))
    defect = saturation_defect(rows, sub.n)
    if defect is None:
        return Primality(PRIME)
    u, k = defect
    up = tuple(max(x, 0) for x in u)
    um = tuple(max(-x, 0) for x in u)
    g = sub.monomial(up) - sub.monomial(um)
    h = sub.zero()
    for j in range(k):
        e = tuple(j * p + (k - 1 - j) * m for p, m in zip(up, um))
        h = h + sub.monomial(e)
    return _witnessed(I, g.to_ring(ring), h.to_ring(ring)) or Primality(
        UNKNOWN, reason="lattice defect witness failed verification"
    )


def _univariate_of(g):
    """(variable index, dense coefficients) for a one-variable g, None for
    one in more variables.  g is not constant: `is_prime` answers the unit
    ideal first, and a minimal polynomial has degree at least 1."""
    idx = None
    for e in g.terms:
        for i, x in enumerate(e):
            if x:
                if idx is None:
                    idx = i
                elif idx != i:
                    return None
    coeffs = [g.ring.field.zero] * (g.degree() + 1)
    for e, c in g.terms.items():
        coeffs[e[idx]] = c
    return idx, coeffs


def _principal_univariate(I, gb):
    if len(gb) != 1 or I.ring.field.char != 0:
        return None
    data = _univariate_of(gb[0])
    if data is None:
        return None
    idx, coeffs = data
    ell = I.ring.var(I.ring.names[idx])
    return _factor_witness(
        I, ell, coeffs, "univariate witness failed verification"
    ) or Primality(PRIME)


def _factor_witness(I, ell, coeffs, failed):
    """What one factor search says of `coeffs`, a polynomial in ell that lies
    in I: None when it is irreducible, unknown when the search refuses, else
    the witness (factor(ell), cofactor(ell)), or unknown with reason `failed`
    when that witness does not check.  A factor divides exactly: a rational
    root is checked by evaluation, a Kronecker factor by division."""
    from . import unifactor

    try:
        factor = unifactor.factor_once(coeffs)
    except LuError as exc:
        return Primality(UNKNOWN, reason=str(exc))
    if factor is None:
        return None
    quot, _ = unifactor.divmod_poly(coeffs, factor)
    w1, w2 = _subst_dense(ell, factor), _subst_dense(ell, quot)
    return _witnessed(I, w1, w2) or Primality(UNKNOWN, reason=failed)


def standard_monomials(I):
    """Monomials outside the initial ideal, or None when there are infinitely many."""
    if I.is_unit_ideal():
        return []
    lts = [g.leading()[0] for g in I.groebner()]
    n = I.ring.n
    bounds = []
    for i in range(n):
        b = None
        for e in lts:
            if e[i] and all(x == 0 for j, x in enumerate(e) if j != i):
                b = e[i] if b is None else min(b, e[i])
        if b is None:
            return None
        bounds.append(b)
    total = 1
    for b in bounds:
        total *= b
        if total > MAX_STANDARD_MONOMIALS:
            raise UnsupportedInstance(
                f"more than {MAX_STANDARD_MONOMIALS} standard monomials"
            )
    out = []
    for e in product(*[range(b) for b in bounds]):
        if not any(mono_divides(lt, e) for lt in lts):
            out.append(e)
    return sorted(out)


def minimal_polynomial(I, f):
    """Dense coefficients of the minimal polynomial of f modulo a proper zero
    dimensional I: the generator of (I + (T - f)) ∩ k[T], by elimination,
    monic as every reduced basis is.

    T is named `_t`; a scene variable starts with a letter, so it is fresh.
    """
    ring = I.ring
    big = ring.extend(["_t"])
    t = big.var("_t")
    J = Ideal(big, [g.to_ring(big) for g in I.gens] + [t - f.to_ring(big)])
    (g,) = J.eliminate(ring.names).gens
    return _univariate_of(g)[1]


def _zero_dim_class(I, gb):
    """A field, certified by a primitive element whose minimal polynomial is
    irreducible of degree dim_k(R/I), or a witness from a factor of some
    candidate's minimal polynomial."""
    std = standard_monomials(I)
    if std is None:
        return None
    if I.ring.field.char != 0:
        return Primality(UNKNOWN, reason="zero dimensional route needs characteristic zero")
    ring = I.ring
    candidates = [ring.var(nm) for nm in ring.names]
    for i, nm in enumerate(ring.names):
        for j in range(i + 1, ring.n):
            candidates.append(ring.var(nm) + ring.var(ring.names[j]))
    best_unknown = None
    for ell in candidates:
        mp = minimal_polynomial(I, ell)
        got = _factor_witness(I, ell, mp, "zero dimensional witness failed")
        if got is None:
            if len(mp) - 1 == len(std):
                return Primality(PRIME)
        elif got.verdict == NOT_PRIME:
            return got
        else:
            best_unknown = got
    return best_unknown or Primality(
        UNKNOWN, reason="no primitive element found among the candidates"
    )


def _subst_dense(ell, coeffs):
    acc = ell.ring.zero()
    p = ell.ring.one()
    for c in coeffs:
        if c:
            acc = acc + p.scale(c)
        p = p * ell
    return acc


_CLASSES = (_graph_class, _monomial_witness, _binomial_class, _principal_univariate,
            _zero_dim_class)


@lru_cache(maxsize=MEMO_CAP)
def is_prime(I):
    """Primality verdict for a polynomial ideal; see the module docstring."""
    if I.is_unit_ideal():
        return Primality(NOT_PRIME, reason="unit ideal")
    gb = I.groebner()
    unknown = None
    for cls in _CLASSES:
        got = cls(I, gb)
        if got is not None and got.verdict != UNKNOWN:
            return got
        unknown = unknown or got
    return unknown or Primality(UNKNOWN, reason="no decisive class applies")


def require_prime(I, what):
    verdict = is_prime(I)
    if verdict.is_prime:
        return
    if verdict.verdict == NOT_PRIME:
        raise CertificationError(f"{what} is not prime", verdict.evidence())
    raise UnsupportedInstance(f"cannot certify {what} prime: {verdict.reason}")


@lru_cache(maxsize=MEMO_CAP)
def radical(I):
    """The radical, computed by certified augmentation; refuses what it cannot prove."""
    ring = I.ring
    J = I
    for _ in range(ring.n + 3):
        if J.is_unit_ideal():
            return J
        gb = J.groebner()
        adds = []
        for g in gb:
            if len(g.terms) == 1:
                e = next(iter(g.terms))
                sq = tuple(min(x, 1) for x in e)
                if sq != e:
                    adds.append(ring.monomial(sq))
                continue
            pd = _pure_difference(g)
            if pd:
                a, b = pd
                c = mono_gcd(a, b)
                if any(x > 1 for x in c):
                    csq = tuple(min(x, 1) for x in c)
                    ra = tuple(x - y for x, y in zip(a, c))
                    rb = tuple(x - y for x, y in zip(b, c))
                    rest = ring.monomial(ra) - ring.monomial(rb)
                    adds.append(ring.monomial(csq) * rest)
        roots = _squarefree_coordinates(J)
        adds += roots or []
        adds = [a for a in adds if not J.contains(a)]
        if not adds:
            return _certify_radical(J, zero_dim_reduced=roots == [])
        J = J + adds
    raise UnsupportedInstance("radical augmentation did not stabilize")


def _squarefree_coordinates(J):
    """For J proper and zero dimensional in characteristic zero, the
    squarefree parts of the variables' minimal polynomials that drop a
    factor; J is radical when there is none.  None when this does not apply."""
    ring = J.ring
    try:
        std = ring.field.char == 0 and standard_monomials(J)
    except UnsupportedInstance:
        std = None
    if not std:
        return None
    from . import unifactor

    out = []
    for nm in ring.names:
        mp = minimal_polynomial(J, ring.var(nm))
        sf = unifactor.squarefree_part(mp)
        if len(sf) < len(mp):
            out.append(_subst_dense(ring.var(nm), sf))
    return out


def _certify_radical(J, zero_dim_reduced):
    """J, once a certificate class proves it radical: zero dimensional with
    squarefree minimal polynomials of the variables in characteristic zero
    (Seidenberg's lemma), monomial (squarefree, since `radical` left no
    monomial generator with a squarefree part outside J), prime, or variables
    plus a binomial part saturated at its own, disjoint variables."""
    ring = J.ring
    gb = J.groebner()
    if zero_dim_reduced or _is_monomial_gb(gb) or is_prime(J).is_prime:
        return J
    mono_vars = set()
    binom_vars = set()
    binoms = []
    others = False
    for g in gb:
        if len(g.terms) == 1:
            (e,) = g.terms
            mono_vars |= {ring.names[i] for i, x in enumerate(e) if x}
        elif _pure_difference(g):
            binoms.append(g)
            binom_vars |= g.variables()
        else:
            others = True
    if not others and not (mono_vars & binom_vars) and ring.field.char == 0:
        # saturation check runs in the ambient ring; variable disjointness
        # makes it equivalent to the subring check
        if _zero_divisor_variable(Ideal(ring, binoms), sorted(binom_vars)) is None:
            return J
        raise UnsupportedInstance("binomial part is not saturated at its variables")
    raise UnsupportedInstance("radical certificate classes exhausted")


def _primary_splitter(I, P):
    """h outside the prime P = rad(I) with (I : h) != I, or None when I is
    P-primary (Gianni, Trager & Zacharias).

    With u a largest independent set modulo P, P extends to a maximal ideal
    of k(u)[others], so I extends to a primary one.  A basis G of I under
    lex with the other variables first is a basis of that extension, and
    with h the product of G's k[u]-leading coefficients, I : h^∞ is the
    contraction: the P-primary component of I.  h is a nonzero element of
    k[u], which meets P in 0, so I is primary exactly when I : h = I, that
    is when I holds the colon's generators (Greuel & Pfister, ch. 4.3).
    """
    ring = I.ring
    u = _independent_set(P)
    others = [nm for i, nm in enumerate(ring.names) if i not in u]
    order = elimination_order(ring.names, others)
    h = ring.one()
    for g in groebner_basis(I.gens, order):
        top = g.leading(order)[0]
        lc = ring.zero()
        for e, c in g.terms.items():
            if all(x == top[i] for i, x in enumerate(e) if i not in u):
                lc = lc + ring.monomial([x if i in u else 0 for i, x in enumerate(e)], c)
        h = h * lc
    return None if I.contains_ideal(I.colon(h)) else h


def _monomial_associated_primes(I):
    """Complete path for monomial ideals: the variable ideals of the
    irredundant irreducible components (Herzog & Hibi, Monomial Ideals,
    §1.3; Miller & Sturmfels, ch. 5).

    The minimal generators, I's reduced basis, split at a mixed one
    x_i^a * m, m != 1 free of x_i: I = (I + (x_i^a)) ∩ (I + (m)), since the
    two are coprime, and both parts are strictly larger.  The split repeats
    until every generator is a pure power, an irreducible leaf.  An
    irreducible ideal Q holding an intersection of irreducibles holds one of
    them (the lcm of their generators outside Q would lie in it), so the
    distinct leaves that contain no other are an irredundant primary
    decomposition of I.  Their variable ideals are its associated primes,
    found with no colon and no basis.
    """
    ring = I.ring
    leaves = set()
    todo = [frozenset(next(iter(g.terms)) for g in I.groebner())]
    while todo:
        gens = todo.pop()
        mixed = next((e for e in gens if sum(x > 0 for x in e) > 1), None)
        if mixed is None:
            leaves.add(gens)
            continue
        i = next(k for k, x in enumerate(mixed) if x)
        pure = tuple(x if k == i else 0 for k, x in enumerate(mixed))
        for part in (pure, mono_div(mixed, pure)):
            todo.append(frozenset(e for e in gens if not mono_divides(part, e)) | {part})
    out = {}
    for A in leaves:
        # A contains B when each pure power of B is divisible by one of A's
        if not any(
            B != A and all(any(mono_divides(a, b) for a in A) for b in B) for B in leaves
        ):
            support = frozenset(k for e in A for k, x in enumerate(e) if x)
            xs = [ring.var(ring.names[k]) for k in support]
            # the reduced basis of a variable ideal: its variables, biggest first
            xs.sort(key=lambda x: ring.canonical.key(x.leading()[0]), reverse=True)
            Q = out[support] = Ideal(ring, xs)
            Q._gb = Q.gens
    return sorted(out.values(), key=Ideal.canonical_strings)


def _split_primes(I, depth):
    """The radicals of the leaves of a verified split of I, each leaf
    primary to its radical, a certified prime (a monomial leaf gives its
    associated primes).  The minimal primes of I are the minimal leaves.
    At the top the leaves come unique, sorted by size and then text (a
    monomial ideal's by text alone)."""
    if depth > 16:
        raise UnsupportedInstance("associated prime recursion exceeded depth 16")
    if I.is_unit_ideal():
        return []
    gb = I.groebner()
    if gb and _is_monomial_gb(gb):
        return _monomial_associated_primes(I)
    P = radical(I)
    verdict = is_prime(P)
    if verdict.is_prime:
        f = None if P == I else _primary_splitter(I, P)
        if f is None:
            return [P]
    elif verdict.witness:
        # g, h outside P with g*h in P: some g^m*h^m lies in I and h^m does
        # not, so (I : g) != I and g splits I
        f = verdict.witness[0]
    else:
        raise UnsupportedInstance(
            f"cannot split ({', '.join(P.canonical_strings())}) into primes: "
            f"{verdict.verdict}, {verdict.reason}"
        )
    sat, n = I.saturation(f)
    other = I + [f**max(n, 1)]
    if sat.intersect(other) != I:
        raise CertificationError("saturation split identity failed", f.text())
    leaves = _split_primes(sat, depth + 1) + _split_primes(other, depth + 1)
    if depth:
        return leaves
    unique = {}
    for Q in leaves:
        unique.setdefault(Q.groebner(), Q)
    return sorted(unique.values(), key=lambda q: (len(q.groebner()), q.canonical_strings()))


def _minimal(Q, primes):
    return not any(other is not Q and Q.contains_ideal(other) for other in primes)


def associated_primes(I):
    """The associated primes of R/I, each one witness-certified.

    The leaves of `_split_primes` are the candidates, and they hold every
    associated prime.  One survives when it is minimal over I (then the
    verified split already forces it to be associated), or when some colon
    (I : c) equals it exactly; one with neither is not associated.
    """
    candidates = _split_primes(I, 0)
    gb = I.groebner()
    if gb and _is_monomial_gb(gb):
        return candidates
    return [
        Q for Q in candidates
        if _minimal(Q, candidates) or _certify_associated(I, Q) is not None
    ]


def _certify_associated(I, Q):
    """An element c of the basis of (I : Q) with (I : c) == Q, or None,
    which says Q is not associated to I."""
    for c in I.colon_ideal(Q).groebner():
        if I.colon(c) == Q:
            return c
    return None


def minimal_primes(I):
    """The minimal primes of R/I: the minimal leaves of rad(I)'s split.

    A radical ideal has no embedded primes, and a leaf whose radical is a
    certified prime has exactly that one minimal prime, so no colon
    certificate is needed.
    """
    leaves = _split_primes(radical(I), 0)
    return [Q for Q in leaves if _minimal(Q, leaves)]


def _independent_set(I):
    """A largest set of variable indices that holds the support of no
    leading monomial of I's basis, or None for the unit ideal.  Its size is
    dim R/I, and no nonzero polynomial in its variables lies in I."""
    ring = I.ring
    if ring.n > 16:
        raise UnsupportedInstance("dimension enumeration capped at 16 variables")
    supports = [
        frozenset(i for i, x in enumerate(g.leading()[0]) if x) for g in I.groebner()
    ]
    for size in range(ring.n, -1, -1):
        for S in combinations(range(ring.n), size):
            sset = set(S)
            if all(not sup <= sset for sup in supports):
                return S
    return None


def krull_dimension(I):
    """Dimension of R/I via the combinatorial rule on the initial ideal."""
    S = _independent_set(I)
    return -1 if S is None else len(S)


def local_dimension(I, center):
    """Dimension of R/I localized at the prime `center` (which contains I)."""
    if not center.contains_ideal(I):
        raise CertificationError("localization center does not contain the ideal")
    dc = krull_dimension(center)
    best = None
    for q in minimal_primes(I):
        if center.contains_ideal(q):
            d = krull_dimension(q) - dc
            best = d if best is None else max(best, d)
    if best is None:
        raise CertificationError("no minimal prime inside the localization center")
    return best
