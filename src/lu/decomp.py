"""Radical, primality certificates, associated primes, and Krull dimension.

Primality here is a verdict, not a guess: "prime" is only returned for input
classes carrying a proof (zero and coordinate ideals, graph ideals, lattice
ideals with saturated exponent lattice, principal univariate irreducibles,
zero dimensional rings certified to be fields), "not-prime" always comes with
a zero divisor witness that is re-verified by normal forms, and everything
else is "unknown" so that callers can refuse the instance instead of lying.

`is_prime` answers the unit ideal (not prime) and the zero, variable and
graph classes (prime) first, then walks one cascade, `_CLASSES`: monomial
witness, binomial lattice, principal univariate, zero dimensional.  Each
class is a function `(I, gb) -> Primality | None`, None meaning it does not
apply; the first prime or not-prime verdict wins, else the first unknown.
Every not-prime verdict is built by `_witnessed`, and both factoring classes
read one factor search, `_factor_witness`.  The zero dimensional class reads
minimal polynomials, each the generator of (I + (T - f)) ∩ k[T] by
elimination in the one Groebner engine.

`radical` certifies its result by the same kind of classes; a zero
dimensional ideal whose variables have squarefree minimal polynomials is
radical in characteristic zero (Seidenberg's lemma).

Associated and minimal primes come from one split, `_split_primes`: a
splitter f gives the checked identity I = (I : f^∞) ∩ (I + (f^n)), and a
leaf with no splitter yields its radical only when `is_prime` certifies
that radical, so every prime returned is certified.  A leaf whose radical
`is_prime` refutes with a witness (g, h) is split at g, and one it cannot
decide is refused.  `associated_primes` keeps a leaf that some colon (I : c)
certifies or that is minimal; `minimal_primes` is the minimal leaves of the
radical's split, with no colon certificate, since a radical ideal has no
embedded primes.

`is_prime` and `radical` are `functools.lru_cache`s of the MEMO_CAP most
recently used ideals.  An ideal hashes and compares by its ring and reduced
degrevlex basis, so every presentation of one ideal shares one entry, and
`cache_info()` counts the verdicts reused and computed cold.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product

from . import unifactor
from .errors import CertificationError, LuError, UnsupportedInstance
from .ideals import MEMO_CAP, Ideal
from .lattice import saturation_defect
from .poly import mono_divides, mono_gcd

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


def _is_variable_exps(e):
    return sum(e) == 1


def _is_monomial_gb(gb):
    return all(len(g.terms) == 1 for g in gb)


def _is_variable_gb(gb):
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


def _graph_class(I):
    """Sections x_i = f_i(other variables): quotient is a polynomial ring."""
    gb = I.canonical_gb()
    if not gb:
        return False
    leads = []
    for g in gb:
        e, c = g.leading()
        if not _is_variable_exps(e):
            return False
        leads.append(e.index(1))
    leadset = set(leads)
    if len(leadset) != len(leads):
        return False
    for g in gb:
        e0, _ = g.leading()
        for e in g.terms:
            if e == e0:
                continue
            if any(e[i] for i in leadset):
                return False
    return True


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
    exactly when every B : x_i = B.
    """
    for nm in names:
        c = B.colon(B.ring.var(nm))
        if c != B:
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
        # a variable is a zero divisor, exhibit the product that dies
        nm, c = hit
        for g in c.groebner():
            if not B.contains(g):
                got = _witnessed(I, ring.var(nm), g.to_ring(ring))
                if got:
                    return got
        return Primality(UNKNOWN, reason="variable zero divisor without witness")
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
    """(variable index, dense coefficients) for a one-variable g."""
    idx = None
    for e in g.terms:
        for i, x in enumerate(e):
            if x:
                if idx is None:
                    idx = i
                elif idx != i:
                    return None
    if idx is None:
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
    gb = I.groebner()
    order = I.ring.degrevlex
    lts = [g.leading(order)[0] for g in gb]
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
    (g,) = J.eliminate_restrict(ring.names).gens
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


_CLASSES = (_monomial_witness, _binomial_class, _principal_univariate, _zero_dim_class)


@lru_cache(maxsize=MEMO_CAP)
def is_prime(I):
    """Primality verdict for a polynomial ideal; see the module docstring."""
    if I.is_unit_ideal():
        return Primality(NOT_PRIME, reason="unit ideal")
    gb = I.groebner()
    if _is_variable_gb(gb) or _graph_class(I):
        return Primality(PRIME)
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
        w = ""
        if verdict.witness:
            w = f"witness ({verdict.witness[0].text()})*({verdict.witness[1].text()})"
        raise CertificationError(f"{what} is not prime", w or verdict.reason)
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


def _find_splitter(I, P):
    """f outside P = rad(I) with (I : f) != I, or None when the search finds
    none: then I is believed primary, and `_split_primes` takes P as its
    one prime only once `is_prime` certifies it, and splits at the witness
    where `is_prime` refutes it."""
    ring = I.ring
    tried = set()
    frontier = [ring.var(nm) for nm in sorted(ring.names)]
    for _ in range(3):
        mined = []
        for c in frontier:
            kt = c.text()
            if kt in tried or len(tried) > 64:
                continue
            tried.add(kt)
            if P.contains(c):
                mined.extend(I.colon(c).groebner())
                continue
            if I.colon(c) != I:
                return c
        frontier = sorted(mined, key=lambda g: g.text())
    return None


def _monomial_associated_primes(I):
    """Complete path for monomial ideals: colons by divisors of the lcm."""
    gb = I.groebner()
    lcm = None
    for g in gb:
        e = next(iter(g.terms))
        lcm = e if lcm is None else tuple(max(a, b) for a, b in zip(lcm, e))
    total = 1
    for x in lcm:
        total *= x + 1
        if total > 4096:
            raise UnsupportedInstance("monomial lcm has too many divisors")
    ring = I.ring
    out = {}
    for e in product(*[range(x + 1) for x in lcm]):
        c = ring.monomial(e)
        Q = I.colon(c)
        if Q.is_unit_ideal():
            continue
        qgb = Q.groebner()
        if _is_variable_gb(qgb):
            out[Q.groebner()] = Q
    return sorted(out.values(), key=lambda q: [g.text() for g in q.canonical_gb()])


def _split_primes(I, depth):
    """The radicals of the leaves of a verified split of I, each certified
    prime (a monomial ideal gives its associated primes).  The minimal
    primes of I are the minimal leaves.  At the top the leaves come unique,
    sorted by size and then text (a monomial ideal's by text alone)."""
    if depth > 16:
        raise UnsupportedInstance("associated prime recursion exceeded depth 16")
    if I.is_unit_ideal():
        return []
    gb = I.groebner()
    if gb and _is_monomial_gb(gb):
        return _monomial_associated_primes(I)
    P = radical(I)
    if P == I and is_prime(P).is_prime:
        return [P]
    f = _find_splitter(I, P)
    if f is None:
        verdict = is_prime(P)
        if verdict.is_prime:
            return [P]
        if not verdict.witness:
            raise UnsupportedInstance(
                f"cannot split ({', '.join(P.canonical_strings())}) into primes: "
                f"{verdict.verdict}, {verdict.reason}"
            )
        # g, h outside P with g*h in P: some g^m*h^m lies in I and h^m does
        # not, so (I : g) != I and g splits I
        f = verdict.witness[0]
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
    return sorted(
        unique.values(),
        key=lambda q: (len(q.canonical_gb()), [g.text() for g in q.canonical_gb()]),
    )


def _minimal(Q, primes):
    return not any(other is not Q and Q.contains_ideal(other) for other in primes)


def associated_primes(I):
    """The associated primes of R/I, each one witness-certified.

    The leaves of `_split_primes` are the candidates.  One survives when
    some colon (I : c) equals it exactly, or when it is minimal over I (then
    the verified split already forces it to be associated).
    """
    candidates = _split_primes(I, 0)
    gb = I.groebner()
    if gb and _is_monomial_gb(gb):
        return candidates
    for Q in candidates:
        if not _minimal(Q, candidates) and _certify_associated(I, Q) is None:
            raise UnsupportedInstance(
                "embedded prime candidate resisted witness certification"
            )
    return candidates


def _certify_associated(I, Q):
    """Some c with (I : c) == Q, or None."""
    colon_q = I.colon_ideal(Q)
    cands = list(colon_q.groebner())
    for c in cands:
        if I.colon(c) == Q:
            return c
    for a, b in combinations(cands, 2):
        c = a + b
        if I.colon(c) == Q:
            return c
    return None


def minimal_primes(I):
    """The minimal primes of R/I: the minimal leaves of rad(I)'s split.

    A radical ideal has no embedded primes, and a leaf whose radical is a
    certified prime has exactly that one minimal prime, so no colon
    certificate is needed, even where the splitter search is incomplete.
    """
    leaves = _split_primes(radical(I), 0)
    return [Q for Q in leaves if _minimal(Q, leaves)]


def krull_dimension(I):
    """Dimension of R/I via the combinatorial rule on the initial ideal."""
    ring = I.ring
    if ring.n > 16:
        raise UnsupportedInstance("dimension enumeration capped at 16 variables")
    if I.is_unit_ideal():
        return -1
    gb = I.groebner()
    order = ring.degrevlex
    supports = [
        frozenset(i for i, x in enumerate(g.leading(order)[0]) if x) for g in gb
    ]
    for size in range(ring.n, -1, -1):
        for S in combinations(range(ring.n), size):
            sset = set(S)
            if all(not sup <= sset for sup in supports):
                return size


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
