"""Dense univariate polynomials over the rationals: gcd, squarefree parts,
and a bounded complete factor search for small degrees.

Coefficient lists run from constant term up; the zero polynomial is [].
"""

from fractions import Fraction
from math import isqrt

from .errors import LuError

_VALUE_CAP = 10**12  # refuse integer factorizations past this
_TUPLE_CAP = 200_000  # refuse divisor-combination searches past this


def trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def deg(c):
    return len(c) - 1


def add(a, b):
    n = max(len(a), len(b))
    return trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def scale(a, s):
    if not s:
        return []
    return [x * s for x in a]


def mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def divmod_poly(a, b):
    if not b:
        raise LuError("univariate division by zero")
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while r and len(r) >= len(b):
        s = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = s
        for i in range(len(b)):
            r[k + i] -= s * b[i]
        r = trim(r)
    return trim(q), r


def monic(a):
    return [x / a[-1] for x in a] if a else a


def gcd_poly(a, b):
    a, b = trim([Fraction(x) for x in a]), trim([Fraction(x) for x in b])
    while b:
        _, r = divmod_poly(a, b)
        a, b = b, r
    return monic(a)


def derivative(a):
    return trim([i * a[i] for i in range(1, len(a))])


def squarefree_part(a):
    """a / gcd(a, a'), monic; equals a up to scale iff a is squarefree."""
    if deg(a) <= 0:
        return monic(a)
    g = gcd_poly(a, derivative(a))
    q, r = divmod_poly(a, g)
    if r:
        raise LuError("gcd failed to divide")
    return monic(q)


def evaluate(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def to_primitive_int(a):
    """Scale to a primitive integer coefficient list with positive lead."""
    from math import gcd as igcd

    if not a:
        return []
    a = [Fraction(x) for x in a]
    denom = 1
    for x in a:
        denom = denom * x.denominator // igcd(denom, x.denominator)
    ints = [int(x * denom) for x in a]
    g = 0
    for x in ints:
        g = igcd(g, abs(x))
    ints = [x // g for x in ints]
    if ints[-1] < 0:
        ints = [-x for x in ints]
    return ints


def int_divisors(n):
    """All positive divisors, by trial division; refuses huge inputs."""
    n = abs(n)
    if n == 0:
        raise LuError("divisors of zero")
    if n > _VALUE_CAP:
        raise LuError(f"integer too large to factor: {n}")
    out = []
    d = 1
    while d <= isqrt(n):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_roots(a):
    """All rational roots of a, each once, sorted."""
    ints = to_primitive_int(a)
    if not ints:
        raise LuError("roots of the zero polynomial")
    k = 0
    while ints[k] == 0:
        k += 1
    roots = set()
    if k:
        roots.add(Fraction(0))
        ints = ints[k:]
    if len(ints) > 1:
        for p in int_divisors(ints[0]):
            for q in int_divisors(ints[-1]):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if evaluate(a, cand) == 0:
                        roots.add(cand)
    return sorted(roots)


def _kronecker_factor(ints, target_deg):
    """A monic rational factor of exact degree target_deg, or None.

    Complete: interpolates every sign-and-divisor choice at target_deg + 1
    integer points, so absence of a hit proves absence of such a factor.
    """
    pts = []
    x = 0
    while len(pts) < target_deg + 1:
        v = evaluate(ints, x)
        if v != 0:  # roots were stripped by the caller
            pts.append((x, int(v)))
        x = -x + (1 if x <= 0 else 0)  # 0, 1, -1, 2, -2, ...
    choice_lists = []
    total = 1
    for _, v in pts:
        ds = int_divisors(v)
        cands = sorted({d for d in ds} | {-d for d in ds})
        choice_lists.append(cands)
        total *= len(cands)
        if total > _TUPLE_CAP:
            raise LuError("factor search space too large")

    def interpolate(vals):
        # Lagrange through (pts[i][0], vals[i])
        poly = []
        for i, (xi, _) in enumerate(pts):
            term = [Fraction(vals[i])]
            for j, (xj, _) in enumerate(pts):
                if i == j:
                    continue
                term = mul(term, [Fraction(-xj, 1), Fraction(1)])
                term = scale(term, Fraction(1, xi - xj))
            poly = add(poly, term)
        return poly

    idx = [0] * len(pts)
    while True:
        vals = [choice_lists[i][idx[i]] for i in range(len(pts))]
        g = interpolate(vals)
        if deg(g) == target_deg:
            q, r = divmod_poly(ints, g)
            if not r and deg(q) >= 1:
                return monic(g)
        # odometer increment
        i = 0
        while i < len(idx):
            idx[i] += 1
            if idx[i] < len(choice_lists[i]):
                break
            idx[i] = 0
            i += 1
        else:
            return None


def factor_once(a):
    """A proper monic factor of a, or None if a is irreducible over Q.

    Complete for deg(a) <= 8; raises LuError when the bounded search cannot
    promise completeness (huge coefficients), never guesses.
    """
    a = trim([Fraction(x) for x in a])
    d = deg(a)
    if d <= 1:
        return None
    roots = rational_roots(a)
    if roots:
        return [-roots[0], Fraction(1)]
    if d <= 3:
        return None  # cubics and quadratics split only through roots
    if d > 8:
        raise LuError(f"irreducibility test capped at degree 8, got {d}")
    ints = to_primitive_int(a)
    for t in range(2, d // 2 + 1):
        g = _kronecker_factor(ints, t)
        if g is not None:
            return g
    return None

