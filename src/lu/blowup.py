"""Local blowing ups as chart presentations, with runtime isomorphism checks.

A blowup along (b; a_1..a_k) is recorded through its b chart: adjoin t_i,
impose b*t_i - a_i, and saturate at b, which leaves b a nonzerodivisor on
the chart.  Every other structural claim used later is re-verified on the
instance: strict transforms contract back to where they came from,
compositions are checked by mutual kernel containment under the variable
identification, and lifted blowups must reproduce the chart they were found
on.

Blowup data must be polynomials of the source ring; anything else is a
LuError.  Text is parsed only at the boundaries (scenes, the command line,
traces), and polynomials reach a chart ring through `Polynomial.to_ring`.
"""

from collections import namedtuple

from .errors import (
    ChartMismatch,
    IsomorphismCheckFailed,
    LuError,
    SupportDivision,
    ValueInequalityViolated,
)
from .ideals import Ideal
from .localring import LocalRing
from .poly import Polynomial
from .valuations import WeightValuation

_SINGLE = ("t", "s", "w", "z")


def _chart_names(taken, k):
    if k == 0:
        return ()
    if k == 1:
        for nm in _SINGLE:
            if nm not in taken:
                return (nm,)
        i = 1
        while f"t{i}" in taken:
            i += 1
        return (f"t{i}",)
    for prefix in _SINGLE:
        names = tuple(f"{prefix}{i}" for i in range(1, k + 1))
        if all(nm not in taken for nm in names):
            return names
    raise LuError("no free chart variable names left")


def _source_poly(ring, f):
    """f itself, which must be a polynomial of the source ring."""
    if not isinstance(f, Polynomial) or f.ring != ring:
        raise LuError(f"blowup data {f!r} is not a polynomial of {ring!r}")
    return f


class LocalBlowup(
    namedtuple("LocalBlowup", "source chart b a_list t_names stabilization_N")
):
    __slots__ = ()

    def __repr__(self):
        a = ", ".join(f.text() for f in self.a_list)
        return f"LocalBlowup(b={self.b.text()}, a=[{a}], t={list(self.t_names)})"


def local_blowup(L, b, a_list, nu=None):
    """The b chart of blowing up L along the ideal (b, a_1..a_k).

    With a valuation: refuses denominators inside the support and numerators
    of smaller value, so the chart keeps the valuation nonnegative.  b is a
    nonzerodivisor on the chart by construction: `Ideal.saturation` returns
    only once J : b == J.
    """
    ring = L.ring
    b = _source_poly(ring, b)
    a_list = tuple(_source_poly(ring, a) for a in a_list)
    if b.is_zero():
        raise LuError("cannot divide a chart by zero")
    if a_list:
        for g in (b,) + a_list:
            if not L.center.contains(g):
                raise LuError(
                    f"blowup generator {g.text()} is not in the maximal ideal"
                )
    if nu is not None:
        if nu.ring != ring:
            raise LuError("valuation lives in a different ring")
        vb = nu.value_of(b)
        if vb.is_infinite:
            raise SupportDivision(f"denominator {b.text()} lies in the support")
        for a in a_list:
            if nu.value_of(a) < vb:
                raise ValueInequalityViolated(
                    f"value of {a.text()} is {nu.value_of(a).text()}, "
                    f"below the denominator's {vb.text()}"
                )
    t_names = _chart_names(set(ring.names), len(a_list))
    S = ring.extend(t_names)
    J, N = _chart_ideal(S, L.defining, b, a_list, t_names)
    cgens = [g.to_ring(S) for g in L.center.gens] + [S.var(nm) for nm in t_names]
    chart = LocalRing(S, J, Ideal(S, cgens))
    return LocalBlowup(L, chart, b, a_list, t_names, N)


def _chart_ideal(S, ideal, b, a_list, t_names):
    """(ideal + (b*t_i - a_i)) in the chart ring S, saturated at b; (J, N)."""
    bS = b.to_ring(S)
    gens = [g.to_ring(S) for g in ideal.gens]
    gens += [bS * S.var(nm) - a.to_ring(S) for nm, a in zip(t_names, a_list)]
    return Ideal(S, gens).saturation(bS)


def strict_transform(B, ideal):
    """The saturated image of an ideal of the source in the chart; (ideal, N)."""
    return _chart_ideal(B.chart.ring, ideal, B.b, B.a_list, B.t_names)


def transport_through_blowup(nu, B):
    """The valuation on the chart: same rows, new columns nu(a_i) - nu(b).

    A numerator inside the support sends its chart variable into the
    transported support, with a zero column.  The caller re-certifies.
    """
    if nu.ring != B.source.ring:
        raise LuError("valuation lives in a different ring")
    vb = nu.value_of(B.b)
    if vb.is_infinite:
        raise SupportDivision(f"denominator {B.b.text()} lies in the support")
    cols = []
    for a in B.a_list:
        va = nu.value_of(a)
        cols.append((0,) * nu.rank if va.is_infinite else (va - vb).vec)
    supp1, _ = strict_transform(B, nu.support)
    rows = [
        row + tuple(col[r] for col in cols) for r, row in enumerate(nu.rows)
    ]
    return WeightValuation(B.chart.ring, supp1, rows)


CenterIsoReport = namedtuple("CenterIsoReport", "ok failures")


def verify_center_isos(B, nu):
    """Instance checks that the blowup only moves the center.

    Three families: the transformed support contracts back to the support;
    the chart relations vanish on the transformed support while b stays
    outside it; and every contracted chart relation becomes trivial after
    inverting something outside the support.
    """
    failures = []
    supp = nu.support
    supp1, _ = strict_transform(B, supp)
    S = B.chart.ring
    back = supp1.eliminate_restrict(B.t_names)
    if back != supp:
        failures.append(
            "transformed support contracts to "
            f"({', '.join(back.canonical_strings())}), not the support"
        )
    if supp.contains(B.b):
        failures.append(f"denominator {B.b.text()} lies in the support")
    bS = B.b.to_ring(S)
    for nm, a in zip(B.t_names, B.a_list):
        w = bS * S.var(nm) - a.to_ring(S)
        if not supp1.contains(w):
            failures.append(
                f"chart relation {w.text()} misses the transformed support"
            )
    I = B.source.defining
    contracted = B.chart.defining.eliminate_restrict(B.t_names)
    for g in contracted.canonical_gb():
        if supp.contains_ideal(I.colon(g)):
            failures.append(
                f"contracted chart relation {g.text()} is not invertible "
                "away from the support"
            )
    return CenterIsoReport(not failures, tuple(failures))


def _clear_chart_fractions(p, n_old, b, a_list):
    """p(x, t) with t_i = a_i/b as P(x)/b^d; returns (P, d).

    The identity b^d * p - P lies in the ideal of the chart relations, so no
    saturation is involved.
    """
    R = b.ring
    if p.is_zero():
        return R.zero(), 0
    d = max(sum(e[n_old:]) for e in p.terms)
    P = R.zero()
    for e, c in p.terms.items():
        k = sum(e[n_old:])
        term = R.monomial(e[:n_old], c) * b ** (d - k)
        for a, f in zip(a_list, e[n_old:]):
            if f:
                term = term * a ** f
        P = P + term
    return P, d


def compose(B1, B2):
    """The composite blowup, verified against B2's chart.

    B2's data is pulled back to the source through t_i = a_i/b with a common
    denominator, the product center is blown up directly in fresh variables,
    and the two presentations must contain each other's kernels under the
    variable identification.  The result reuses B2's chart.

    Nothing in the package calls it: it is the paper's composition of local
    blowups, exported as `lu.compose`, and acceptance criterion 05 checks it
    on seeded pairs.
    """
    if B2.source != B1.chart:
        raise ChartMismatch(
            "second blowup does not start on the first blowup's chart"
        )
    R = B1.source.ring
    n_old = R.n
    cleared = [
        _clear_chart_fractions(p, n_old, B1.b, B1.a_list)
        for p in (B2.b,) + B2.a_list
    ]
    D = max(d for _, d in cleared)
    bprime = cleared[0][0] * B1.b ** (D - cleared[0][1])
    aprime = [P * B1.b ** (D - d) for P, d in cleared[1:]]
    bstar = B1.b * bprime
    astar = tuple(a * bprime for a in B1.a_list) + tuple(ap * B1.b for ap in aprime)

    S2 = B2.chart.ring
    fresh = _chart_names(set(R.names) | set(S2.names), len(astar))
    Sstar = R.extend(fresh)
    Jstar, N = _chart_ideal(Sstar, B1.source.defining, bstar, astar, fresh)

    old_ts = B1.t_names + B2.t_names
    fwd = dict(zip(fresh, old_ts))
    bwd = dict(zip(old_ts, fresh))
    J2 = B2.chart.defining
    for g in Jstar.canonical_gb():
        if not J2.contains(g.to_ring(S2, fwd)):
            raise IsomorphismCheckFailed(
                f"composite relation {g.text()} fails on the second chart"
            )
    for g in J2.canonical_gb():
        if not Jstar.contains(g.to_ring(Sstar, bwd)):
            raise IsomorphismCheckFailed(
                f"second chart relation {g.text()} fails on the composite"
            )
    return LocalBlowup(B1.source, B2.chart, bstar, astar, old_ts, N)


def lift_from_localization(L, nu, b, a_list):
    """Rebuild a blowup found over the localized ring as one over L.

    The localized run controls only the first row of the value, so the
    denominator may have to swap with a generator of smaller full value; the
    swap is legal exactly when the first row cannot see it, and the old
    chart relations are re-verified in the new chart.
    """
    ring = L.ring
    b = _source_poly(ring, b)
    a_list = [_source_poly(ring, a) for a in a_list]
    cands = [b] + a_list
    vals = [nu.value_of(c) for c in cands]
    k = 0
    for i in range(1, len(cands)):
        if vals[i] < vals[k]:
            k = i
    if k == 0:
        return local_blowup(L, b, a_list, nu=nu)
    if not (vals[0] - vals[k]).truncate(1).is_zero:
        raise IsomorphismCheckFailed(
            "denominator swap would already change the localized chart"
        )
    a_new = [cands[i] for i in range(len(cands)) if i != k]
    B = local_blowup(L, cands[k], a_new, nu=nu)
    S = B.chart.ring
    J = B.chart.defining
    t0 = S.var(B.t_names[0])
    bS = b.to_ring(S)
    pos = {}
    for i in range(len(cands)):
        if i != k:
            pos[i] = len(pos)
    for i in range(1, len(cands)):
        if i == k:
            continue
        w = bS * S.var(B.t_names[pos[i]]) - cands[i].to_ring(S) * t0
        if not J.contains(w):
            raise IsomorphismCheckFailed(
                f"relation {w.text()} fails after the denominator swap"
            )
    return B


def lift_from_quotient(L, nu, p1, b, a_list):
    """Rebuild a blowup found on the quotient by p1 as one on L.

    The data already consists of ambient representatives.  Checks: the
    denominator stays outside p1, the chart ideal lands in the transformed
    p1, and the transformed p1 contracts back to p1; local_blowup checks
    the full value inequalities.
    """
    ring = L.ring
    b = _source_poly(ring, b)
    a_list = [_source_poly(ring, a) for a in a_list]
    if p1.normal_form(b).is_zero():
        raise SupportDivision(f"{b.text()} vanishes on the quotient")
    B = local_blowup(L, b, a_list, nu=nu)
    p1S, _ = strict_transform(B, p1)
    for g in B.chart.defining.canonical_gb():
        if not p1S.contains(g):
            raise IsomorphismCheckFailed(
                f"chart relation {g.text()} misses the transformed quotient kernel"
            )
    if p1S.eliminate_restrict(B.t_names) != p1:
        raise IsomorphismCheckFailed(
            "transformed quotient kernel does not contract to the kernel"
        )
    return B
