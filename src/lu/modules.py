"""Syzygies of generator lists and matrix ranks over residue fields.

Vectors are tuples of polynomials.  The module order is position over term
with position 0 strongest, which is what makes first-component elimination
work: basis elements whose first entry is zero generate exactly the
relations that land in the allowed modulus.
"""

from collections import deque

from .errors import LuError
from .ideals import _Meter, normal_form
from .orders import degrevlex
from .poly import Polynomial, mono_div, mono_divides, mono_lcm, sub_shifted


def _lead(vec, order):
    """(position, exponents, coeff) of the module leading term, None for zero."""
    for i, c in enumerate(vec):
        if not c.is_zero():
            e, cf = c.leading(order)
            return i, e, cf
    return None


def _vec_sub_scaled(u, v, exps, coeff):
    """u - coeff * x^exps * v, componentwise."""
    out = []
    for a, b in zip(u, v):
        if b.is_zero():
            out.append(a)
            continue
        t = dict(a.terms)
        sub_shifted(t, b.terms.items(), exps, coeff, a.ring.field)
        out.append(Polynomial(a.ring, t))
    return tuple(out)


def _head_reduce(vec, basis, leads, order, meter):
    """Reduce the leading term as long as some basis leader divides it.

    `leads[k]` is `_lead(basis[k], order)`; returns the reduced vector and
    its own leading term.
    """
    while True:
        ld = _lead(vec, order)
        if ld is None:
            return vec, ld
        pos, e, c = ld
        hit = None
        for b, lb in zip(basis, leads):
            if lb[0] == pos and mono_divides(lb[1], e):
                hit = (b, lb)
                break
        if hit is None:
            return vec, ld
        b, (_, eb, cb) = hit
        F = vec[0].ring.field
        meter.charge(sum(len(x.terms) for x in b))
        vec = _vec_sub_scaled(vec, b, mono_div(e, eb), F.div(c, cb))


def module_groebner(vectors, order=None, limits=None):
    """Groebner basis of the submodule the vectors span, position-over-term."""
    vecs = [tuple(v) for v in vectors if any(not c.is_zero() for c in v)]
    if not vecs:
        return []
    ring = vecs[0][0].ring
    F = ring.field
    order = order or degrevlex(ring.n)
    meter = _Meter(limits)
    G = list(vecs)
    leads = [_lead(v, order) for v in G]  # grows with G
    pairs = deque((i, j) for j in range(len(G)) for i in range(j))
    while pairs:
        i, j = pairs.popleft()
        li, lj = leads[i], leads[j]
        if li[0] != lj[0]:
            continue  # different leading positions never interact
        meter.step_reduction()
        l = mono_lcm(li[1], lj[1])
        zero = tuple(ring.zero() for _ in G[i])
        si = _vec_sub_scaled(zero, G[i], mono_div(l, li[1]), F.neg(F.inv(li[2])))
        s = _vec_sub_scaled(si, G[j], mono_div(l, lj[1]), F.inv(lj[2]))
        s, ls = _head_reduce(s, G, leads, order, meter)
        if ls is not None:
            G.append(s)
            leads.append(ls)
            pairs.extend((i2, len(G) - 1) for i2 in range(len(G) - 1))
    return G


def relation_module(gens, modulus, limits=None):
    """Generators of { u : sum u_i * gens_i lies in the modulus ideal }.

    Returns a list of tuples of length len(gens).
    """
    if not gens:
        return []
    ring = gens[0].ring
    s = len(gens)
    vecs = []
    for i, g in enumerate(gens):
        row = [ring.zero()] * (s + 1)
        row[0] = g
        row[i + 1] = ring.one()
        vecs.append(tuple(row))
    for h in modulus.gens:
        row = [ring.zero()] * (s + 1)
        row[0] = h
        vecs.append(tuple(row))
    G = module_groebner(vecs, limits=limits)
    out = []
    for v in G:
        if v[0].is_zero():
            out.append(v[1:])
    return out


def reduce_entries(vec, ideal, order=None):
    """Normal form of every entry against an ideal."""
    return tuple(ideal.normal_form(c, order) for c in vec)


def determinant(rows):
    """Cofactor expansion; fine for the small matrices this package meets."""
    n = len(rows)
    if n == 0:
        raise LuError("determinant of an empty matrix")
    if any(len(r) != n for r in rows):
        raise LuError("determinant of a non-square matrix")
    if n == 1:
        return rows[0][0]
    ring = rows[0][0].ring
    acc = ring.zero()
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * determinant(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def minors(rows, k):
    """All k by k minors as (row_idx, col_idx, det), in index order."""
    from itertools import combinations

    m = len(rows)
    n = len(rows[0]) if rows else 0
    for ri in combinations(range(m), k):
        for ci in combinations(range(n), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            yield ri, ci, determinant(sub)


def rank_mod_prime(rows, prime):
    """Rank over the residue field at a prime, by division free elimination.

    The row operation r -> p*r - c*pivot scales by a residue p that is
    nonzero at the prime, which preserves rank over a domain; entries stay
    reduced against the prime so zero tests are normal form checks.
    """
    if not rows or not rows[0]:
        return 0
    work = [[prime.normal_form(c) for c in r] for r in rows]
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise LuError("rank of a ragged matrix")
    rank = 0
    free = list(range(len(work)))
    for col in range(ncols):
        piv = next((i for i in free if not work[i][col].is_zero()), None)
        if piv is None:
            continue
        rank += 1
        free.remove(piv)
        if rank == min(len(work), ncols):
            break
        pv = work[piv][col]
        for i in free:
            ci = work[i][col]
            if ci.is_zero():
                continue
            work[i] = [
                prime.normal_form(pv * a - ci * b)
                for a, b in zip(work[i], work[piv])
            ]
    return rank
