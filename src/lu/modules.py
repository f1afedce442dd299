"""Syzygies of generator lists and matrix ranks over residue fields.

Vectors are tuples of polynomials.  A submodule of R^s has no Groebner
engine of its own: `module_groebner` writes each vector as sum f_k*e_k over
one tag variable e_k per position and hands it to `ideals.groebner_basis`,
so modules share the ideal engine and its memo.  The order is position over
term with position 0 strongest, which is what makes first-component
elimination work: basis elements whose first entry is zero generate exactly
the relations that land in the allowed modulus.  `relation_module` is also
the route `Ideal.colon` and `Ideal.intersect` take.
"""

from .errors import LuError
from .ideals import groebner_basis
from .orders import DegRevLex, PositionOverTerm
from .poly import Polynomial


def module_groebner(vectors):
    """Reduced Groebner basis of the submodule the vectors span, position-over-term."""
    vecs = [tuple(v) for v in vectors if any(not c.is_zero() for c in v)]
    if not vecs:
        return []
    ring = vecs[0][0].ring
    n, s = ring.n, len(vecs[0])
    tag = "_e"
    while any(nm.startswith(tag) for nm in ring.names):
        tag = "_" + tag
    big = ring.extend(f"{tag}{k}" for k in range(s))
    onehot = [(0,) * k + (1,) + (0,) * (s - 1 - k) for k in range(s)]
    gens = [
        Polynomial(big, {e + onehot[k]: c for k, f in enumerate(v) for e, c in f.terms.items()})
        for v in vecs
    ]
    order = PositionOverTerm(DegRevLex(n), s)
    out = []
    for g in groebner_basis(gens, order):
        parts = [{} for _ in range(s)]
        for e, c in g.terms.items():
            parts[order.position(e)][e[:n]] = c
        out.append(tuple(Polynomial(ring, t) for t in parts))
    return out


def relation_module(gens, modulus):
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
    G = module_groebner(vecs)
    out = []
    for v in G:
        if v[0].is_zero():
            out.append(v[1:])
    return out


def reduce_entries(vec, ideal):
    """Normal form of every entry against an ideal."""
    return tuple(ideal.normal_form(c) for c in vec)


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
