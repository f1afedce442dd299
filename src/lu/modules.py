"""Syzygies of generator lists and the one matrix elimination at a prime.

Vectors are tuples of polynomials.  A submodule of R^s has no Groebner
engine of its own: `module_groebner` writes each vector as sum f_k*e_k over
one tag variable e_k per position and hands it to `ideals.groebner_basis`,
so modules share the ideal engine and its memo.  The order is position over
term with position 0 strongest, which is what makes first-component
elimination work: basis elements whose first entry is zero generate exactly
the relations that land in the allowed modulus.  Inside a position it is
degrevlex: ideals are reduced under lex, but lex syzygies of random
4-variable ideals take over ten times as long.  `relation_module` is also
the route `Ideal.colon` and `Ideal.intersect` take.

Every matrix question at a prime goes through `eliminate_at_prime`.  Its
pivot count is the rank over the residue field.  Its pivots are units at
the prime, so after column operations the matrix is a unit triangular block
beside the residual block, and row and column operations that are
invertible at the prime leave the Fitting ideals there unchanged.  So with
q pivots the (q+1)-minors generate, at the prime, the same ideal as the
residual entries, and a presentation is free at the prime exactly when its
residual block vanishes there (Eisenbud, Commutative Algebra, sec. 20.2).
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


def eliminate_at_prime(rows, prime, modulus=None):
    """Division free elimination of a matrix over the localization at a prime.

    Entries are reduced against `modulus` (the prime itself by default).
    Rows are taken in order: each is cleared in the pivot columns found so
    far and becomes a pivot row at its first entry outside the prime, or a
    residual row when every entry lies in the prime.  Clearing is
    r -> p*r - c*pivot with p the pivot entry, a unit at the prime, so it is
    invertible there.  Returns (pivots, residual): pivots are
    (row index, column, row), each row zero in the earlier pivot columns;
    residual rows are zero in every pivot column and have all entries in the
    prime.  Once every column has a pivot, the rows left would clear to zero
    and are dropped.
    """
    modulus = modulus or prime
    inside = Polynomial.is_zero if modulus is prime else prime.contains
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise LuError("elimination of a ragged matrix")
    pivots, residual = [], []
    for i, r in enumerate(rows):
        if len(pivots) == ncols:
            break
        r = _clear([modulus.normal_form(c) for c in r], pivots, modulus)
        col = next((j for j, c in enumerate(r) if not inside(c)), None)
        if col is None:
            residual.append(r)
        else:
            pivots.append((i, col, r))
    return pivots, [_clear(r, pivots, modulus) for r in residual]


def _clear(row, pivots, modulus):
    for _, col, piv in pivots:
        c = row[col]
        if not c.is_zero():
            p = piv[col]
            row = [modulus.normal_form(p * a - c * b) for a, b in zip(row, piv)]
    return row


def rank_mod_prime(rows, prime):
    """Rank over the residue field at a prime: the pivot count of the elimination."""
    return len(eliminate_at_prime(rows, prime)[0])
