"""Finitely presented local rings with nilpotents: regularity and normal flatness.

A LocalRing is k[x1..xn]/I seen at a prime center containing I.  All the
module arithmetic happens with ambient polynomial data: the nilpotent
filtration is the radical filtration N^n + I, its graded pieces are finitely
presented over R/N, and local statements at a prime are decided by one
elimination at the prime (`lu.modules`) together with colon escapes.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .decomp import local_dimension, radical, require_prime
from .errors import CertificationError, UnsupportedInstance
from .ideals import Ideal
from .modules import eliminate_at_prime, rank_mod_prime, reduce_entries, relation_module

MAX_NILPOTENT_LENGTH = 8


class LocalRing:
    __slots__ = ("ring", "defining", "center")

    def __init__(self, ring, defining, center, check=True):
        self.ring = ring
        self.defining = defining
        self.center = center
        if check:
            if not center.contains_ideal(defining):
                raise CertificationError(
                    "localization center does not contain the defining ideal"
                )
            require_prime(center, "localization center")

    def __repr__(self):
        return (
            f"LocalRing({self.ring!r} / ({', '.join(g.text() for g in self.defining.gens)})"
            f" at ({', '.join(g.text() for g in self.center.gens)}))"
        )

    def __eq__(self, other):
        if not isinstance(other, LocalRing):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.defining == other.defining
            and self.center == other.center
        )

    def __hash__(self):
        return hash((self.ring, self.defining, self.center))

    def nilradical(self):
        return radical(self.defining)

    def reduced(self):
        return LocalRing(self.ring, self.nilradical(), self.center, check=False)

    def dimension(self):
        return local_dimension(self.defining, self.center)

    def center_basis(self):
        return list(self.center.canonical_gb())


def cotangent_presentation(L):
    """Generators and relation rows of center/(center^2 + defining)."""
    gens = L.center_basis()
    modulus = L.center.power(2) + L.defining
    rels = relation_module(gens, modulus)
    return gens, [list(r) for r in rels]


@dataclass(frozen=True)
class Regularity:
    regular: bool
    embedding_dimension: int
    dimension: int


def embedding_dimension(L):
    gens, rels = cotangent_presentation(L)
    if not gens:
        return 0
    return len(gens) - rank_mod_prime(rels, L.center)


def is_regular_local(L):
    """Compare embedding dimension with Krull dimension at the center."""
    e = embedding_dimension(L)
    d = L.dimension()
    return Regularity(e == d, e, d)


def nilpotent_length(L):
    """Least n with N^n inside the defining ideal; 1 means reduced."""
    N = L.nilradical()
    if N == L.defining:
        return 1
    for n in range(2, MAX_NILPOTENT_LENGTH + 1):
        if L.defining.contains_ideal(N.power(n)):
            return n
    raise UnsupportedInstance(
        f"nilpotent filtration longer than {MAX_NILPOTENT_LENGTH}"
    )


def nilradical_min_gens(L):
    """A minimal generating list of the nilradical over the local ring.

    Nakayama at the center: a candidate is redundant when the others plus
    center * N plus the defining ideal already contain it.  One backward
    pass tests each candidate once: removals only shrink the others, so a
    candidate kept stays irredundant.
    """
    N = L.nilradical()
    if N == L.defining:
        return []
    cands = list(N.canonical_gb())
    mN = L.center.multiply(N)
    for i in range(len(cands) - 1, -1, -1):
        others = cands[:i] + cands[i + 1 :]
        if (Ideal(L.ring, others) + mN + L.defining).contains(cands[i]):
            cands.pop(i)
    return cands


def graded_piece(L, n):
    """Presentation of (N^n + I)/(N^(n+1) + I) as a module over R/N.

    Returns (generators, relation rows); generators are the degree n products
    of the nilradical's minimal generators that survive, rows have their
    entries reduced modulo N.
    """
    N = L.nilradical()
    base = nilradical_min_gens(L)
    if not base:
        return [], []
    modulus = N.power(n + 1) + L.defining
    prods = []
    for combo in combinations_with_replacement(base, n):
        p = L.ring.one()
        for f in combo:
            p = p * f
        if not modulus.contains(p):
            prods.append(p)
    if not prods:
        return [], []
    rels = relation_module(prods, modulus)
    rows = []
    for r in rels:
        row = list(reduce_entries(r, N))
        if any(not c.is_zero() for c in row):
            rows.append(row)
    return prods, rows


@dataclass(frozen=True)
class Freeness:
    free: bool
    rank: int
    witness: object = None


def is_free_at(L, n, prime=None):
    """Is the n-th graded piece free after localizing at `prime`?

    Fitting criterion for a finitely presented module over a local ring:
    with q the relation rank over the residue field, the module is free of
    rank generators - q exactly when every (q+1)-minor of the relation matrix
    vanishes in the localized reduced ring.  The elimination at the prime,
    with entries reduced modulo N, pivots on units only, so those minors
    generate there the same ideal as the entries of its residual block:
    the piece is free exactly when every residual entry vanishes.
    """
    prime = prime or L.center
    gens, rows = graded_piece(L, n)
    s = len(gens)
    if s == 0 or not rows:
        return Freeness(True, s)
    N = L.nilradical()
    pivots, residual = eliminate_at_prime(rows, prime, N)
    r = s - len(pivots)
    for row in residual:
        for d in row:
            # entries are reduced modulo N; a nonzero one is zero in the
            # localization iff some multiplier outside the prime kills it
            if d.is_zero() or not prime.contains_ideal(N.colon(d)):
                continue
            return Freeness(False, r, witness=d)
    return Freeness(True, r)


@dataclass(frozen=True)
class NormalFlatness:
    flat: bool
    length: int
    first_bad: int = 0
    witness: object = None


def is_normally_flat(L):
    """Flatness of the nilpotent-graded object along the center."""
    length = nilpotent_length(L)
    for n in range(1, length):
        fr = is_free_at(L, n)
        if not fr.free:
            return NormalFlatness(False, length, n, fr.witness)
    return NormalFlatness(True, length)
