"""Ideals in polynomial rings: Groebner bases and exact operations built on them.

The basis engine is plain Buchberger with the sugar selection strategy and
the two classical pair-dropping criteria, followed by full inter-reduction,
so a (ring, order) pair determines the basis uniquely.  It is the package's
only Groebner engine: `lu.modules` encodes submodules of R^s as ideals over
tag variables under a `PositionOverTerm` order, and `buchberger` never pairs
two leading terms in different positions.  The operations on ideals take
one of three routes to it:

- membership, sums, products and powers use degrevlex bases of the ideals
  themselves; a product is formed from both factors' reduced bases;
- colon and intersection are syzygy computations through
  `lu.modules.relation_module`: (I : f) is the relation module of [f]
  modulo I, and I ∩ J the image of the relation module of I's reduced basis
  modulo J; `colon_ideal` meets colons and `saturation` iterates them;
- elimination takes a basis under an elimination order.

`lu.modules` imports this module when it loads, so the functions here that
need it import it when they run.

Every computation is metered against the one module-level BUDGET and raises
ResourceLimit when it runs out.  Bases of ideals and modules alike are served
through `groebner_basis`, a process-wide memo in front of `buchberger` keyed
by (generator tuple, order).  Every memo of the package, this one and the
primality and radical memos of `lu.decomp`, is a `functools.lru_cache` of
the MEMO_CAP = 128 most recently used results.  It stores successful results
only, so a ResourceLimit is raised again on the next request rather than
cached, and its `cache_info()` counts the results reused (hits) and computed
cold (misses).

Leading data lives on the polynomials: `Polynomial.leading(order)` keeps its
answer, with the order it was asked under, in the polynomial's `_lead` slot,
and `scale` and `monic` hand it on to their result.  So `normal_form`,
`s_polynomial`, `inter_reduce` and `buchberger` find each basis element's
leading term once per order, not once per reduction it takes part in, and
`buchberger` keeps them in an indexed list for its pair criteria.  The slot
is not a fourth memo: its answer is fixed by an immutable value (a
polynomial's terms never change after construction), it holds one entry,
and it has no key beyond the order, so there is nothing to bound, evict or
count.
"""

import heapq
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .errors import LuError, ResourceLimit
from .orders import degrevlex, elimination_order
from .poly import (
    Polynomial,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


@dataclass(frozen=True)
class Limits:
    """Budget for one basis computation."""

    reductions: int = 10_000
    term_ops: int = 1_000_000


BUDGET = Limits()

MEMO_CAP = 128


def groebner_basis(gens, order):
    """buchberger(gens, order), memoized on (gens, order)."""
    return _cached_basis(tuple(gens), order)


@lru_cache(maxsize=MEMO_CAP)
def _cached_basis(gens, order):
    # `buchberger` is looked up in the module at call time, so a wrapper
    # bound to the module attribute sees every cold basis
    return buchberger(gens, order)


class _Meter:
    __slots__ = ("limits", "reductions", "term_ops")

    def __init__(self):
        self.limits = BUDGET
        self.reductions = 0
        self.term_ops = 0

    def step_reduction(self):
        self.reductions += 1
        if self.reductions > self.limits.reductions:
            raise ResourceLimit(
                f"basis computation exceeded {self.limits.reductions} reductions"
            )

    def charge(self, n):
        self.term_ops += n
        if self.term_ops > self.limits.term_ops:
            raise ResourceLimit(
                f"basis computation exceeded {self.limits.term_ops} term operations"
            )


def normal_form(f, basis, order, meter=None):
    """Remainder of f under full division by basis (head and tail reduction).

    Monomials are processed biggest first; the reducer is the first basis
    element whose leading term divides, so the result is deterministic for a
    fixed basis tuple; for a Groebner basis it does not depend on the choice
    at all.  Each monomial's order key is computed once: the monomials still
    to process sit in a list of (key, exponents) sorted biggest last, a
    monomial new to the remainder is inserted in place, and an entry whose
    term has cancelled since is skipped when it comes up.
    """
    if f.is_zero() or not basis:
        return f
    ring = f.ring
    F = ring.field
    zero = F.zero
    key = order.key
    lts = []
    for g in basis:
        eg, cg = g.leading(order)
        tail = [(e2, c2) for e2, c2 in g.terms.items() if e2 != eg]
        lts.append((eg, cg, tail, len(g.terms)))
    rem = {}
    p = dict(f.terms)
    todo = sorted((key(e), e) for e in p)
    while todo:
        e = todo.pop()[1]
        c = p.pop(e, None)
        if c is None:
            continue  # cancelled after it was queued
        hit = None
        for lt in lts:
            if mono_divides(lt[0], e):
                hit = lt
                break
        if hit is None:
            rem[e] = c
            continue
        eg, cg, tail, size = hit
        if meter:
            meter.charge(size)
        # p -= (c/cg) * x^(e - eg) * tail
        shift = mono_div(e, eg)
        scale = F.neg(F.div(c, cg))
        for e2, c2 in tail:
            e3 = mono_mul(e2, shift)
            old = p.get(e3)
            if old is None:
                p[e3] = F.mul(c2, scale)
                insort(todo, (key(e3), e3))
                continue
            s = F.add(old, F.mul(c2, scale))
            if s == zero:
                del p[e3]
            else:
                p[e3] = s
    return Polynomial(ring, rem)


def s_polynomial(f, g, order):
    (ef, cf) = f.leading(order)
    (eg, cg) = g.leading(order)
    l = mono_lcm(ef, eg)
    F = f.ring.field
    mf = Polynomial(f.ring, {mono_div(l, ef): F.inv(cf)})
    mg = Polynomial(g.ring, {mono_div(l, eg): F.inv(cg)})
    return mf * f - mg * g


def inter_reduce(G, order):
    """Minimal reduced basis: monic, mutually irreducible, biggest first."""
    G = [g for g in G if not g.is_zero()]
    G.sort(key=lambda g: order.key(g.leading(order)[0]))
    lead = [g.leading(order)[0] for g in G]
    keep = [
        g
        for i, (g, eg) in enumerate(zip(G, lead))
        if not any(
            k != i and mono_divides(eh, eg) and (eh != eg or k < i)
            for k, eh in enumerate(lead)
        )
    ]
    out = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = normal_form(g, others, order)
        out.append(r.monic(order))
    out.sort(key=lambda g: order.key(g.leading(order)[0]), reverse=True)
    return tuple(out)


def buchberger(gens, order):
    """Reduced Groebner basis of the ideal the generators span.

    Under an order with a `position` (a module order), a pair whose leading
    terms sit in different positions is never formed.
    """
    meter = _Meter()
    G = [g.monic(order) for g in gens if not g.is_zero()]
    if not G:
        return ()

    position = getattr(order, "position", None)
    lead = [g.leading(order)[0] for g in G]  # grows with G
    sugar = [g.degree() for g in G]
    pending = set()
    heap = []

    def push_pair(i, j):
        li, lj = lead[i], lead[j]
        if position and position(li) != position(lj):
            return
        l = mono_lcm(li, lj)
        dl = mono_deg(l)
        s = max(sugar[i] + dl - mono_deg(li), sugar[j] + dl - mono_deg(lj))
        heapq.heappush(heap, (s, dl, i, j))
        pending.add((i, j))

    for j in range(len(G)):
        for i in range(j):
            push_pair(i, j)

    while heap:
        s, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        li, lj = lead[i], lead[j]
        l = mono_lcm(li, lj)
        if l == mono_mul(li, lj):
            continue  # coprime leading terms reduce to zero
        chained = False
        for k, lk in enumerate(lead):
            if k == i or k == j:
                continue
            if mono_divides(lk, l):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    chained = True
                    break
        if chained:
            continue
        meter.step_reduction()
        h = normal_form(s_polynomial(G[i], G[j], order), G, order, meter)
        if h.is_zero():
            continue
        G.append(h.monic(order))
        lead.append(G[-1].leading(order)[0])
        sugar.append(max(s, h.degree()))
        new = len(G) - 1
        for i2 in range(new):
            push_pair(i2, new)

    return inter_reduce(G, order)


class Ideal:
    """A finitely generated ideal with cached reduced bases per order.

    Each instance keeps the bases it has asked for, one per order.  A miss
    there goes to the shared `groebner_basis` memo (at most MEMO_CAP bases,
    least recently used dropped first), so ideals with the same generator
    tuple share one computation.
    """

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring, gens):
        self.ring = ring
        cleaned = []
        for g in gens:
            if isinstance(g, (int,)):
                g = ring.const(g)
            if g.ring != ring:
                raise LuError(f"generator lives in {g.ring!r}, not {ring!r}")
            if not g.is_zero():
                cleaned.append(g)
        self.gens = tuple(cleaned)
        self._gb = {}

    def __repr__(self):
        inner = ", ".join(g.text() for g in self.gens) or "0"
        return f"Ideal({inner})"

    def groebner(self, order=None):
        order = order or degrevlex(self.ring.n)
        if order not in self._gb:
            self._gb[order] = groebner_basis(self.gens, order)
        return self._gb[order]

    def canonical_gb(self):
        return self.groebner(self.ring.canonical)

    def canonical_strings(self):
        return [g.text() for g in self.canonical_gb()]

    def normal_form(self, f, order=None):
        order = order or degrevlex(self.ring.n)
        return normal_form(f, self.groebner(order), order)

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def is_unit_ideal(self):
        gb = self.groebner()
        return len(gb) == 1 and gb[0].constant_value() is not None

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.ring == other.ring
            and self.groebner() == other.groebner()
        )

    def __hash__(self):
        return hash((self.ring, self.groebner()))

    def __add__(self, other):
        if isinstance(other, Ideal):
            if other.ring != self.ring:
                raise LuError("sum of ideals from different rings")
            return Ideal(self.ring, self.gens + other.gens)
        return Ideal(self.ring, self.gens + tuple(other))

    def multiply(self, other):
        if other.ring != self.ring:
            raise LuError("product of ideals from different rings")
        gens = [a * b for a in self.groebner() for b in other.groebner()]
        return Ideal(self.ring, groebner_basis(gens, degrevlex(self.ring.n)))

    def power(self, k):
        if k < 0:
            raise LuError("negative ideal power")
        acc = Ideal(self.ring, [self.ring.one()])
        for _ in range(k):
            acc = acc.multiply(self)
        return acc

    def eliminate(self, drop):
        """Generators of the ideal's contraction to the subring avoiding `drop`.

        Result still lives in the ambient ring; its generators mention no
        dropped variable and form a basis of the contraction.
        """
        order = elimination_order(self.ring.names, drop)
        gb = self.groebner(order)
        dropset = set(drop)
        kept = [g for g in gb if not (g.variables() & dropset)]
        return Ideal(self.ring, kept)

    def eliminate_restrict(self, drop):
        """Same as eliminate, reinterpreted in the smaller ring."""
        small = self.ring.drop(drop)
        return Ideal(small, [g.restrict_to(small) for g in self.eliminate(drop).gens])

    def intersect(self, other):
        """The intersection self ∩ other, by syzygies.

        With G the reduced basis of self, it is the image of
        relation_module(G, other) under u -> sum u_i*g_i: the combinations
        of G that land in other.
        """
        from .modules import relation_module

        if other.ring != self.ring:
            raise LuError("intersection of ideals from different rings")
        gb = self.groebner()
        rows = relation_module(gb, other)
        return Ideal(self.ring, [sum(map(mul, u, gb), self.ring.zero()) for u in rows])

    def colon(self, f):
        """The transporter (self : f) for a single polynomial f, by syzygies.

        It is spanned by the rows of relation_module([f], self): every u
        with u*f in self.
        """
        from .modules import relation_module

        if not isinstance(f, Polynomial):
            f = self.ring.const(f)
        if self.contains(f):
            return Ideal(self.ring, [self.ring.one()])
        if f.constant_value() is not None:
            return self
        return Ideal(self.ring, [u for (u,) in relation_module([f], self)])

    def colon_ideal(self, other):
        """(self : other) for an ideal, as the meet of the generator transporters."""
        if not other.gens:
            return Ideal(self.ring, [self.ring.one()])
        acc = None
        for g in other.gens:
            c = self.colon(g)
            acc = c if acc is None else acc.intersect(c)
        return acc

    def saturation(self, f):
        """(self : f^infinity) together with the stabilization exponent.

        Returns (J, N) where J = (self : f^N) = (self : f^(N+1)); N = 0 means
        the ideal was already saturated.
        """
        prev = self
        n = 0
        while True:
            nxt = prev.colon(f)
            if nxt == prev:
                return prev, n
            prev = nxt
            n += 1
