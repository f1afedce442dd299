"""Ideals in polynomial rings: Groebner bases and exact operations built on them.

The basis engine is plain Buchberger with the sugar selection strategy and
the two classical pair-dropping criteria, followed by full inter-reduction,
so a (ring, order) pair determines the basis uniquely.  It is the package's
only Groebner engine: `lu.modules` encodes submodules of R^s as ideals over
tag variables under a `PositionOverTerm` order, and `buchberger` never pairs
two leading terms in different positions.  An ideal has one basis, reduced
under its ring's canonical lex order, the one traces print: membership,
equality, hashing, primality, radicals and dimension all read it.  The
operations on ideals take one of three routes to the engine:

- membership, sums, products and powers use the ideals' own bases; a
  product is formed from both factors' reduced bases;
- colon and intersection are syzygy computations through
  `lu.modules.relation_module`: (I : f) is the relation module of [f]
  modulo I, and I ∩ J the image of the relation module of I's reduced basis
  modulo J; `colon_ideal` meets colons and `saturation` iterates them.
  Before its syzygies, a colon (and a saturation, once, before its chain)
  solves each generator c*x_i - d*m, m a monomial free of x_i, for x_i, as
  a blowup chart's b*t_i - a_i often is.  That substitution is an
  isomorphism k[x]/I -> k[x']/I' onto a ring with fewer variables, so the
  colon ideal and the saturation's exponent N are those of I, and the
  module basis is built over k[x'];
- elimination takes one basis under `elimination_order`, lex with the
  dropped variables first, and keeps its elements free of them: they are
  the contraction's canonical basis in the smaller ring.

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

Division reads reducer rows: `_reducer_rows` turns a basis into one row per
element, (leading exps, leading coeff, tail items, size), and the one
division loop in `normal_form` scans them.  The rows are built once per
basis and order, in three places: `buchberger` extends its rows as its
basis grows, `inter_reduce` builds them once for the minimal basis, and
`Ideal.normal_form` keeps them in the instance's `_rows`, next to its
basis, built at the first normal form.  They are not a new memo either:
they live and die with the ideal, have no key of their own and nothing to
evict.  A call from outside the module passes a plain basis and
gets its rows built for that call.

Division keys only the monomials whose order matters.  `normal_form`
classifies each monomial once, on its first arrival, by the reducer that
scan finds: an irreducible monomial goes straight into the remainder, and
one whose reducer is a monomial generator is set aside, since reducing it
only removes it; neither gets an order key.  Only a monomial whose reducer
has a tail is keyed and queued, biggest first.  The reductions, their
order and coefficients, and the meter's count are those of plain
biggest-first division: a set-aside monomial is charged the generator's
size, 1, at the end of the call, when its coefficient is still nonzero, as
plain division charges it when it comes up.  So a normal form against a
basis of variables, the support of a valuation on F1 or F2, keys nothing.

Both work queues, `buchberger`'s S-pairs and `normal_form`'s keyed
monomials, are lists kept sorted with `bisect.insort` and popped from the
end, where the next item sits.  Their keys never tie (a pair is queued
once, a monomial until it is popped), so this pops in the order a heap
would, and `import lu` does not load `heapq`.
"""

from bisect import insort
from collections import namedtuple
from functools import lru_cache
from operator import le, mul

from .errors import LuError, ResourceLimit
from .orders import elimination_order
from .poly import (
    Polynomial,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


# budget for one basis computation
Limits = namedtuple("Limits", "reductions term_ops", defaults=(10_000, 1_000_000))


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


def _reducer_rows(basis, order):
    """One reducer row per basis element: (leading exps, leading coeff, tail, size).

    The tail is the element's other terms as (exps, coeff) items; size is its
    term count, the cost `normal_form` charges for one reduction step.
    """
    rows = []
    for g in basis:
        eg, cg = g.leading(order)
        rows.append((eg, cg, [t for t in g.terms.items() if t[0] != eg], len(g.terms)))
    return rows


def normal_form(f, basis, order, meter=None, rows=None):
    """Remainder of f under full division by basis (head and tail reduction).

    Monomials are reduced biggest first; the reducer is the first basis
    element whose leading term divides, so the result is deterministic for a
    fixed basis tuple; for a Groebner basis it does not depend on the choice
    at all.

    Each monomial is classified once, when it first arrives from f or from a
    reducer's tail, by one scan of the reducer rows:

    - no leading term divides it: it is irreducible and goes straight into
      the remainder, where later contributions add up;
    - its reducer has no tail (a monomial generator): reducing it only
      removes it, so it is set aside with its coefficient;
    - otherwise it is queued for reduction, in a list of (key, exps, row)
      sorted biggest last.

    Only the queued monomials get an order key, since reduction order
    matters only among reductions that add terms; a basis of monomials
    keys nothing.  A queued monomial that has cancelled by the time it
    comes up is skipped, and one that comes up never arrives again, as
    every contribution is smaller.  So the reductions, their order and
    their coefficients are those of the plain biggest-first division, and
    so is the meter's count: a reduction charges the reducer's size, and a
    monomial generator, size 1, is charged at the end for each set-aside
    monomial whose coefficient is still nonzero.  Only the order in which
    the remainder's terms sit in its dict differs.

    `rows` are the basis's `_reducer_rows` under `order`, passed by callers
    in this module that reduce many polynomials against one basis; without
    them the rows are built here.
    """
    if f.is_zero() or not basis:
        return f
    if rows is None:
        rows = _reducer_rows(basis, order)
    ring = f.ring
    F = ring.field
    zero = F.zero
    add, fmul = F.add, F.mul
    key = order.key
    rem, aside, pending, todo = {}, {}, {}, []
    arrivals = f.terms.items()
    while True:
        for e, c in arrivals:
            if e in pending:
                pending[e] = add(pending[e], c)
            elif e in rem:
                rem[e] = add(rem[e], c)
            elif e in aside:
                aside[e] = add(aside[e], c)
            else:
                for row in rows:
                    if all(map(le, row[0], e)):
                        break
                else:
                    rem[e] = c
                    continue
                if row[2]:
                    pending[e] = c
                    insort(todo, (key(e), e, row))
                else:
                    aside[e] = c
        while todo:
            _, e, row = todo.pop()
            c = pending.pop(e)
            if c != zero:
                break
        else:
            break
        eg, cg, tail, size = row
        if meter:
            meter.charge(size)
        # what f - (c/cg) * x^(e - eg) * g adds below e
        shift = mono_div(e, eg)
        scale = F.neg(F.div(c, cg))
        arrivals = [(mono_mul(e2, shift), fmul(c2, scale)) for e2, c2 in tail]
    if meter:
        left = sum(1 for c in aside.values() if c != zero)
        if left:
            meter.charge(left)
    return Polynomial(ring, {e: c for e, c in rem.items() if c != zero})


def s_polynomial(f, g, order):
    """mf*f - mg*g with mf, mg the monomials that lift both leading terms to
    their lcm with coefficient 1, built straight from the two shifted tails
    (the leading terms cancel)."""
    (ef, cf) = f.leading(order)
    (eg, cg) = g.leading(order)
    l = mono_lcm(ef, eg)
    F = f.ring.field
    zero = F.zero
    sf, af = mono_div(l, ef), F.inv(cf)
    sg, ag = mono_div(l, eg), F.neg(F.inv(cg))
    t = {mono_mul(e, sf): F.mul(c, af) for e, c in f.terms.items() if e != ef}
    for e, c in g.terms.items():
        if e == eg:
            continue
        e3 = mono_mul(e, sg)
        old = t.get(e3)
        if old is None:
            t[e3] = F.mul(c, ag)
            continue
        s = F.add(old, F.mul(c, ag))
        if s == zero:
            del t[e3]
        else:
            t[e3] = s
    return Polynomial(f.ring, t)


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
    rows = _reducer_rows(keep, order)
    out = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = normal_form(g, others, order, rows=rows[:i] + rows[i + 1 :])
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
    # per element of G, growing with it: leading exps, their degree, the
    # position of the leading term, sugar and reducer row
    lead = [g.leading(order)[0] for g in G]
    ldeg = [mono_deg(li) for li in lead]
    pos = [position(li) for li in lead] if position else None
    sugar = [g.degree() for g in G]
    rows = _reducer_rows(G, order)
    pending = set()
    # sorted by (-sugar, -lcm degree, -i, -j): the smallest pops from the end
    queue = []

    def push_pair(i, j):
        if pos and pos[i] != pos[j]:
            return
        l = mono_lcm(lead[i], lead[j])
        dl = mono_deg(l)
        s = max(sugar[i] + dl - ldeg[i], sugar[j] + dl - ldeg[j])
        insort(queue, (-s, -dl, -i, -j, l))
        pending.add((i, j))

    for j in range(len(G)):
        for i in range(j):
            push_pair(i, j)

    while queue:
        s, dl, i, j, l = queue.pop()
        s, dl, i, j = -s, -dl, -i, -j
        pending.discard((i, j))
        if dl == ldeg[i] + ldeg[j]:
            continue  # coprime leading terms reduce to zero
        # chain criterion: some other leading term divides the lcm and
        # neither of its pairs with i and j is still pending
        for k, lk in enumerate(lead):
            if (
                k != i
                and k != j
                and all(map(le, lk, l))
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
            ):
                break
        else:
            meter.step_reduction()
            h = normal_form(s_polynomial(G[i], G[j], order), G, order, meter, rows)
            if h.is_zero():
                continue
            g = h.monic(order)
            G.append(g)
            lead.append(g.leading(order)[0])
            ldeg.append(mono_deg(lead[-1]))
            if pos:
                pos.append(position(lead[-1]))
            sugar.append(max(s, h.degree()))
            rows.extend(_reducer_rows((g,), order))
            new = len(G) - 1
            for i2 in range(new):
                push_pair(i2, new)

    return inter_reduce(G, order)


class Ideal:
    """A finitely generated ideal with its cached reduced basis.

    The basis is reduced under the ring's canonical order and asked for
    once, from the shared `groebner_basis` memo (at most MEMO_CAP bases,
    least recently used dropped first), so ideals with the same generator
    tuple share one computation; its reducer rows are built at the first
    normal form.
    """

    __slots__ = ("ring", "gens", "_gb", "_rows")

    def __init__(self, ring, gens):
        self.ring = ring
        cleaned = []
        for g in gens:
            if not ring.own(g, "generator ").is_zero():
                cleaned.append(g)
        self.gens = tuple(cleaned)
        self._gb = self._rows = None

    def __repr__(self):
        inner = ", ".join(g.text() for g in self.gens) or "0"
        return f"Ideal({inner})"

    def groebner(self):
        if self._gb is None:
            self._gb = groebner_basis(self.gens, self.ring.canonical)
        return self._gb

    def canonical_strings(self):
        return [g.text() for g in self.groebner()]

    def normal_form(self, f):
        # contains and colon land here too
        self.ring.own(f)
        gb = self.groebner()
        if self._rows is None:
            self._rows = _reducer_rows(gb, self.ring.canonical)
        return normal_form(f, gb, self.ring.canonical, rows=self._rows)

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
        return Ideal(self.ring, groebner_basis(gens, self.ring.canonical))

    def power(self, k):
        if k < 0:
            raise LuError("negative ideal power")
        acc = Ideal(self.ring, [self.ring.one()])
        for _ in range(k):
            acc = acc.multiply(self)
        return acc

    def eliminate(self, drop):
        """The contraction of the ideal to the subring avoiding `drop`, as an
        ideal of that smaller ring.

        Under `elimination_order` the basis elements free of `drop` are the
        contraction's reduced basis under the smaller ring's canonical order,
        so they are kept as its basis.
        """
        gb = groebner_basis(self.gens, elimination_order(self.ring.names, drop))
        small = self.ring.drop(drop)
        dropset = set(drop)
        out = Ideal(small, [g.to_ring(small) for g in gb if not g.variables() & dropset])
        out._gb = out.gens
        return out

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

        Membership and a constant f are answered first.  Otherwise `_peel`
        solves the binomials c*x_i - d*m among the generators, and the colon
        is the peeled generators plus the rows of relation_module([f'], I')
        in the smaller ring: every u with u*f' in I'.  Peeling is the
        isomorphism k[x]/I -> k[x']/I' sending f to f', and the peeled
        generators span its kernel, so they and the preimage of (I' : f')
        span (self : f).  With nothing to peel, I' is self and f' is f.
        """
        from .modules import relation_module

        if self.contains(f):
            return Ideal(self.ring, [self.ring.one()])
        if f.constant_value() is not None:
            return self
        peeled, small, fs = _peel(self, f)
        rows = relation_module([fs], small)
        return Ideal(self.ring, peeled + [u.to_ring(self.ring) for (u,) in rows])

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

        The chain of colons runs on the peeled presentation (see `colon`):
        the isomorphism k[x]/I -> k[x']/I' sends each (I : f^n) onto
        (I' : f'^n), so the chain stabilizes at the same N, and J is the
        peeled generators plus the last colon of the chain.
        """
        peeled, prev, fs = _peel(self, f)
        n = 0
        while True:
            nxt = prev.colon(fs)
            if nxt == prev:
                break
            prev = nxt
            n += 1
        if not n:
            return self, 0
        return Ideal(self.ring, peeled + [g.to_ring(self.ring) for g in prev.gens]), n


def _solvable(g):
    """(i, r, m) when g = c*x_i - d*m with c, d nonzero constants and m a
    monomial free of x_i, so x_i = r*m, r = d/c, modulo g; else None.

    When both terms are variables, the later one is solved.
    """
    if len(g.terms) != 2:
        return None
    F = g.ring.field
    items = list(g.terms.items())
    best = None
    for (ex, cx), (em, cm) in (items, items[::-1]):
        if sum(ex) == 1:
            i = ex.index(1)
            if not em[i] and (best is None or i > best[0]):
                best = i, F.neg(F.div(cm, cx)), em
    return best


def _substitute(p, i, r, m):
    """p with x_i replaced by r*m.  Each term goes to one term, so the term
    count never grows; exponents go through mono_mul, so EXP_CAP holds."""
    if not any(e[i] for e in p.terms):
        return p
    F = p.ring.field
    zero = F.zero
    powers = [F.one]
    t = {}
    for e, c in p.terms.items():
        k = e[i]
        if k:
            while len(powers) <= k:
                powers.append(F.mul(powers[-1], r))
            c = F.mul(c, powers[k])
            e = mono_mul(e[:i] + (0,) + e[i + 1 :], tuple(k * x for x in m))
        s = F.add(t.get(e, zero), c)
        if s == zero:
            t.pop(e, None)
        else:
            t[e] = s
    return Polynomial(p.ring, t)


def _peel(I, f):
    """(peeled, I', f'): the smallest presentation of k[x]/I that solving
    binomials gives, and f's image there.

    While some generator g is c*x_i - d*m (`_solvable`), g is set aside and
    x_i := (d/c)*m is substituted in the other generators and in f.  Each
    set-aside g lies in I, since it differs from an earlier generator by a
    multiple of an earlier set-aside one.  The substitutions compose to the
    surjection k[x] -> k[x'] onto the variables left, whose kernel the
    set-aside generators span; so k[x]/I is k[x']/I' with I' the remaining
    generators moved to k[x'] (Greuel & Pfister, ch. 1-2, Singular's
    `elimpart`).  With nothing to solve, returns ([], I, f).
    """
    I.ring.own(f)
    gens = list(I.gens)
    peeled, solved = [], []
    while True:
        for k, g in enumerate(gens):
            hit = _solvable(g)
            if hit:
                break
        else:
            break
        i, r, m = hit
        peeled.append(g)
        solved.append(I.ring.names[i])
        del gens[k]
        gens = [h for h in (_substitute(h, i, r, m) for h in gens) if h.terms]
        f = _substitute(f, i, r, m)
    if not solved:
        return peeled, I, f
    small = I.ring.drop(solved)
    return peeled, Ideal(small, [h.to_ring(small) for h in gens]), f.to_ring(small)
