"""The Groebner kernel against a plain reference built from generic arithmetic.

The reference below is the textbook form of `ideals.buchberger`: the same
sugar selection, the same coprime and chain criteria and the same
first-divisor division, but with every lcm recomputed, every S-polynomial
formed as mf*f - mg*g and every reduction step a polynomial subtraction.
The kernel must form the same S-pairs in the same order and return the same
bases; only its cost per operation differs.
"""

import heapq

import pytest
from hypothesis import assume, given, settings, strategies as st

from lu import decomp, ideals
from lu.fields import GF, QQ
from lu.errors import ResourceLimit
from lu.ideals import Limits, buchberger, normal_form, s_polynomial
from lu.orders import DegRevLex, Lex, PositionOverTerm, elimination_order
from lu.pipeline import run_reduction
from lu.poly import (
    Polynomial,
    PolyRing,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)
from lu.scenes import load_scene

# lex with y, the dropped block, first and the tie z > x after it
_ELIMINATION = elimination_order(("x", "y", "z"), ("y",))

# (field, variable names, order, module positions): the last `positions`
# names are tag variables, and every monomial carries exactly one of them
_SETTINGS = [
    (field, *case)
    for field in (QQ, GF(7))
    for case in (
        (("x", "y", "z"), Lex((2, 0, 1)), 0),
        (("x", "y", "z"), DegRevLex(3), 0),
        (("x", "y", "z"), _ELIMINATION, 0),
        (("x", "y", "e0", "e1"), PositionOverTerm(DegRevLex(2), 2), 2),
    )
]
_each_setting = pytest.mark.parametrize(
    "setting",
    _SETTINGS,
    ids=lambda s: f"{s[0]!r}-"
    + ("EliminationLex" if s[2] == _ELIMINATION else type(s[2]).__name__),
)


@st.composite
def _polys(draw, setting, count, max_terms=3):
    """`count` nonzero polynomials of the setting's ring, of 1 to `max_terms` terms."""
    field, names, order, positions = setting
    R = PolyRing(field, names)
    n = len(names) - positions
    term = st.tuples(
        st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.integers(0, max(positions - 1, 0)),
    )
    polys = []
    for _ in range(count):
        acc = R.zero()
        for c, e, k in draw(st.lists(term, min_size=1, max_size=max_terms)):
            tag = tuple(int(i == k) for i in range(positions))
            acc = acc + R.monomial(tuple(e) + tag, c)
        assume(not acc.is_zero())
        polys.append(acc)
    return polys


def _monomial_factor(ring, target, lt):
    # the monomial lifting the leading term lt = (exps, coeff) to target, coefficient 1
    e, c = lt
    return ring.monomial(mono_div(target, e), ring.field.inv(c))


def _reference_normal_form(f, basis, order, meter=None):
    # a reduction step charges the meter the reducer's term count
    ring, F = f.ring, f.ring.field
    rem = {}
    while not f.is_zero():
        e, c = f.leading(order)
        for g in basis:
            eg, cg = g.leading(order)
            if mono_divides(eg, e):
                if meter:
                    meter.charge(len(g.terms))
                f = f - g * ring.monomial(mono_div(e, eg), F.div(c, cg))
                break
        else:
            rem[e] = c
            f = f - ring.monomial(e, c)
    return Polynomial(ring, rem)


def _reference_buchberger(gens, order, pairs):
    G = [g.monic(order) for g in gens if not g.is_zero()]
    if not G:
        return ()
    position = getattr(order, "position", None)
    sugar = [g.degree() for g in G]
    pending, heap = set(), []

    def lead(k):
        return G[k].leading(order)[0]

    def push_pair(i, j):
        li, lj = lead(i), lead(j)
        if position and position(li) != position(lj):
            return
        dl = mono_deg(mono_lcm(li, lj))
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
        l = mono_lcm(lead(i), lead(j))
        if l == mono_mul(lead(i), lead(j)):
            continue
        if any(
            k not in (i, j)
            and mono_divides(lead(k), l)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(G))
        ):
            continue
        f, g = G[i], G[j]
        pairs.append((f, g))
        sp = (_monomial_factor(f.ring, l, f.leading(order)) * f
              - _monomial_factor(g.ring, l, g.leading(order)) * g)
        h = _reference_normal_form(sp, G, order)
        if h.is_zero():
            continue
        G.append(h.monic(order))
        sugar.append(max(s, h.degree()))
        for i2 in range(len(G) - 1):
            push_pair(i2, len(G) - 1)
    # the reduced basis is unique: drop non-minimal elements (the first of
    # equal leading terms stays), reduce each by the rest, biggest first
    leads = [lead(k) for k in range(len(G))]
    keep = [
        g for i, g in enumerate(G)
        if not any(k != i and mono_divides(leads[k], leads[i])
                   and (leads[k] != leads[i] or k < i) for k in range(len(G)))
    ]
    out = [_reference_normal_form(g, [h for h in keep if h is not g], order).monic(order)
           for g in keep]
    return tuple(sorted(out, key=lambda g: order.key(g.leading(order)[0]), reverse=True))


@_each_setting
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_s_polynomial_is_the_difference_of_the_lifted_pair(setting, data):
    order = setting[2]
    f, g = data.draw(_polys(setting, 2))
    l = mono_lcm(f.leading(order)[0], g.leading(order)[0])
    expected = (_monomial_factor(f.ring, l, f.leading(order)) * f
                - _monomial_factor(g.ring, l, g.leading(order)) * g)
    assert s_polynomial(f, g, order) == expected


@_each_setting
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_normal_form_against_prebuilt_rows_equals_the_plain_basis(setting, data):
    _, names, order, positions = setting
    *basis, a, b = data.draw(_polys(setting, 5))
    rows = ideals._reducer_rows(basis, order)
    for g, (eg, cg, tail, size) in zip(basis, rows, strict=True):
        assert (eg, cg) == g.leading(order)
        assert len(tail) == len(dict(tail)) == size - 1 == len(g.terms) - 1
        assert dict(tail) == {e: c for e, c in g.terms.items() if e != eg}
    # a multiple of basis[0] by a monomial free of tags, so that it stays a
    # module element under PositionOverTerm, plus two more elements
    shift = data.draw(st.lists(st.integers(0, 2), min_size=len(names) - positions,
                               max_size=len(names) - positions))
    f = basis[0] * a.ring.monomial(tuple(shift) + (0,) * positions) + a + b
    nf = normal_form(f, basis, order, rows=rows)
    assert nf == normal_form(f, basis, order) == _reference_normal_form(f, basis, order)


def _metered(nf, f, basis, order, term_ops=None):
    """(remainder or None when the budget trips, term operations charged)."""
    meter = ideals._Meter()
    if term_ops is not None:
        meter.limits = Limits(term_ops=term_ops)
    try:
        return nf(f, basis, order, meter), meter.term_ops
    except ResourceLimit:
        return None, meter.term_ops


@_each_setting
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_normal_form_charges_what_plain_division_charges(setting, data):
    """Monomial generators are set aside unkeyed, yet the remainder, the
    term operations and the budget that trips are those of plain division."""
    _, names, order, positions = setting
    # a basis of monomials only, or of monomials and binomials mixed
    max_terms = data.draw(st.sampled_from((1, 2)))
    basis = data.draw(_polys(setting, data.draw(st.integers(1, 4)), max_terms))
    (a,) = data.draw(_polys(setting, 1))
    # tag-free multiples of the basis elements, so that the leading terms
    # of f need reducing and their tails contribute to one another
    ring, n = a.ring, len(names) - positions
    f = a
    for g in basis:
        shift = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        f = f + g * ring.monomial(tuple(shift) + (0,) * positions,
                                  data.draw(st.sampled_from((-1, 1, 2))))
    expected, ops = _metered(_reference_normal_form, f, basis, order)
    assert _metered(normal_form, f, basis, order) == (expected, ops)
    for budget in range(max(ops - 1, 0), ops + 1):
        tripped = _metered(normal_form, f, basis, order, budget)[0] is None
        assert tripped == (_metered(_reference_normal_form, f, basis, order, budget)[0] is None)
        assert tripped == (budget < ops)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_a_set_aside_monomial_is_charged_only_if_it_survives(field):
    """x*z is set aside as a multiple of the generator x; reducing y^2 by
    y^2 + x*z then adds -x*z to it.  Plain division charges 1 for it only
    when its coefficient is still nonzero when it comes up."""
    R = PolyRing(field, ("x", "y", "z"))
    order = DegRevLex(3)
    x, xz, y2 = R.monomial((1, 0, 0)), R.monomial((1, 0, 1)), R.monomial((0, 2, 0))
    basis = (x, y2 + xz)
    for f, ops in ((y2 + xz, 2), (y2 + xz.scale(2), 3), (y2 + xz.scale(2) + R.one(), 3)):
        expected = _metered(_reference_normal_form, f, basis, order)
        assert expected[1] == ops
        assert _metered(normal_form, f, basis, order) == expected
        assert _metered(normal_form, f, basis, order, ops - 1) == (None, ops)
        assert _metered(normal_form, f, basis, order, ops)[0] == expected[0]


@_each_setting
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_buchberger_forms_the_reference_pairs_and_basis(setting, data):
    order = setting[2]
    gens = data.draw(_polys(setting, 3))
    seen = []
    kernel_s_polynomial = ideals.s_polynomial

    def recording(f, g, order):
        seen.append((f, g))
        return kernel_s_polynomial(f, g, order)

    ideals.s_polynomial = recording
    try:
        basis = buchberger(gens, order)
    finally:
        ideals.s_polynomial = kernel_s_polynomial
    expected_pairs = []
    assert basis == _reference_buchberger(gens, order, expected_pairs)
    assert seen == expected_pairs


def test_kernel_work_per_fixture_is_pinned(monkeypatch):
    """Bases computed cold, S-pair reductions and term operations per run.

    The counts do not depend on PYTHONHASHSEED; a change to the kernel's
    pair selection, criteria or division shows here even when the bases
    and the timings do not move.
    """
    meters = []

    class Recording(ideals._Meter):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            meters.append(self)

    monkeypatch.setattr(ideals, "_Meter", Recording)
    expected = {
        "F1": (13, 18, 3),
        "F2": (45, 303, 88),
        "F3": (18, 13, 13),
        "F4": (2, 0, 0),
    }
    for name, counts in expected.items():
        for memo in (ideals._cached_basis, decomp.is_prime, decomp.radical):
            memo.cache_clear()
        meters.clear()
        trace = run_reduction(*load_scene(name))
        assert trace.verdict == "Uniformized", name
        got = (len(meters), sum(m.reductions for m in meters),
               sum(m.term_ops for m in meters))
        assert got == counts, name
