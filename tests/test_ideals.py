import random

import pytest
from hypothesis import given, settings, strategies as st

from lu import decomp, ideals, modules
from lu.errors import LuError, ResourceLimit
from lu.fields import GF, QQ
from lu.ideals import Ideal, Limits, buchberger, groebner_basis, normal_form
from lu.modules import relation_module
from lu.orders import DegRevLex
from lu.parse import parse_many, parse_poly

from conftest import chart_like_ideal, ideal, ring


def test_membership(xy):
    I = ideal(xy, "x^2", "x*y")
    assert I.contains(parse_poly(xy, "x^2*y^3 - x*y"))
    assert not I.contains(parse_poly(xy, "x"))
    assert I.normal_form(parse_poly(xy, "x + 1")).text() == "x + 1"


def test_canonical_strings_frozen(xy):
    assert ideal(xy, "x^2", "x*y").canonical_strings() == ["x*y", "x^2"]
    assert ideal(xy, "y^2 - x^3").canonical_strings() == ["y^2 - x^3"]
    R = ring("u", "v", "x", "y")
    I = ideal(R, "x^2", "x*y", "y^2", "v*x - u*y")
    assert I.canonical_strings() == ["y^2", "x*y", "u*y - v*x", "x^2"]


def test_reduced_gb_is_generator_independent(xy):
    """The reduced basis is an invariant of the ideal, not the presentation."""
    I = ideal(xy, "x^2 - y", "x*y - 1")
    J = ideal(
        xy,
        "x*y - 1",
        "x^2 - y + x*(x*y - 1)",
        "y*(x^2 - y) - (x*y - 1)*x",
    )
    assert I.groebner() == J.groebner()
    assert I == J


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_gb_invariance_random(data):
    R = ring("x", "y")
    texts = ["x^2 - y", "x*y + y^2", "y^3 - x"]
    gens = parse_many(R, texts)
    I = Ideal(R, gens)
    perm = data.draw(st.permutations(gens))
    mults = data.draw(
        st.lists(
            st.sampled_from(["0", "1", "x", "y - 1", "x*y"]),
            min_size=3,
            max_size=3,
        )
    )
    noisy = list(perm)
    for i in range(3):
        noisy.append(perm[i] * parse_poly(R, mults[i]))
    assert Ideal(R, noisy) == I


def test_unit_and_zero(xy):
    assert ideal(xy, "x", "x + 1").is_unit_ideal()
    assert not ideal(xy).groebner()
    assert not list(ideal(xy, "0").groebner())


@pytest.mark.parametrize("gen", [1, "x"], ids=["number", "text"])
def test_a_generator_must_be_a_polynomial_of_the_ring(xy, gen):
    with pytest.raises(LuError, match="not a polynomial of"):
        Ideal(xy, [gen])
    with pytest.raises(LuError, match="not a polynomial of"):
        Ideal(xy, [ring("x").var("x")])


def test_an_element_of_another_ring_is_refused_not_misread(xy):
    """y of QQ[y, x] has x's exponents in QQ[x, y]; it is not in (x).  A
    saturation solves x = y^2 in (x - y^2) before any colon, so it checks f
    itself."""
    for I in (ideal(xy, "x"), ideal(xy, "x - y^2")):
        for f in (ring("y", "x").var("y"), ring("z").var("z"), 1, "x"):
            for check in (I.contains, I.colon, I.normal_form, I.saturation):
                with pytest.raises(LuError, match="not a polynomial of"):
                    check(f)


def test_colon(xy):
    I = ideal(xy, "x^2", "x*y")
    assert I.colon(parse_poly(xy, "x")) == ideal(xy, "x", "y")
    assert I.colon(parse_poly(xy, "y")) == ideal(xy, "x")
    assert I.colon_ideal(ideal(xy, "x", "y")) == ideal(xy, "x")


def test_power_and_product(xy):
    m = ideal(xy, "x", "y")
    assert m.power(2) == ideal(xy, "x^2", "x*y", "y^2")
    assert m.multiply(ideal(xy, "x")) == ideal(xy, "x^2", "x*y")


def test_intersect(xy):
    assert ideal(xy, "x").intersect(ideal(xy, "y")) == ideal(xy, "x*y")
    got = ideal(xy, "x").intersect(ideal(xy, "x^2", "y^2"))
    assert got == ideal(xy, "x^2", "x*y^2")
    assert not got.contains(parse_poly(xy, "x*y"))


def test_eliminate_recovers_the_cusp():
    R = ring("x", "y", "t")
    I = ideal(R, "x*t - y", "t^2 - x")
    J = I.eliminate(("t",))
    assert J.ring == ring("x", "y")
    assert J.canonical_strings() == ["y^2 - x^3"]
    assert J == ideal(ring("x", "y"), "y^2 - x^3")


def _saturation_by_elimination(I, f):
    """Independent route: (I + (1 - t*f)) cut back down to the base ring."""
    R = I.ring
    S = R.extend(("sat_t",))
    t = S.var("sat_t")
    lifted = [g.to_ring(S) for g in I.gens]
    lifted.append(S.one() - t * f.to_ring(S))
    return Ideal(S, lifted).eliminate(("sat_t",))


@pytest.mark.parametrize(
    "gens,f",
    [
        (("x^2", "x*y"), "y"),
        (("x^2", "x*y"), "x"),
        (("x^2*y - x", "y^2"), "x"),
        (("x^3 - y^2*x",), "x"),
    ],
)
def test_saturation_matches_elimination_route(xy, gens, f):
    I = ideal(xy, *gens)
    ff = parse_poly(xy, f)
    J, n = I.saturation(ff)
    K = _saturation_by_elimination(I, ff)
    assert J == K
    # n is the least colon-chain stabilizer
    chain = [I]
    for _ in range(n):
        chain.append(chain[-1].colon(ff))
    assert chain[-1] == J
    if n:
        assert chain[-2] != J


def test_saturation_frozen_values():
    S = ring("x", "y", "t")
    J0 = ideal(S, "x^2", "x*y", "y*t - x")
    J, n = J0.saturation(parse_poly(S, "y"))
    assert J.canonical_strings() == ["x", "t"]
    assert n == 2


def _colon_by_syzygies(I, f):
    return Ideal(I.ring, [u for (u,) in relation_module([f], I)])


def _saturation_by_syzygies(I, f):
    """The colon chain by relation_module on the ideal as given, unpeeled."""
    prev, n = I, 0
    while True:
        nxt = _colon_by_syzygies(prev, f)
        if nxt == prev:
            return prev, n
        prev, n = nxt, n + 1


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.integers(0, 2**32), st.randoms(use_true_random=False))
def test_peeled_colon_and_saturation_match_the_syzygy_route(field, seed, shuffler):
    """Solving chart binomials c*v + d*m changes neither (I : f), nor
    (I : f^infinity), nor its exponent N, nor does the generators' order."""
    R = ring("x", "y", "t", "s", field=field)
    rng = random.Random(seed)
    I = chart_like_ideal(rng, R)
    f = R.var(rng.choice(R.names))
    if rng.random() < 0.5:
        f = f + R.monomial([rng.randrange(2) for _ in R.names], rng.choice([-1, 2]))
    colon = _colon_by_syzygies(I, f).canonical_strings()
    sat, n = _saturation_by_syzygies(I, f)
    want = (colon, sat.canonical_strings(), n)
    gens = list(I.gens)
    shuffler.shuffle(gens)
    for J in (I, Ideal(R, gens)):
        K, m = J.saturation(f)
        assert (J.colon(f).canonical_strings(), K.canonical_strings(), m) == want


def test_the_chart_saturation_runs_its_syzygies_in_the_smaller_ring(monkeypatch):
    """y = x*t is solved first, so the chain's relation modules are over
    Q[x, t]; its last colon is of (t^2 - x), which solves x = t^2 in turn,
    so that one is over Q[t].  None is over Q[x, y, t]."""
    seen = []

    def recording(gens, modulus):
        seen.append(modulus.ring.names)
        return relation_module(gens, modulus)

    monkeypatch.setattr(modules, "relation_module", recording)
    S = ring("x", "y", "t")
    J, n = ideal(S, "y^2 - x^3", "x*t - y").saturation(parse_poly(S, "x"))
    assert (J.canonical_strings(), n) == (["y - t^3", "x - t^2"], 2)
    assert seen == [("x", "t"), ("x", "t"), ("t",)]


def test_resource_limit(monkeypatch):
    # names no other test uses, so the memo cannot answer before the meter runs
    R = ring("p", "q", "r")
    I = ideal(
        R,
        "p^4 + q^4 + r^4 - 1",
        "p^3*q - q^3*r + r^3*p",
        "p*q*r - p - q - r",
    )
    monkeypatch.setattr(ideals, "BUDGET", Limits(reductions=5, term_ops=10**6))
    with pytest.raises(ResourceLimit, match="exceeded 5 reductions"):
        I.groebner()
    monkeypatch.setattr(ideals, "BUDGET", Limits(reductions=10**4, term_ops=200))
    with pytest.raises(ResourceLimit, match="exceeded 200 term operations"):
        I.groebner()


def test_minimal_generators(xy):
    """The reduced basis is a small generating set."""
    I = ideal(xy, "x", "x^2", "x + x*y", "y^3")
    gb = list(I.groebner())
    assert Ideal(xy, gb) == I
    assert len(gb) == 2


def test_memo_keeps_at_most_its_cap_and_drops_the_least_recent(xy):
    cached = ideals._cached_basis
    cached.cache_clear()
    order = DegRevLex(2)
    gens = [(parse_poly(xy, f"x^{k + 1} - y"),) for k in range(ideals.MEMO_CAP + 1)]
    for g in gens[:-1]:
        groebner_basis(g, order)
    assert cached.cache_info().currsize == ideals.MEMO_CAP
    groebner_basis(gens[0], order)  # a hit: now the most recently used
    assert cached.cache_info().hits == 1
    groebner_basis(gens[-1], order)  # evicts gens[1], the least recently used
    assert cached.cache_info().currsize == ideals.MEMO_CAP
    groebner_basis(gens[0], order)
    assert cached.cache_info().hits == 2
    groebner_basis(gens[1], order)  # computed again
    assert cached.cache_info()[:2] == (2, ideals.MEMO_CAP + 2)
    assert cached.cache_info().currsize == ideals.MEMO_CAP


def test_every_memo_holds_memo_cap_entries():
    for memo in (ideals._cached_basis, decomp.is_prime, decomp.radical):
        assert memo.cache_info().maxsize == ideals.MEMO_CAP


def test_memo_does_not_keep_a_resource_limit(monkeypatch):
    R = ring("a", "b", "c")
    gens = tuple(parse_many(R, ["a^4 + b^4 + c^4 - 1", "a^3*b - b^3*c + c^3*a",
                                "a*b*c - a - b - c"]))
    monkeypatch.setattr(ideals, "BUDGET", Limits(reductions=5, term_ops=200))
    held = ideals._cached_basis.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ResourceLimit):
            groebner_basis(gens, DegRevLex(3))
    assert ideals._cached_basis.cache_info().currsize == held


def test_memo_hit_returns_the_cold_basis(uxy):
    cached = ideals._cached_basis
    cached.cache_clear()
    gens = parse_many(uxy, ["u*y - x^2", "x^3 - u", "y^2*x - 1"])
    order = uxy.canonical
    cold = groebner_basis(gens, order)
    assert cached.cache_info()[:2] == (0, 1)
    assert cold == buchberger(gens, order)
    assert groebner_basis(gens, order) is cold  # served from the memo
    assert Ideal(uxy, gens).groebner() is cold
    assert cached.cache_info()[:2] == (2, 1)


class _CountingOrder:
    """Degrevlex on two variables that counts the monomial keys it computes."""

    arity = 2

    def __init__(self):
        self.keys = 0

    def key(self, e):
        self.keys += 1
        return DegRevLex(2).key(e)


def test_normal_form_finds_each_basis_leading_term_once(xy):
    order = _CountingOrder()
    basis = tuple(parse_many(xy, ["x^2 - y", "x*y - 1", "y^2 - x"]))
    # the leading terms x^2, x*y and y^2 leave 1, x and y irreducible, and
    # an irreducible term goes to the remainder unkeyed, so the only keys
    # are those that find the basis leading terms
    rng = random.Random(11)
    one, x, y = xy.one(), xy.var("x"), xy.var("y")
    fs = [one.scale(rng.randint(-3, 3)) + x.scale(rng.randint(-3, 3)) + y.scale(rng.randint(1, 3))
          for _ in range(200)]
    for f in fs:
        assert normal_form(f, basis, order) == f
    assert order.keys == sum(len(g.terms) for g in basis)
