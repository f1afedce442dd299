from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lu.parse
from lu.errors import ExponentOverflow, LuError, PolySyntaxError, ResourceLimit, UnknownVariable
from lu.fields import GF, QQ
from lu.orders import DegRevLex, Lex, PositionOverTerm, elimination_order
from lu.parse import MAX_DEPTH, parse_many, parse_poly
from lu.poly import Polynomial, PolyRing

from conftest import ring


def test_ring_value_equality():
    assert ring("x", "y") == ring("x", "y")
    assert ring("x", "y") != ring("y", "x")
    assert hash(ring("x", "y")) == hash(ring("x", "y"))


def test_basic_arithmetic(xy):
    x, y = xy.var("x"), xy.var("y")
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert (f - f).is_zero()
    # canonical order puts later names first, so y^2 leads
    assert f.text() == "-y^2 + x^2"


def test_scalar_coercion(xy):
    x = xy.var("x")
    assert (x + 1) - x == xy.one()
    assert (Fraction(1, 2) * (x + x)) == x
    assert 0 * x == xy.zero()


def test_char_p_collapse():
    R = ring("x", field=GF(3))
    x = R.var("x")
    assert (x + x + x).is_zero()
    assert (x + 1) ** 3 == x**3 + 1


def test_to_ring_renames_and_keeps_other_names(xy):
    x, y = xy.var("x"), xy.var("y")
    S = ring("x", "y", "t")
    f = x * y + y**2
    assert f.to_ring(S) == S.var("x") * S.var("y") + S.var("y") ** 2
    g = f.to_ring(S, {"x": "t"})
    assert g == S.var("t") * S.var("y") + S.var("y") ** 2
    # x does not occur in g, so its new name need not exist in the target
    assert g.to_ring(xy, {"t": "x", "x": "t"}) == f


def test_to_ring_into_smaller_ring(uxy):
    f = parse_poly(uxy, "x^2 + u")
    small = ring("u", "x")
    assert f.to_ring(small) == parse_poly(small, "x^2 + u")
    # only occurring variables must exist in the target
    assert f.to_ring(ring("x", "u")) == parse_poly(ring("x", "u"), "x^2 + u")
    with pytest.raises(LuError, match="'y', absent"):
        parse_poly(uxy, "y").to_ring(small)


def test_to_ring_refuses_a_merge_and_another_field(xy):
    f = parse_poly(xy, "x + y")
    with pytest.raises(LuError, match="merges"):
        f.to_ring(ring("x", "y"), {"x": "y"})
    with pytest.raises(LuError, match="cannot move"):
        f.to_ring(ring("x", "y", field=GF(5)))


def test_exponent_cap(xy):
    x = xy.var("x")
    big = x**40000
    with pytest.raises(ExponentOverflow):
        big * big


# parser


def test_parse_round_trip(xy):
    for text in ("y^2 - x^2", "x*y + 1", "-x + 3/2", "x^2*y^3 - 2*x + 5", "3/2*x + 1/3"):
        f = parse_poly(xy, text)
        assert f.text() == text
        assert parse_poly(xy, f.text()) == f


def test_parse_rationals_and_powers(xy):
    f = parse_poly(xy, "(1/2)*x^2 - (x - y)^2")
    g = parse_poly(xy, "-1/2*x^2 + 2*x*y - y^2")
    assert f == g


def test_parse_rejects_bad_fractions(xy):
    with pytest.raises(PolySyntaxError):
        parse_poly(xy, "1/0")
    with pytest.raises(PolySyntaxError):
        parse_poly(xy, "x/2")


def test_parse_errors_carry_positions(xy):
    with pytest.raises(PolySyntaxError) as e:
        parse_poly(xy, "x + * y")
    assert e.value.pos == 4
    with pytest.raises(UnknownVariable):
        parse_poly(xy, "x + z")
    with pytest.raises(PolySyntaxError):
        parse_poly(xy, "x + (y")


def test_parse_caps_parenthesis_depth(xy):
    deep = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
    assert parse_poly(xy, deep).text() == "x"
    with pytest.raises(PolySyntaxError) as e:
        parse_poly(xy, "(" + deep + ")")
    assert e.value.pos == MAX_DEPTH
    with pytest.raises(PolySyntaxError):
        parse_poly(xy, "(" * 2000 + "x" + ")" * 2000)


def test_parse_many_positions(xy):
    fs = parse_many(xy, ["x", "y^2"])
    assert [f.text() for f in fs] == ["x", "y^2"]


def test_parse_bounds_a_product_of_powers(xy, monkeypatch):
    """The refusal comes before the product: no multiplication on the way
    to the ResourceLimit takes more than MAX_PRODUCT_PAIRS pairs of terms."""
    pairs = []
    multiply = Polynomial.__mul__

    def recording(a, b):
        pairs.append(len(a.terms) * len(b.terms))
        return multiply(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", recording)
    for text in ("(1+x+y)^40*(1+x+y)^40",  # 861 * 861 pairs
                 "(1+x+y)^40*(1+x+y)^40*(1+x+y)^40"):
        pairs.clear()
        with pytest.raises(ResourceLimit, match="more than 100000 pairs of terms"):
            parse_poly(xy, text)
        assert pairs and max(pairs) <= lu.parse.MAX_PRODUCT_PAIRS
    monkeypatch.setattr(lu.parse, "MAX_PRODUCT_PAIRS", 9)
    assert len(parse_poly(xy, "(1+x+y)*(1+x+y)").terms) == 6  # 3 * 3 pairs
    with pytest.raises(ResourceLimit, match="a 6-term and a 3-term"):
        parse_poly(xy, "(1+x+y)*(1+x+y)*(1+x+y)")


def _polys(R):
    names = st.sampled_from(R.names)
    exps = st.integers(min_value=0, max_value=4)
    coeff = st.integers(min_value=-5, max_value=5)
    term = st.tuples(coeff, st.lists(st.tuples(names, exps), max_size=3))

    def build(terms):
        acc = R.zero()
        for c, mono in terms:
            t = R.const(c)
            for nm, e in mono:
                t = t * R.var(nm) ** e
            acc = acc + t
        return acc

    return st.lists(term, max_size=4).map(build)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_laws(data):
    R = ring("x", "y")
    f = data.draw(_polys(R))
    g = data.draw(_polys(R))
    h = data.draw(_polys(R))
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f - f == R.zero()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_text_parse_round_trip_random(data):
    R = ring("x", "y")
    f = data.draw(_polys(R))
    assert parse_poly(R, f.text()) == f


# Orders on three variables, with equal but distinct objects and two
# elimination orders, both dropping y, that differ only in the tie after it.
_ORDERS = (
    Lex((0, 1, 2)),
    Lex((2, 0, 1)),
    DegRevLex(3),
    DegRevLex(3),
    elimination_order(("x", "y", "z"), ("y",)),
    elimination_order(("x", "y", "z"), ("y",)),
    elimination_order(("x", "y", "z"), ("y", "x")),
    PositionOverTerm(DegRevLex(2), 1),
)


def _assert_leading(p, order):
    if p.is_zero():
        assert p.leading(order) is None
        return
    e = max(p.terms, key=order.key)
    assert p.leading(order) == (e, p.terms[e])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_leading_is_the_biggest_term_under_any_interleaving_of_orders(data):
    R = ring("x", "y", "z")
    pool = data.draw(st.lists(_polys(R), min_size=1, max_size=3))
    for _ in range(data.draw(st.integers(min_value=1, max_value=10))):
        p = data.draw(st.sampled_from(pool))
        q = data.draw(st.sampled_from(pool))
        order = data.draw(st.sampled_from(_ORDERS))
        _assert_leading(p, order)
        c = data.draw(st.integers(min_value=1, max_value=3))
        derived = [p.scale(c), p.scale(-c), p.monic(order), p.monic(), p + q, p * q, p - q, -p]
        for r in derived:
            for o in data.draw(st.permutations(_ORDERS)):
                _assert_leading(r, o)
        pool.extend(derived)
