import pytest

from lu import ideals
from lu.errors import DimensionMismatch
from lu.ideals import groebner_basis
from lu.orders import (
    DegRevLex,
    Lex,
    PositionOverTerm,
    canonical_order,
    elimination_order,
)
from lu.parse import parse_poly

from conftest import ring


def _lead(R, text, order):
    return parse_poly(R, text).leading(order)[0]


def test_lex_priority_permutation():
    R = ring("x", "y")
    f = "x*y^3 + x^2"
    assert _lead(R, f, Lex((0, 1))) == (2, 0)
    assert _lead(R, f, Lex((1, 0))) == (1, 3)
    with pytest.raises(DimensionMismatch):
        Lex((0, 2))


def test_degrevlex_classic_degree_two_chain():
    o = DegRevLex(3)
    x2, xy, y2, xz = (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)
    assert o.key(x2) > o.key(xy)
    assert o.key(xy) > o.key(y2)
    assert o.key(y2) > o.key(xz)
    assert o.key((1, 1, 2)) > o.key((3, 0, 0))  # degree wins first


def test_canonical_order_is_reverse_alphabetical_lex():
    """Later names dominate: on (u, v, x, y, t) the chain is y > x > v > u > t."""
    R = ring("u", "v", "x", "y", "t")
    o = canonical_order(R.names)
    assert o.key(_lead(R, "y", o)) > o.key(_lead(R, "x*t^5", o))
    assert o.key(_lead(R, "v^2", o)) > o.key(_lead(R, "u^9", o))
    assert o.key(_lead(R, "u^9", o)) > o.key(_lead(R, "t^3", o))
    assert o.key(_lead(R, "t", o)) == o.key(_lead(R, "t", o))


def test_elimination_order_blocks():
    """Any monomial touching a dropped variable beats any clean one."""
    R = ring("x", "y", "t")
    o = elimination_order(R.names, ("t",))
    assert o.key(_lead(R, "t", o)) > o.key(_lead(R, "x^9*y^9", o))
    # away from the dropped block the tie-break is the canonical lex
    assert o.key(_lead(R, "y", o)) > o.key(_lead(R, "x^9", o))
    assert o == Lex((2, 1, 0))


def test_position_over_term():
    """Position 0 beats any term in a later position; degrevlex decides inside one."""
    o = PositionOverTerm(DegRevLex(2), 3)
    assert o.arity == 5
    x_e0, y9_e1, xy_e1, y2_e1 = (1, 0, 1, 0, 0), (0, 9, 0, 1, 0), (1, 1, 0, 1, 0), (0, 2, 0, 1, 0)
    assert [o.position(e) for e in (x_e0, y9_e1, (0, 0, 0, 0, 1))] == [0, 1, 2]
    assert o.key(x_e0) > o.key(y9_e1) > o.key(xy_e1) > o.key(y2_e1)


def test_equal_orders_share_one_cached_basis():
    R = ring("x", "y", "z")
    gens = [parse_poly(R, "x*y - z^2"), parse_poly(R, "y^3 - x*z")]
    a, b = DegRevLex(3), DegRevLex(3)
    assert a is not b and a == b and hash(a) == hash(b)
    first = groebner_basis(gens, a)
    hits = ideals._cached_basis.cache_info().hits
    assert groebner_basis(gens, b) is first
    assert ideals._cached_basis.cache_info().hits == hits + 1


def test_orders_of_different_classes_are_never_equal():
    """Not even with equal fields, nor to the tuple of their fields."""
    orders = [
        Lex((0, 1)),
        DegRevLex(2),
        PositionOverTerm(DegRevLex(2), 1),
        PositionOverTerm(((1, 1),), DegRevLex(2)),
    ]
    for i, o in enumerate(orders):
        assert [o == p for p in orders] == [j == i for j in range(len(orders))]
    assert DegRevLex(2) != (2,) and Lex((0, 1)) != ((0, 1),)


def test_an_order_cannot_be_changed():
    o = DegRevLex(2)
    with pytest.raises(AttributeError):
        o.arity = 3
    assert o == DegRevLex(2) and repr(o) == "DegRevLex(arity=2)"
