import pytest

from lu.errors import DimensionMismatch
from lu.orders import (
    DegRevLex,
    Lex,
    PositionOverTerm,
    WeightRefined,
    canonical_order,
    elimination_order,
    weight_order,
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


def test_weight_refined_max_convention():
    # heavier total weight wins; ties fall through to the refinement
    o = WeightRefined(((2, 1),), DegRevLex(2))
    assert o.key((1, 2)) > o.key((2, 0))  # tie at 4, degree decides
    assert o.key((1, 0)) > o.key((0, 1))  # weight 2 beats 1
    assert o.key((1, 0)) < o.key((0, 2))  # tie at 2, degree decides


def test_weight_order_tie_is_degrevlex():
    o = weight_order(((1, 1),), 2)
    assert o.key((1, 0)) > o.key((0, 1))


def test_weight_refined_arity_check():
    with pytest.raises(DimensionMismatch):
        WeightRefined(((1, 2, 3),), DegRevLex(2))


def test_elimination_order_blocks():
    """Any monomial touching a dropped variable beats any clean one."""
    R = ring("x", "y", "t")
    o = elimination_order(R.names, ("t",))
    assert o.key(_lead(R, "t", o)) > o.key(_lead(R, "x^9*y^9", o))
    # away from the dropped block the tie-break is plain degrevlex
    assert o.key(_lead(R, "x^2", o)) > o.key(_lead(R, "x*y", o))


def test_position_over_term():
    """Position 0 beats any term in a later position; degrevlex decides inside one."""
    o = PositionOverTerm(DegRevLex(2), 3)
    assert o.arity == 5
    x_e0, y9_e1, xy_e1, y2_e1 = (1, 0, 1, 0, 0), (0, 9, 0, 1, 0), (1, 1, 0, 1, 0), (0, 2, 0, 1, 0)
    assert [o.position(e) for e in (x_e0, y9_e1, (0, 0, 0, 0, 1))] == [0, 1, 2]
    assert o.key(x_e0) > o.key(y9_e1) > o.key(xy_e1) > o.key(y2_e1)
