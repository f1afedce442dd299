from fractions import Fraction as Fr

from lu.unifactor import (
    factor_once,
    gcd_poly,
    rational_roots,
    squarefree_part,
)


def _c(*ints):
    return [Fr(i) for i in ints]


def test_irreducible_quadratics():
    assert factor_once(_c(1, 0, 1)) is None  # x^2 + 1
    assert factor_once(_c(-1, 0, 1)) == _c(1, 1)  # (x-1)(x+1)
    assert factor_once(_c(-2, 0, 1)) is None  # x^2 - 2
    assert factor_once(_c(2)) is None  # constants have no proper factor


def test_irreducible_needs_kronecker():
    # no rational roots either way; only a quadratic split can detect these
    assert factor_once(_c(1, 1, 0, 0, 1)) is None  # x^4 + x + 1
    assert factor_once(_c(4, 0, 0, 0, 1)) is not None  # x^4 + 4, Sophie Germain


def test_rational_roots():
    assert rational_roots(_c(-1, 0, 1)) == [Fr(-1), Fr(1)]
    assert rational_roots(_c(0, -1, 2)) == [Fr(0), Fr(1, 2)]
    assert rational_roots(_c(1, 0, 1)) == []


def test_squarefree_part():
    # (x - 1)^2 -> x - 1, normalized monic
    assert squarefree_part(_c(1, -2, 1)) == _c(-1, 1)


def test_gcd():
    assert gcd_poly(_c(-1, 0, 1), _c(-1, 1)) == _c(-1, 1)
    assert gcd_poly(_c(1, 1), _c(1)) == _c(1)
