from fractions import Fraction

import pytest

from lu.errors import LuError
from lu.fields import GF, QQ


def test_rationals_are_exact():
    a = QQ.coerce(Fraction(1, 3))
    b = QQ.coerce(Fraction(1, 6))
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.mul(a, QQ.inv(a)) == QQ.one
    assert QQ.sub(QQ.one, QQ.one) == QQ.zero


def test_rationals_coerce_ints_and_strings_reject_floats():
    assert QQ.coerce(7) == Fraction(7)
    with pytest.raises(LuError):
        QQ.coerce(0.5)


def test_gf_arithmetic():
    F = GF(7)
    assert F.add(F.coerce(5), F.coerce(4)) == 2
    assert F.mul(F.coerce(3), F.coerce(5)) == 1
    assert F.inv(F.coerce(3)) == 5
    assert F.neg(F.coerce(0)) == 0


def test_gf_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)


@pytest.mark.parametrize("p", [1, 4, 9, 561, 2**31])
def test_gf_rejects_non_primes_and_large_moduli(p):
    # 561 is a Carmichael number; the primality check must not be Fermat-only
    with pytest.raises(LuError):
        GF(p)


def test_gf_large_prime_accepted():
    F = GF(2**31 - 1)
    x = F.coerce(2**30)
    assert F.mul(x, F.inv(x)) == 1


def test_fields_compare_by_value():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ == QQ


def test_gf_refuses_a_denominator_divisible_by_p():
    F = GF(3)
    assert F.coerce(Fraction(1, 2)) == 2
    with pytest.raises(LuError, match=r"1/3 .*GF\(3\)"):
        F.coerce(Fraction(1, 3))
