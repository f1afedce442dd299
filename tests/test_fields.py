from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lu.errors import LuError
from lu.fields import GF, QQ


def test_rationals_are_exact():
    a = QQ.coerce(Fraction(1, 3))
    b = QQ.coerce(Fraction(1, 6))
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.mul(a, QQ.inv(a)) == QQ.one


def test_rationals_coerce_ints_and_strings_reject_floats():
    assert QQ.coerce(7) == Fraction(7)
    with pytest.raises(LuError):
        QQ.coerce(0.5)


# small, big, negative and zero ints; fractions, integral ones included
_INTS = st.one_of(st.integers(-5, 5), st.integers(-(2**200), 2**200))
_RATIONALS = st.one_of(_INTS, st.fractions(), st.builds(Fraction, _INTS))


def _in_normal_form(got, want):
    """got equals the Fraction want, as an int exactly when it is integral."""
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)
    assert str(got) == str(want) and hash(got) == hash(want)


@settings(max_examples=300, deadline=None)
@given(_RATIONALS, _RATIONALS)
def test_rationals_agree_with_fractions_in_normal_form(a, b):
    fa, fb = Fraction(a), Fraction(b)
    _in_normal_form(QQ.coerce(a), fa)
    _in_normal_form(QQ.add(a, b), fa + fb)
    _in_normal_form(QQ.mul(a, b), fa * fb)
    _in_normal_form(QQ.neg(a), -fa)
    if fb:
        _in_normal_form(QQ.div(a, b), fa / fb)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, b)
    if fa:
        _in_normal_form(QQ.inv(a), 1 / fa)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(a)


def test_rationals_normal_form_examples():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.coerce(Fraction(6, 3))) is int and QQ.coerce(Fraction(6, 3)) == 2
    assert type(QQ.coerce(True)) is int and QQ.coerce(True) == 1
    assert QQ.div(7, 2) == Fraction(7, 2) and QQ.div(-6, 3) == -2
    assert type(QQ.mul(Fraction(1, 2), 2)) is int
    for a in (0, 5, Fraction(1, 2)):
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, 0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_gf_arithmetic():
    F = GF(7)
    assert F.add(F.coerce(5), F.coerce(4)) == 2
    assert F.mul(F.coerce(3), F.coerce(5)) == 1
    assert F.inv(F.coerce(3)) == 5
    assert F.neg(F.coerce(0)) == 0


def test_gf_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)


@pytest.mark.parametrize("p", [1, 4, 9, 561, 46337**2, 2**31])
def test_gf_rejects_non_primes_and_large_moduli(p):
    # 561 is a Carmichael number; the primality check must not be Fermat-only;
    # 46337**2's one prime factor is the last divisor trial division tries
    with pytest.raises(LuError):
        GF(p)


def test_gf_large_prime_accepted():
    for p in (2, 3, 2147483629, 2**31 - 1):
        F = GF(p)
        x = F.coerce(2**30 + 1)
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
