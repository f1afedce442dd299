"""The Groebner engine against an independent oracle, sympy's `groebner`.

sympy is a test dependency only; the runtime keeps no CAS.  Inputs are small
seeded random ideals and modules over Q and F_p.
"""

import random
from fractions import Fraction

import pytest

from lu.fields import GF, QQ
from lu.ideals import buchberger
from lu.modules import module_groebner
from lu.orders import DegRevLex, Lex
from lu.poly import Polynomial, PolyRing

sp = pytest.importorskip("sympy")

FIELDS = [QQ, GF(7), GF(101)]


def _random_poly(rng, R, terms, top):
    t = {}
    for _ in range(terms):
        e = tuple(rng.randrange(top + 1) for _ in range(R.n))
        c = R.field.coerce(rng.choice([-3, -2, -1, 1, 2, 3]))
        if c != R.field.zero:
            t[e] = c
    return Polynomial(R, t)


def _to_expr(f, syms, tags=()):
    """f as a sympy expression; `tags` multiplies each term by one more symbol."""
    out = 0
    for e, c in f.terms.items():
        c = sp.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c
        out += c * sp.Mul(*(s**k for s, k in zip(syms, e))) * sp.Mul(*tags)
    return out


def _oracle(exprs, syms, order, field):
    opts = {"modulus": field.p} if field.char else {"domain": sp.QQ}
    return sp.groebner(exprs, *syms, order=order, **opts)


def _from_sympy(poly, R):
    F = R.field
    t = {}
    for e, c in poly.terms():
        c = F.coerce(int(c)) if F.char else Fraction(int(c.p), int(c.q))
        t[tuple(e)] = c
    return Polynomial(R, t)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("order_name", ["lex", "grevlex"])
def test_buchberger_matches_sympy(field, order_name):
    R = PolyRing(field, ("x", "y", "z"))
    syms = sp.symbols("x y z")
    order = Lex((0, 1, 2)) if order_name == "lex" else DegRevLex(3)
    rng = random.Random(f"{field!r}/{order_name}")
    for _ in range(12):
        gens = [_random_poly(rng, R, rng.randrange(1, 4), 2) for _ in range(rng.randrange(1, 4))]
        ours = buchberger(gens, order)
        theirs = _oracle([_to_expr(g, syms) for g in gens], syms, order_name, field)
        want = {_from_sympy(p, R).monic(order) for p in theirs.polys if not p.is_zero}
        assert set(ours) == want and len(ours) == len(want), [g.text() for g in gens]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_module_groebner_spans_the_sympy_module(field):
    """The e-linear part of sympy's basis of (encoded vectors + all e_i*e_j) is
    the module; it must span the same module as ours.  Two such ideals agree
    exactly when their e-linear parts, the modules, agree."""
    R = PolyRing(field, ("x", "y"))
    syms = sp.symbols("x y")
    rng = random.Random(f"{field!r}/modules")
    for _ in range(10):
        s = rng.randrange(2, 4)
        tags = sp.symbols(f"e0:{s}")
        squares = [tags[i] * tags[j] for i in range(s) for j in range(i, s)]
        everything = syms + tags

        def encode(vectors):
            return [sum((_to_expr(f, syms, (tags[k],)) for k, f in enumerate(v)), 0)
                    for v in vectors]

        vecs = [tuple(_random_poly(rng, R, rng.randrange(0, 3), 2) for _ in range(s))
                for _ in range(rng.randrange(2, 5))]
        theirs = _oracle(encode(vecs) + squares, everything, "grevlex", field)
        linear = [p.as_expr() for p in theirs.polys
                  if sum(p.monoms()[0][len(syms):]) == 1]
        ours = module_groebner(vecs)
        assert (_oracle(linear + squares, everything, "grevlex", field).exprs
                == _oracle(encode(ours) + squares, everything, "grevlex", field).exprs)
