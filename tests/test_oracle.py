"""The Groebner engine, the ideal operations, minimal polynomials, minimal
primes, embedding dimensions, certified radicals, nilpotent lengths and the
golden blowup charts against an independent oracle, sympy's `groebner`,
`factor_list` and `jacobian`.

sympy is a test dependency only; the runtime keeps no CAS.  Inputs are small
seeded random ideals and modules over Q and F_p.  The ideal operations are
checked against the textbook formulas (Cox, Little & O'Shea, *Ideals,
Varieties, and Algorithms*, ch. 3 §1 and ch. 4 §3-4), each evaluated with
sympy alone:

    I ∩ J       = (t*I + (1 - t)*J) ∩ k[x]
    (I : f)     = (1/f) * (I ∩ (f))
    (I : J)     = ∩_j (I : g_j)
    (I : f^∞)   = (I + (1 - t*f)) ∩ k[x]

and ideals are compared by their reduced grevlex bases in sympy.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from unittest import mock

import pytest
from conftest import COTANGENT_SCENES, chart_like_ideal, cotangent_rings
from test_blowup import _golden_runs
from test_decomp import CASCADE, EXHAUSTED, UNSATURATED, _cascade_ideal

from lu import localring, pipeline
from lu.blowup import local_blowup, transport_through_blowup
from lu.decomp import associated_primes, minimal_polynomial, minimal_primes, radical
from lu.errors import LuError
from lu.fields import GF, QQ
from lu.ideals import Ideal, buchberger
from lu.localring import LocalRing, embedding_dimension, nilpotent_length
from lu.modules import module_groebner
from lu.orders import DegRevLex, Lex
from lu.parse import parse_many, parse_poly
from lu.pipeline import run_reduction
from lu.poly import Polynomial, PolyRing
from lu.scenes import load_scene

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


def _gens(exprs):
    return [e for e in exprs if e != 0]


def _reduced(exprs, syms, field):
    """sympy's reduced grevlex basis; equal lists mean equal ideals."""
    return list(_oracle(_gens(exprs), syms, "grevlex", field).exprs)


def _same_ideal(ours, exprs, syms, field):
    mine = [_to_expr(g, syms) for g in ours.gens]
    return _reduced(mine, syms, field) == _reduced(exprs, syms, field)


def _eliminated(exprs, drop, syms, field):
    """Generators of (exprs) ∩ k[syms]: a lex basis with `drop` biggest."""
    basis = _oracle(_gens(exprs), tuple(drop) + tuple(syms), "lex", field).exprs
    return [g for g in basis if not (g.free_symbols & set(drop))]


def _meet(A, B, syms, field):
    t = sp.Symbol("t_meet")
    return _eliminated([t * a for a in A] + [(1 - t) * b for b in B], [t], syms, field)


def _quotient(A, f, syms, field):
    opts = {"modulus": field.p} if field.char else {"domain": sp.QQ}
    out = []
    for g in _meet(A, [f], syms, field):
        q, r = sp.div(g, f, *syms, **opts)
        assert r == 0
        out.append(q)
    return out


def _random_ideal(rng, R, f=None):
    """A few random generators; with `f`, some are multiplied by a power of f
    or by a variable, so colons and saturations are not trivial."""
    gens = []
    for _ in range(rng.randrange(1, 4)):
        g = _random_poly(rng, R, rng.randrange(1, 3), 2)
        if g.is_zero():
            continue
        if f is not None and rng.random() < 0.6:
            g = g * f ** rng.randrange(1, 3)
        elif rng.random() < 0.4:
            g = g * R.var(rng.choice(R.names))
        gens.append(g)
    return Ideal(R, gens)


def _cases(field, tag, count):
    R = PolyRing(field, ("x", "y", "z"))
    syms = sp.symbols("x y z")
    rng = random.Random(f"{field!r}/{tag}")
    for _ in range(count):
        f = _random_poly(rng, R, rng.randrange(1, 3), 1)
        if f.is_zero() or f.constant_value() is not None:
            f = R.var(rng.choice(R.names))
        yield R, syms, rng, f


def _ideal_cases(field, tag, count):
    """(R, syms, I, f): `count` random ideals, then `count` chart-like ones,
    whose binomials c*v + d*m the colon solves before its syzygies."""
    for R, syms, rng, f in _cases(field, tag, count):
        yield R, syms, _random_ideal(rng, R, f), f
    for R, syms, rng, f in _cases(field, f"{tag}/chart", count):
        yield R, syms, chart_like_ideal(rng, R, f), f


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_intersect_matches_the_tag_variable_formula(field):
    for R, syms, rng, f in _cases(field, "intersect", 8):
        I, J = _random_ideal(rng, R, f), _random_ideal(rng, R, f)
        want = _meet([_to_expr(g, syms) for g in I.gens],
                     [_to_expr(g, syms) for g in J.gens], syms, field)
        assert _same_ideal(I.intersect(J), want, syms, field), (I, J)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_colon_matches_the_quotient_formula(field):
    for R, syms, I, f in _ideal_cases(field, "colon", 8):
        want = _quotient([_to_expr(g, syms) for g in I.gens], _to_expr(f, syms), syms, field)
        assert _same_ideal(I.colon(f), want, syms, field), (I, f.text())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_colon_ideal_matches_the_meet_of_quotients(field):
    for R, syms, rng, f in _cases(field, "colon_ideal", 6):
        I = _random_ideal(rng, R, f)
        J = Ideal(R, [f, R.var(rng.choice(R.names))])
        A = [_to_expr(g, syms) for g in I.gens]
        want = None
        for g in J.gens:
            q = _quotient(A, _to_expr(g, syms), syms, field)
            want = q if want is None else _meet(want, q, syms, field)
        assert _same_ideal(I.colon_ideal(J), want, syms, field), (I, J)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_eliminate_matches_a_lex_basis(field):
    for R, syms, rng, f in _cases(field, "eliminate", 8):
        I = _random_ideal(rng, R, f)
        drop = rng.choice([("x",), ("z",), ("x", "y")])
        dsyms = [s for s in syms if s.name in drop]
        kept = [s for s in syms if s.name not in drop]
        got = I.eliminate(drop)
        assert list(got.ring.names) == [s.name for s in kept]
        want = _eliminated([_to_expr(g, syms) for g in I.gens], dsyms, kept, field)
        assert _same_ideal(got, want, kept, field), (I, drop)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_saturation_matches_the_rabinowitsch_formula(field):
    """(I : f^∞) and its exponent N, the least n with (I : f^n) = (I : f^(n+1))."""
    t = sp.Symbol("t_sat")
    for R, syms, I, f in _ideal_cases(field, "saturation", 6):
        A = [_to_expr(g, syms) for g in I.gens]
        fx = _to_expr(f, syms)
        J, N = I.saturation(f)
        want = _eliminated(A + [1 - t * fx], [t], syms, field)
        assert _same_ideal(J, want, syms, field), (I, f.text())
        chain = [_reduced(A, syms, field)]
        while True:
            n = len(chain)
            chain.append(_reduced(_quotient(A, fx ** n, syms, field), syms, field))
            if chain[-1] == chain[-2]:
                break
        assert N == len(chain) - 2, (I, f.text())


# Minimal polynomials and minimal primes (Cox, Little & O'Shea, ch. 3 §1 and
# ch. 4 §7): the minimal polynomial of f modulo a zero dimensional I is the
# monic generator of (I + (T - f)) ∩ k[T], and the minimal primes of a
# principal ideal are generated by the irreducible factors of its generator.

ZERO_DIMENSIONAL = [
    ("x^2 - 2", "y^2 - 3"),
    ("x^2 - 2", "y^2 - 2"),
    ("x^3 - x", "y^2 - x"),
    ("x^2", "y^2"),
    ("x^2 + y", "y^3 - 1"),
]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_minimal_polynomial_is_the_eliminant_of_a_lex_basis(field):
    R = PolyRing(field, ("x", "y"))
    syms = sp.symbols("x y")
    T = sp.Symbol("T")
    opts = {"modulus": field.p} if field.char else {"domain": sp.QQ}
    for gens in ZERO_DIMENSIONAL:
        I = Ideal(R, parse_many(R, list(gens)))
        A = [_to_expr(g, syms) for g in I.gens]
        for text in ("x", "y", "x + y", "x*y + 1", "x - 2*y^2"):
            f = parse_poly(R, text)
            (g,) = _eliminated(A + [T - _to_expr(f, syms)], syms, [T], field)
            coeffs = sp.Poly(g, T, **opts).monic().all_coeffs()[::-1]
            want = [field.coerce(int(c)) if field.char else Fraction(int(c.p), int(c.q))
                    for c in coeffs]
            assert minimal_polynomial(I, f) == want, (gens, text)


@pytest.mark.parametrize(
    "text", ["x^2 - 2", "x*y", "y^2 - x^3", "x^2 - y^2", "x^3 - y^3", "x^2*y - y"]
)
def test_minimal_primes_are_the_irreducible_factors_or_a_refusal(text):
    R = PolyRing(QQ, ("x", "y"))
    syms = sp.symbols("x y")
    f = parse_poly(R, text)
    _, factors = sp.factor_list(_to_expr(f, syms))
    want = sorted(
        Ideal(R, [_from_sympy(sp.Poly(p, *syms), R)]).canonical_strings()
        for p, _ in factors
    )
    try:
        got = sorted(q.canonical_strings() for q in minimal_primes(Ideal(R, [f])))
    except LuError:
        return
    assert got == want


def test_associated_primes_of_complete_intersections_of_linear_forms():
    """(f, g) with f and g products of powers of linear forms.  When each
    pair (l, m) of a factor l of f and m of g spans two dimensions, f and g
    are coprime, so (f, g) is a complete intersection and unmixed
    (Macaulay's unmixedness theorem): its associated primes are exactly the
    distinct (l, m).  The answer is that set or one of the radical's
    refusals, never a candidate refused for want of a colon witness."""
    forms = ["x", "y", "z", "x - y", "y - z", "x - z"]
    R = PolyRing(QQ, ("x", "y", "z"))
    rng = random.Random(7)
    seen = {"right": 0, EXHAUSTED: 0, UNSATURATED: 0}
    for _ in range(300):
        fs, gs = ([(parse_poly(R, rng.choice(forms)), rng.randint(1, 2))
                   for _ in range(rng.randint(1, 2))] for _ in "fg")
        pairs = [Ideal(R, [l, m]) for l, _ in fs for m, _ in gs]
        if any(len(P.groebner()) != 2 for P in pairs):
            continue
        f = g = R.one()
        for l, k in fs:
            f = f * l**k
        for m, k in gs:
            g = g * m**k
        want = sorted({tuple(P.canonical_strings()) for P in pairs})
        try:
            got = [tuple(q.canonical_strings()) for q in associated_primes(Ideal(R, [f, g]))]
        except LuError as exc:
            assert str(exc) in seen, (f.text(), g.text(), str(exc))
            seen[str(exc)] += 1
            continue
        assert sorted(got) == want, (f.text(), g.text())
        seen["right"] += 1
    assert sum(seen.values()) == 211 and seen["right"] > 0, seen


# Embedding dimension by the Jacobian criterion (Eisenbud, *Commutative
# Algebra*, Thm 16.19): in characteristic zero, for I inside a prime p of
# k[x], the local ring (k[x]/I)_p has embedding dimension ht p minus the
# rank of the Jacobian of I's generators modulo p, over the fraction field
# of k[x]/p.  For p generated by variables x_i (i in C) that is |C| minus
# the rank of the columns d/dx_i (i in C) at x_C = 0, over the fraction
# field of the other variables.  sympy's reduced bases stand for I and p.
# The rank is the largest size of a minor outside p, and ht p is n minus
# dim k[x]/p: the size of the largest set of variables on which no leading
# monomial of p's basis lives (Cox, Little & O'Shea, ch. 9 §3).

def _jacobian_embedding_dimension(L):
    syms = sp.symbols(L.ring.names)
    p = _oracle([_to_expr(g, syms) for g in L.center.gens], syms, "grevlex", QQ)
    leads = [q.monoms(order="grevlex")[0] for q in p.polys]
    dim = max(
        k for k in range(len(syms) + 1) for S in combinations(range(len(syms)), k)
        if not any(all(e[i] == 0 or i in S for i in range(len(syms))) for e in leads)
    )
    I = _reduced([_to_expr(f, syms) for f in L.defining.gens], syms, QQ)
    J = sp.Matrix([[p.reduce(sp.diff(f, x))[1] for x in syms] for f in I])
    rank = 0
    for r in range(1, min(J.rows, len(syms)) + 1):
        if not any(not p.contains(J.extract(list(rs), list(cs)).det())
                   for rs in combinations(range(J.rows), r)
                   for cs in combinations(range(J.cols), r)):
            break
        rank = r
    return len(syms) - dim - rank


@pytest.mark.parametrize(
    "name", [name for name, scene in COTANGENT_SCENES.items()
             if isinstance(scene, str) or scene["field"] == "Q"]
)
def test_embedding_dimension_is_the_jacobian_corank(name):
    for L in cotangent_rings(name):
        assert embedding_dimension(L) == _jacobian_embedding_dimension(L), L


# Radicals, nilpotent lengths and blowup charts (Cox, Little & O'Shea, ch. 4
# §2 and §4): g lies in √I exactly when 1 ∈ I + (1 - t*g) (Rabinowitsch), and
# a chart ideal is the saturation (I + (b*t_i - a_i)) : b^∞, the elimination
# of s from I + (b*t_i - a_i) + (1 - s*b).

def _in_radical(I, g, syms, field):
    t = sp.Symbol("t_rad")
    exprs = [_to_expr(f, syms) for f in I.gens] + [1 - t * _to_expr(g, syms)]
    return list(_oracle(exprs, (*syms, t), "grevlex", field).exprs) == [1]


CERTIFIED_RADICALS = [row[:3] for row in CASCADE if isinstance(row[6], list)]


@pytest.mark.parametrize(
    "field, names, gens", CERTIFIED_RADICALS,
    ids=[f"{field}-{names}-{', '.join(gens)}"
         for field, names, gens in CERTIFIED_RADICALS],
)
def test_every_certified_radical_lies_in_the_radical(field, names, gens):
    I = _cascade_ideal(field, names, gens)
    syms = sp.symbols(I.ring.names)
    for g in radical(I).groebner():
        assert _in_radical(I, g, syms, I.ring.field), g.text()


def _nilpotent_rings():
    """The defining ideals whose nilpotent length the reductions of F1-F4
    ask for, every ideal but the unit ideal whose radical the cascade table
    certifies, and two of length 3 and 4."""
    seen = []
    real = localring.nilpotent_length

    def recording(L):
        if L.defining not in seen:
            seen.append(L.defining)
        return real(L)

    with mock.patch.object(localring, "nilpotent_length", recording), \
            mock.patch.object(pipeline, "nilpotent_length", recording):
        for name in ("F1", "F2", "F3", "F4"):
            run_reduction(*load_scene(name))
    more = [row for row in CERTIFIED_RADICALS if row[2] != ["1"]]
    more += [("Q", "xy", ["x^3", "x*y"]), ("Q", "xy", ["x^3", "y^2"])]
    return seen + [_cascade_ideal(*row) for row in more]


def test_nilpotent_length_is_the_least_power_of_the_nilradical_inside():
    rings = _nilpotent_rings()
    lengths = set()
    for I in rings:
        n = nilpotent_length(LocalRing(I.ring, I, I, check=False))
        lengths.add(n)
        syms = sp.symbols(I.ring.names)
        G = _oracle([_to_expr(f, syms) for f in I.gens], syms, "grevlex", I.ring.field)
        N = [_to_expr(g, syms) for g in radical(I).groebner()]

        def powers(k):
            return [sp.Mul(*c) for c in combinations_with_replacement(N, k)]

        assert all(G.contains(p) for p in powers(n)), I
        assert not all(G.contains(p) for p in powers(n - 1)), I
    assert len(rings) > 30 and lengths == {1, 2, 3, 4}


def test_every_golden_chart_is_the_saturation_at_its_denominator():
    s = sp.Symbol("s_sat")
    for name, source, steps in _golden_runs():
        L, nu = load_scene(source)
        for step in steps:
            b = parse_poly(L.ring, step["b"])
            a_list = [parse_poly(L.ring, a) for a in step["a_list"]]
            B = local_blowup(L, b, a_list, nu=nu)
            S = B.chart.ring
            syms = sp.symbols(S.names)
            bx = _to_expr(b.to_ring(S), syms)
            exprs = [_to_expr(f.to_ring(S), syms) for f in L.defining.gens]
            exprs += [bx * sp.Symbol(t) - _to_expr(a.to_ring(S), syms)
                      for t, a in zip(B.t_names, a_list)]
            want = _eliminated(exprs + [1 - s * bx], [s], syms, S.field)
            recorded = Ideal(S, parse_many(S, step["chart_ideal_gb"]))
            assert _same_ideal(recorded, want, syms, S.field), name
            L, nu = B.chart, transport_through_blowup(nu, B)
