"""Weight valuations: values, centers, classes, and the rank split."""

import json
import random
from fractions import Fraction
from math import comb
from operator import mul
from pathlib import Path

import pytest

from conftest import scene

from lu.blowup import local_blowup, transport_through_blowup
from lu.errors import (
    InitialIdealNotPrime,
    LuError,
    NotCentered,
    NotMinimalPrime,
    UnsupportedInstance,
)
from lu import valuations
from lu.fields import GF, QQ
from lu.ideals import Ideal, groebner_basis, normal_form
from lu.orders import Lex, _Order
from lu.pipeline import run_reduction
from lu.parse import parse_poly
from lu.poly import Polynomial, PolyRing
from lu.scenes import load_scene
from lu.valuations import (
    Value,
    WeightValuation,
    axiom_violations,
    center_ideal,
    certify,
    decompose,
    sample_polynomials,
    support_class,
)

GOLDEN_TRACES = Path(__file__).resolve().parents[1] / "bench" / "golden" / "traces"


def _fat_cone_scene():
    return scene(
        ["u", "v", "x", "y"],
        ["x^2", "x*y", "y^2", "v*x - u*y"],
        ["u", "v", "x", "y"],
        ["x", "y"],
        {"u": (1, 0), "v": (0, 1)},
        2,
    )


def _whitney_scene():
    return scene(
        ["u", "x", "y"],
        ["u*y - x^2"],
        ["u", "x", "y"],
        [],
        {"u": (0, 1), "x": (1, 1), "y": (2, 1)},
        2,
    )


def _cusp_scene():
    return scene(
        ["x", "y"],
        ["y^2 - x^3"],
        ["x", "y"],
        ["y^2 - x^3"],
        {"x": (2,), "y": (3,)},
        1,
    )


def test_value_arithmetic():
    assert Value((1, 2)) + Value((0, 1)) == Value((1, 3))
    assert Value((1, 3)) - Value((0, 1)) == Value((1, 2))
    assert Value(None) + Value((5,)) == Value(None)
    assert Value(None) - Value((1,)) == Value(None)


def test_value_order_is_lexicographic():
    assert Value((0, 5)) < Value((1, 0))
    assert Value((1, 0)) < Value((1, 1))
    assert Value((2,)) < Value(None)
    assert not Value(None) < Value(None)
    vals = [Value((1, 0)), Value(None), Value((0, 9)), Value((1, 0))]
    assert sorted(vals)[0] == Value((0, 9))
    assert sorted(vals)[-1].is_infinite


def test_value_predicates_and_truncation():
    assert Value((0, 0)).is_zero
    assert Value((0, 1)).is_positive
    assert not Value((0, 0)).is_positive
    assert Value(None).is_positive
    assert Value((1, 2, 3)).truncate(2) == Value((1, 2))
    assert Value(None).truncate(1) == Value(None)


@pytest.mark.parametrize("coordinate", [1.5, Fraction(3, 2), Fraction(2, 1), True, "1"])
def test_values_and_weight_rows_refuse_a_non_integer_coordinate(coordinate):
    """Refused, not truncated or converted: the rule of the scene loader."""
    with pytest.raises(LuError, match="must be integers"):
        Value((coordinate, 2))
    R = PolyRing(QQ, ["x", "y", "z"])
    with pytest.raises(LuError, match="must be integers"):
        WeightValuation(R, Ideal(R, []), [[coordinate, 1, 1]])


def test_value_dimension_guards():
    try:
        Value((1, 2)) < Value((1,))
    except LuError:
        pass
    else:
        raise AssertionError("comparing values of different rank was allowed")
    try:
        Value((1,)) - Value(None)
    except LuError:
        pass
    else:
        raise AssertionError("subtracting an infinite value was allowed")


def test_fat_cone_value_table():
    local, nu = _fat_cone_scene()
    u, v, x, _ = (local.ring.var(n) for n in "uvxy")
    assert nu.value_of(u) == Value((1, 0))
    assert nu.value_of(v) == Value((0, 1))
    assert nu.value_of(x).is_infinite
    assert nu.value_of(u * v + u * u) == Value((1, 1))
    # the sum takes the smaller of the two values
    assert nu.value_of(u + v) == Value((0, 1))


def test_center_collects_positive_variables():
    local, nu = _fat_cone_scene()
    assert center_ideal(nu).canonical_strings() == ["y", "x", "v", "u"]


def test_support_classes():
    _, cone_nu = _fat_cone_scene()
    assert support_class(cone_nu) == "variables"
    _, whitney_nu = _whitney_scene()
    assert support_class(whitney_nu) == "weight-homogeneous"
    free, free_nu = scene(["x", "y"], [], ["x", "y"], [], {"x": (2,), "y": (3,)}, 1)
    assert support_class(free_nu) == "zero"
    assert free_nu.value_of(
        free.ring.var("y") ** 2 - free.ring.var("x") ** 3
    ) == Value((6,))


def test_certify_accepts_the_instances():
    for builder, cls in [
        (_fat_cone_scene, "variables"),
        (_whitney_scene, "weight-homogeneous"),
        (_cusp_scene, "weight-homogeneous"),
    ]:
        local, nu = builder()
        assert certify(nu, local.defining, local.center) == cls


def test_certify_refuses_inhomogeneous_support():
    local, nu = scene(
        ["x", "y"],
        ["x - y^2 - y^3"],
        ["x", "y"],
        ["x - y^2 - y^3"],
        {"x": (2,), "y": (1,)},
        1,
    )
    assert support_class(nu) is None
    try:
        certify(nu, local.defining, local.center)
    except UnsupportedInstance:
        pass
    else:
        raise AssertionError("inhomogeneous support was certified")


def test_certify_refuses_reducible_support():
    """The witness reads as `require_prime` prints it."""
    local, nu = scene(
        ["x", "y"], ["x*y"], ["x", "y"], ["x*y"], {"x": (1,), "y": (1,)}, 1
    )
    with pytest.raises(InitialIdealNotPrime) as refused:
        certify(nu, local.defining, local.center)
    assert str(refused.value) == "weight graded ring has zero divisors: witness (x)*(y)"


def test_certify_refuses_non_minimal_support():
    local, nu = scene(
        ["x", "y"], ["x^2"], ["x", "y"], ["x", "y"], {"x": (1,), "y": (1,)}, 1
    )
    try:
        certify(nu, local.defining, local.center)
    except NotMinimalPrime:
        pass
    else:
        raise AssertionError("an embedded support was certified")


def test_certify_refuses_off_center_positivity():
    local, nu = scene(["u", "x"], [], ["x"], [], {"u": (1,), "x": (1,)}, 1)
    try:
        certify(nu, local.defining, local.center)
    except NotCentered:
        pass
    else:
        raise AssertionError("a positive variable outside the center passed")


def test_decompose_splits_the_rows():
    local, nu = _fat_cone_scene()
    first, rest = decompose(nu)
    assert first.rank == 1 and rest.rank == 1
    assert center_ideal(first).canonical_strings() == ["y", "x", "u"]
    v = local.ring.var("v")
    u = local.ring.var("u")
    assert rest.value_of(v) == Value((1,))
    assert rest.value_of(u).is_infinite


def test_decompose_refuses_a_rank_one_valuation():
    _, nu = _cusp_scene()
    with pytest.raises(UnsupportedInstance, match="rank at least two"):
        decompose(nu)


def test_axiom_sampling_sees_no_violations():
    for builder in (_fat_cone_scene, _whitney_scene, _cusp_scene):
        _, nu = builder()
        assert axiom_violations(nu, count=60) == []


def test_a_negative_sample_count_is_an_input_error():
    _, nu = _cusp_scene()
    with pytest.raises(LuError, match="sample count must be nonnegative, got -3"):
        axiom_violations(nu, count=-3)


def test_truncation_commutes_with_the_split():
    # the coarse half of a split reads off the leading block of the value
    _, nu = _fat_cone_scene()
    first, _ = decompose(nu)
    rng = random.Random(7)
    for _ in range(40):
        f = sample_polynomials(nu.ring, rng)
        assert first.value_of(f) == nu.value_of(f).truncate(1)


def _reference_sample(ring, rng, max_deg=4, max_terms=4):
    """sample_polynomials as first written: one ring.monomial per term, summed with +."""
    while True:
        acc = ring.zero()
        for _ in range(rng.randint(1, max_terms)):
            e = [0] * ring.n
            for _ in range(rng.randint(0, max_deg)):
                e[rng.randrange(ring.n)] += 1
            c = rng.randint(-3, 3)
            acc = acc + ring.monomial(tuple(e), c)
        if not acc.is_zero():
            return acc


def test_sampler_draws_what_the_reference_draws():
    """Same polynomials, and the generator left in the same state."""
    for field in (QQ, GF(7)):
        R = PolyRing(field, ["x", "y", "z"])
        fast, slow = random.Random(5), random.Random(5)
        for _ in range(20000):
            assert sample_polynomials(R, fast) == _reference_sample(R, slow)
        assert fast.getstate() == slow.getstate()


def test_the_sampler_refuses_a_ring_without_variables():
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(LuError, match="no variables"):
        sample_polynomials(PolyRing(QQ, []), rng)
    assert rng.getstate() == state


def test_value_of_on_a_variable_support_computes_no_order_key(monkeypatch):
    """F2's support is generated by variables, so every monomial of f is
    either irreducible or set aside, and none needs an order key."""
    _, nu = load_scene("F2")
    assert support_class(nu) == "variables"
    nu.value_of(nu.ring.one())  # finds the support basis's leading terms
    keyed = []
    key = Lex.key

    def counting(order, e):
        keyed.append(e)
        return key(order, e)

    monkeypatch.setattr(Lex, "key", counting)
    rng = random.Random(3)
    values = []
    for _ in range(100):
        f, g = sample_polynomials(nu.ring, rng), sample_polynomials(nu.ring, rng)
        values.append(nu.value_of(f * g) == nu.value_of(f) + nu.value_of(g))
    assert all(values) and keyed == []


def _value_by_whole_division(nu, f):
    """value_of as first written: divide f whole, then take the least weight."""
    nf = nu.support.normal_form(f)
    if nf.is_zero():
        return Value(None)
    return Value(min(nu.weight_of_exps(e) for e in nf.terms))


def _fixture_and_chart_valuations():
    """F1-F4 and the valuation on every chart of F1-F3's golden traces."""
    found = []
    for name in ("F1", "F2", "F3", "F4"):
        L, nu = load_scene(name)
        found.append((name, nu))
        path = GOLDEN_TRACES / f"{name}.json"
        if not path.exists():
            continue
        for i, s in enumerate(json.loads(path.read_text())["steps"]):
            B = local_blowup(L, parse_poly(L.ring, s["b"]),
                             [parse_poly(L.ring, a) for a in s["a_list"]], nu=nu)
            nu = transport_through_blowup(nu, B)
            L = B.chart
            found.append((f"{name} chart {i + 1}", nu))
    return found


def _uncertified_valuation(support, field=QQ):
    _, nu = scene(
        ["x", "y"], [], ["x", "y"], [support], {"x": (1,), "y": (1,)}, 1, field=field
    )
    return nu


def test_value_of_sums_monomial_normal_forms_as_whole_division_does():
    """Linearity of the normal form: the table's sums give the values that
    dividing each element whole gives, certified support or not."""
    valuations = _fixture_and_chart_valuations()
    assert len(valuations) > 4
    valuations += [(s, _uncertified_valuation(s)) for s in ("x*y", "y - x^2")]
    for label, nu in valuations:
        rng = random.Random(11)
        for _ in range(40):
            f, g = sample_polynomials(nu.ring, rng), sample_polynomials(nu.ring, rng)
            for h in (f, g, f * g, f + g):
                assert nu.value_of(h) == _value_by_whole_division(nu, h), (label, h)
        assert nu.value_of(nu.ring.zero()).is_infinite


class _WeightRefined(_Order):
    """Weight rows compared lexicographically, heavier bigger, ties by
    degrevlex: the order values were once read under, kept here only as a
    reference for the canonical lex basis they are read from now."""

    __slots__ = ("rows", "arity")

    def key(self, e):
        return (tuple(sum(map(mul, r, e)) for r in self.rows),
                (sum(e), tuple(-x for x in reversed(e))))


def _least_weight_under_weight_order(nu, h):
    order = _WeightRefined(nu.rows, nu.ring.n)
    nf = normal_form(h, groebner_basis(nu.support.gens, order), order)
    if nf.is_zero():
        return Value(None)
    return Value(min(nu.weight_of_exps(e) for e in nf.terms))


def _cusp(a, b):
    return {"field": "Q", "vars": ["x", "y"], "ideal": [f"y^{a} - x^{b}"],
            "localize_at": ["x", "y"],
            "valuation": {"support": [], "weights": {"x": [a], "y": [b]}, "rank": 1}}


def _sub_run_scene(gen, weights):
    # test_pipeline's rank-2 and rank-3 scenes, whose quotient sub-runs
    # give a support variable a negative column
    return {"field": "Q", "vars": ["x", "y", "z", "w"], "ideal": [gen],
            "localize_at": ["x", "y", "z", "w"],
            "valuation": {"support": [gen], "rank": len(weights["x"]), "weights": weights}}


def test_certified_values_do_not_depend_on_the_order(monkeypatch):
    """Every valuation a run builds whose support lies in a certified class
    (zero, variables, weight homogeneous) reads, from the canonical lex
    basis, the values the old weight-refined order reads: such a support is
    homogeneous, so each weight piece of h reduces in its own weight.  The
    runs cover F1-F4, the golden traces' cusps and their charts, the cusp
    (2, 9), and the rank-2 and rank-3 sub-runs."""
    built = []
    init = WeightValuation.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(WeightValuation, "__init__", recording)
    scenes = ["F1", "F2", "F3", "F4", _cusp(2, 3), _cusp(3, 4), _cusp(4, 5), _cusp(2, 9),
              _sub_run_scene("z^2 - x*y", {"x": [3, 1], "y": [1, 3], "z": [2, 2], "w": [2, 2]}),
              _sub_run_scene("z^2 - x^3*y", {"x": [0, 2, 0], "z": [0, 3, 1],
                                             "y": [0, 0, 2], "w": [1, 0, 0]})]
    for source in scenes:
        assert run_reduction(*load_scene(source)).verdict == "Uniformized", source
    checked = [nu for nu in built if support_class(nu) is not None]
    assert len(checked) > 50
    assert {support_class(nu) for nu in checked} == {"zero", "variables", "weight-homogeneous"}
    rng = random.Random(5)
    for nu in checked:
        for _ in range(8):
            f, g = sample_polynomials(nu.ring, rng), sample_polynomials(nu.ring, rng)
            for h in (f, g, f * g):
                assert nu.value_of(h) == _least_weight_under_weight_order(nu, h), (nu, h)


def test_a_table_hit_still_refuses_another_rings_polynomial():
    """The table is keyed by exponents alone, so a polynomial of another ring
    with the same arity would hit it; value_of must refuse it first."""
    _, nu = _cusp_scene()
    x = nu.ring.var("x")
    assert nu.value_of(x) == Value((2,))
    for other in (PolyRing(QQ, ["u", "v"]), PolyRing(GF(7), ["x", "y"])):
        same_exps = other.monomial(next(iter(x.terms)))
        with pytest.raises(LuError, match="is not a polynomial of"):
            nu.value_of(same_exps)


@pytest.mark.parametrize(
    "support, count, first",
    [
        ("x*y", 18, ("multiplicativity", "-3*x^2", "3*x^3*y - 2*y")),
        # inhomogeneous, but the canonical lex basis reduces y to x^2, so
        # the values read are ord_x f(x, x^2): the x-adic valuation of the
        # parabola, a valuation, though not one the weights name
        ("y - x^2", 0, None),
        ("x - y^2", 31, ("multiplicativity", "-2*y^3 - x^4", "-x*y")),
        ("y^2 - x^3", 27, ("multiplicativity", "-2*y", "x*y + 3*y")),
    ],
)
def test_axiom_sampling_finds_violations_on_uncertified_supports(support, count, first):
    """A reducible or inhomogeneous support may break the axioms, and the
    sampler reports it when it does: the counts and first triples seed 7
    draws.  Outside the certified classes the values read can depend on
    the basis's order, so these rows pin the canonical lex one."""
    bad = axiom_violations(_uncertified_valuation(support), count=300, seed=7)
    assert len(bad) == count
    assert _reported(bad[:1]) == ([first] if count else [])


def _axiom_violations_by_arithmetic(nu, count, seed):
    """axiom_violations as it was before it read the monomial table: f * g
    and f + g as Polynomials, each read through value_of, compared as Values."""
    rng = random.Random(seed)
    bad = []
    for _ in range(count):
        f = sample_polynomials(nu.ring, rng)
        g = sample_polynomials(nu.ring, rng)
        vf, vg = nu.value_of(f), nu.value_of(g)
        if nu.value_of(f * g) != vf + vg:
            bad.append(("multiplicativity", f, g))
        vs = nu.value_of(f + g)
        if vs < min(vf, vg):
            bad.append(("ultrametric", f, g))
        elif vf != vg and vs != min(vf, vg):
            bad.append(("ultrametric-strict", f, g))
    return bad


def _reported(bad):
    return [(axiom, f.text(), g.text()) for axiom, f, g in bad]


def test_axiom_sampling_on_the_table_reports_what_polynomial_arithmetic_does():
    """Same draws, same verdicts, same triples: on F1-F4 and their charts
    (F2's variable support reads many infinite values), on the uncertified
    supports over Q, and on one over GF(7)."""
    uncertified = [(s, _uncertified_valuation(s)) for s in ("x*y", "x - y^2", "y^2 - x^3")]
    uncertified.append(("x*y - 1 over GF(7)", _uncertified_valuation("x*y - 1", GF(7))))
    for label, nu in _fixture_and_chart_valuations() + uncertified:
        # a twin with its own table, so neither loop reads the other's entries
        twin = WeightValuation(nu.ring, nu.support, nu.rows)
        for seed in (7, 0xC0FFEE):
            want = _reported(_axiom_violations_by_arithmetic(twin, 300, seed))
            assert _reported(axiom_violations(nu, count=300, seed=seed)) == want, (label, seed)
            assert nu._monomial_nf.keys() == twin._monomial_nf.keys(), (label, seed)
            # the certified valuations see no violation, the others do
            assert bool(want) == ((label, nu) in uncertified), (label, seed)


@pytest.mark.parametrize("builder", [lambda: load_scene("F3"), _cusp_scene], ids=["F3", "cusp"])
def test_axiom_sampling_builds_no_product_and_divides_each_monomial_once(builder, monkeypatch):
    """No Polynomial product or sum inside the loop, one Ideal.normal_form
    per new table entry, and at most C(n + 8, n) entries."""
    _, nu = builder()
    nu.value_of(nu.ring.one())  # builds the support basis before counting
    counts = {"mul": 0, "add": 0, "normal_form": 0}

    def counting(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Polynomial, "__mul__", counting("mul", Polynomial.__mul__))
    monkeypatch.setattr(Polynomial, "__add__", counting("add", Polynomial.__add__))
    monkeypatch.setattr(Ideal, "normal_form", counting("normal_form", Ideal.normal_form))
    before = len(nu._monomial_nf)
    assert axiom_violations(nu, count=200) == []
    assert counts["mul"] == counts["add"] == 0
    assert counts["normal_form"] == len(nu._monomial_nf) - before > 0
    assert len(nu._monomial_nf) <= comb(nu.ring.n + 8, nu.ring.n)


def test_a_product_term_that_cancels_is_never_divided(monkeypatch):
    """(x + y)(x - y) = x^2 - y^2: the x*y terms cancel, so x*y gets no
    table entry, just as value_of(f * g) never reads it."""
    _, nu = _cusp_scene()
    x, y = nu.ring.var("x"), nu.ring.var("y")
    drawn = iter([x + y, x - y])
    monkeypatch.setattr(valuations, "sample_polynomials", lambda ring, rng: next(drawn))
    assert axiom_violations(nu, count=1) == []
    assert set(nu._monomial_nf) == {(1, 0), (0, 1), (2, 0), (0, 2)}
