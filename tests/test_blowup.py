"""Local blowups: charts, transports, composition, and the two lifts."""

import json
from pathlib import Path

import pytest
from conftest import ideal, ring, scene

from lu.blowup import (
    compose,
    lift_from_localization,
    lift_from_quotient,
    local_blowup,
    strict_transform,
    transport_through_blowup,
    verify_center_isos,
)
from lu.errors import (
    ChartMismatch,
    IsomorphismCheckFailed,
    LuError,
    SupportDivision,
    ValueInequalityViolated,
)
from lu.ideals import Ideal
from lu.localring import LocalRing
from lu.parse import parse_poly
from lu.scenes import load_scene
from lu.valuations import WeightValuation

GOLDEN_TRACES = Path(__file__).resolve().parents[1] / "bench" / "golden" / "traces"


def _plane():
    R = ring("x", "y")
    return LocalRing(R, Ideal(R, []), ideal(R, "x", "y"))


def test_fat_axis_chart():
    local, nu = scene(
        ["x", "y"], ["x^2", "x*y"], ["x", "y"], ["x"], {"y": (1,)}, 1
    )
    B = local_blowup(local, local.ring.var("y"), [local.ring.var("x")], nu=nu)
    assert B.chart.defining.canonical_strings() == ["x", "t"]
    assert B.chart.center.canonical_strings() == ["y", "x", "t"]
    assert B.t_names == ("t",)
    assert B.stabilization_N == 2
    moved = transport_through_blowup(nu, B)
    # x had infinite value, so t joins the support with a zero column
    assert moved.rows == ((0, 1, 0),)
    assert moved.support.canonical_strings() == ["x", "t"]
    assert verify_center_isos(B, nu).ok


def test_fat_cone_chart():
    local, nu = scene(
        ["u", "v", "x", "y"],
        ["x^2", "x*y", "y^2", "v*x - u*y"],
        ["u", "v", "x", "y"],
        ["x", "y"],
        {"u": (1, 0), "v": (0, 1)},
        2,
    )
    B = local_blowup(local, local.ring.var("v"), [local.ring.var("y")], nu=nu)
    assert B.chart.defining.canonical_strings() == ["y - v*t", "x - u*t", "t^2"]
    assert B.stabilization_N == 2
    moved = transport_through_blowup(nu, B)
    assert moved.rows == ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
    assert moved.support.canonical_strings() == ["y", "x", "t"]
    assert verify_center_isos(B, nu).ok


def test_whitney_chart_and_strict_transform():
    local, nu = scene(
        ["u", "x", "y"],
        ["u*y - x^2"],
        ["u", "x", "y"],
        [],
        {"u": (0, 1), "x": (1, 1), "y": (2, 1)},
        2,
    )
    B = local_blowup(local, local.ring.var("u"), [local.ring.var("x")], nu=nu)
    assert B.chart.defining.canonical_strings() == ["y - u*t^2", "x - u*t"]
    assert B.stabilization_N == 1
    moved = transport_through_blowup(nu, B)
    assert moved.rows == ((0, 1, 2, 1), (1, 1, 1, 0))
    assert verify_center_isos(B, nu).ok

    transformed, n = strict_transform(B, ideal(local.ring, "x"))
    assert transformed.canonical_strings() == ["x", "t"]
    assert n == 1


def test_cusp_resolves_in_one_chart():
    local, nu = scene(
        ["x", "y"], ["y^2 - x^3"], ["x", "y"], ["y^2 - x^3"],
        {"x": (2,), "y": (3,)}, 1,
    )
    B = local_blowup(local, local.ring.var("x"), [local.ring.var("y")], nu=nu)
    assert B.chart.defining.canonical_strings() == ["y - t^3", "x - t^2"]
    assert B.stabilization_N == 2
    assert verify_center_isos(B, nu).ok


def test_identity_blowup_is_the_source():
    local, nu = scene(
        ["x", "y"], ["x^2", "x*y"], ["x", "y"], ["x"], {"y": (1,)}, 1
    )
    B = local_blowup(local, local.ring.one(), [])
    assert B.chart == local
    assert B.t_names == ()
    # nu extends over the chart unchanged: b is a unit, no chart variables
    assert nu.value_of(B.b).is_zero
    assert all(nu.value_of(a).is_positive for a in B.a_list)


def test_refuses_denominator_in_the_support():
    local, nu = scene(
        ["x", "y"], ["x^2", "x*y"], ["x", "y"], ["x"], {"y": (1,)}, 1
    )
    try:
        local_blowup(local, local.ring.var("x"), [local.ring.var("y")], nu=nu)
    except SupportDivision:
        pass
    else:
        raise AssertionError("division by a support element was allowed")


def test_refuses_numerator_of_smaller_value():
    local, nu = scene(["x", "y"], [], ["x", "y"], [], {"x": (2,), "y": (3,)}, 1)
    try:
        local_blowup(local, local.ring.var("y"), [local.ring.var("x")], nu=nu)
    except ValueInequalityViolated:
        pass
    else:
        raise AssertionError("a value decreasing chart was built")


def test_refuses_generators_outside_the_center():
    local, _ = scene(["x", "y"], [], ["x", "y"], [], {"x": (2,), "y": (3,)}, 1)
    R = local.ring
    try:
        local_blowup(local, R.one() + R.var("x"), [R.var("y")])
    except LuError:
        pass
    else:
        raise AssertionError("a unit denominator was accepted")
    try:
        local_blowup(local, R.zero(), [])
    except LuError:
        pass
    else:
        raise AssertionError("a zero denominator was accepted")


def test_blowup_data_must_be_polynomials_of_the_source_ring():
    plane = _plane()
    R = plane.ring
    nu = WeightValuation(R, Ideal(R, []), ((1, 1),))
    lifts = (
        local_blowup,
        lambda L, b, a_list: lift_from_localization(L, nu, b, a_list),
        lambda L, b, a_list: lift_from_quotient(L, nu, Ideal(R, []), b, a_list),
    )
    for blowup in lifts:
        for b, a_list in (("x", ["y"]), (R.var("x"), ["y"]), (1, []),
                          (ring("x", "y", "z").var("x"), [R.var("y")])):
            with pytest.raises(LuError, match="^blowup data .* is not a polynomial of"):
                blowup(plane, b, a_list)


def test_compose_two_point_blowups():
    plane = _plane()
    R = plane.ring
    first = local_blowup(plane, R.var("x"), [R.var("y")])
    assert first.chart.defining.canonical_strings() == ["y - x*t"]
    S = first.chart.ring
    second = local_blowup(first.chart, S.var("t"), [S.var("x")])
    assert second.chart.defining.canonical_strings() == ["y - t^2*s", "x - t*s"]

    whole = compose(first, second)
    assert whole.b.text() == "x*y"
    assert [a.text() for a in whole.a_list] == ["y^2", "x^3"]
    assert whole.t_names == ("t", "s")
    assert whole.stabilization_N == 2
    assert whole.chart == second.chart
    assert whole.source == plane


def test_compose_with_identity_is_a_relabel():
    plane = _plane()
    R = plane.ring
    first = local_blowup(plane, R.var("x"), [R.var("y")])
    whole = compose(first, local_blowup(first.chart, first.chart.ring.one(), []))
    assert whole.b.text() == "x"
    assert [a.text() for a in whole.a_list] == ["y"]
    assert whole.chart == first.chart


def test_compose_checks_the_gluing():
    plane = _plane()
    R = plane.ring
    first = local_blowup(plane, R.var("x"), [R.var("y")])
    try:
        compose(first, first)
    except ChartMismatch:
        pass
    else:
        raise AssertionError("composing along mismatched charts was allowed")


def test_localization_lift_swaps_the_denominator():
    plane = _plane()
    R = plane.ring
    # x and y agree on the visible row but x is smaller underneath
    nu = WeightValuation(R, Ideal(R, []), ((1, 1), (1, 2)))
    B = lift_from_localization(plane, nu, R.var("y"), [R.var("x")])
    assert B.b.text() == "x"
    assert [a.text() for a in B.a_list] == ["y"]


def test_localization_lift_swaps_the_denominator_past_two_numerators():
    """y is least, so it becomes the denominator; x and z keep their order,
    and the old relations x*t_i - a_i*t0 are rechecked in the new chart."""
    R = ring("x", "y", "z")
    space = LocalRing(R, Ideal(R, []), ideal(R, "x", "y", "z"))
    nu = WeightValuation(R, Ideal(R, []), ((1, 1, 1), (2, 1, 3)))
    B = lift_from_localization(space, nu, R.var("x"), [R.var("y"), R.var("z")])
    assert B.b.text() == "y"
    assert [a.text() for a in B.a_list] == ["x", "z"]
    assert B.chart.defining.canonical_strings() == ["z - y*t2", "y*t1 - x"]


def test_localization_lift_keeps_a_legal_denominator():
    plane = _plane()
    R = plane.ring
    nu = WeightValuation(R, Ideal(R, []), ((1, 1), (1, 2)))
    B = lift_from_localization(plane, nu, R.var("x"), [R.var("y")])
    assert B.b.text() == "x"
    assert [a.text() for a in B.a_list] == ["y"]


def test_localization_lift_refuses_a_visible_swap():
    plane = _plane()
    R = plane.ring
    # the first row already distinguishes the candidates
    nu = WeightValuation(R, Ideal(R, []), ((1, 2), (0, 0)))
    try:
        lift_from_localization(plane, nu, R.var("y"), [R.var("x")])
    except IsomorphismCheckFailed:
        pass
    else:
        raise AssertionError("a swap the localized run could see was lifted")


def test_quotient_lift_checks_the_contraction():
    R = ring("u", "v", "w")
    local = LocalRing(R, Ideal(R, []), ideal(R, "u", "v", "w"))
    nu = WeightValuation(R, Ideal(R, []), ((1, 0, 0), (0, 2, 3)))
    p1 = ideal(R, "u")
    B = lift_from_quotient(local, nu, p1, R.var("v"), [R.var("w")])
    assert B.b.text() == "v"
    assert B.chart.defining.canonical_strings() == ["w - v*t"]
    try:
        lift_from_quotient(local, nu, p1, R.var("u"), [R.var("w")])
    except SupportDivision:
        pass
    else:
        raise AssertionError("lifted a denominator that dies in the quotient")


def test_center_checks_report_a_denominator_in_the_support():
    """A blowup built without the valuation may divide by an element of its
    support; the checks then report the support's contraction, the
    denominator and a contracted relation that no inversion outside the
    support makes trivial.  The chart relations always lie in the
    transformed support, which saturates an ideal holding them."""
    R = ring("x", "y")
    L = LocalRing(R, ideal(R, "x*y"), ideal(R, "x", "y"))
    B = local_blowup(L, R.var("x"), [R.var("y")])
    assert B.chart.defining.canonical_strings() == ["y", "t"]
    nu = WeightValuation(R, ideal(R, "x"), ((0, 1),))
    assert verify_center_isos(B, nu) == (False, (
        "transformed support contracts to (1), not the support",
        "denominator x lies in the support",
        "contracted chart relation y is not invertible away from the support",
    ))


def test_quotient_lift_refuses_a_kernel_that_misses_the_chart():
    """p1 = (w) does not hold the defining ideal (u), so the chart relation
    u misses the transformed kernel."""
    R = ring("u", "v", "w")
    local = LocalRing(R, ideal(R, "u"), ideal(R, "u", "v", "w"))
    nu = WeightValuation(R, Ideal(R, []), ((1, 1, 1),))
    with pytest.raises(IsomorphismCheckFailed,
                       match="^chart relation u misses the transformed quotient kernel$"):
        lift_from_quotient(local, nu, ideal(R, "w"), R.var("v"), [R.var("w")])


def test_quotient_lift_refuses_a_kernel_the_denominator_does_not_saturate():
    """v is a zero divisor modulo p1 = (u*v): the transformed kernel
    contracts to p1 : v^infinity = (u), not to p1."""
    R = ring("u", "v", "w")
    local = LocalRing(R, Ideal(R, []), ideal(R, "u", "v", "w"))
    nu = WeightValuation(R, Ideal(R, []), ((1, 1, 1),))
    with pytest.raises(IsomorphismCheckFailed,
                       match="^transformed quotient kernel does not contract to the kernel$"):
        lift_from_quotient(local, nu, ideal(R, "u*v"), R.var("v"), [R.var("w")])


def _golden_runs():
    """(name, scene, steps) of each golden trace: F1-F3 and the cusps
    y^a - x^b with weights (a, b), as the benchmark draws them."""
    for path in sorted(GOLDEN_TRACES.glob("*.json")):
        source = path.stem
        if source.startswith("cusp_Q_"):
            a, b = source[len("cusp_Q_"):].split(",")
            source = {
                "field": "Q",
                "vars": ["x", "y"],
                "ideal": [f"y^{a} - x^{b}"],
                "localize_at": ["x", "y"],
                "valuation": {"support": [], "weights": {"x": [int(a)], "y": [int(b)]},
                              "rank": 1},
            }
        yield path.stem, source, json.loads(path.read_text())["steps"]


def test_the_denominator_is_a_nonzerodivisor_on_every_golden_chart():
    """`local_blowup` saturates at b, so J : b == J on its chart; checked on
    every chart of the six golden traces, each the chart the trace records."""
    charts = []
    for name, source, steps in _golden_runs():
        L, nu = load_scene(source)
        for s in steps:
            B = local_blowup(L, parse_poly(L.ring, s["b"]),
                             [parse_poly(L.ring, a) for a in s["a_list"]], nu=nu)
            J = B.chart.defining
            assert J.canonical_strings() == s["chart_ideal_gb"], name
            assert J.colon(B.b.to_ring(J.ring)) == J, name
            L, nu = B.chart, transport_through_blowup(nu, B)
            charts.append(name)
    assert len(set(charts)) == len(charts) == 6
