"""The three reduction steps and the driving loop."""

import hashlib

import pytest
from conftest import CUSP_LINE_SCENE, NODE_SCENE, scene

import lu.scenes
from lu import ideals, localring, modules, pipeline
from lu.blowup import transport_through_blowup, verify_center_isos
from lu.errors import CertificationError, LuError, ResourceLimit, UnsupportedInstance
from lu.ideals import Limits
from lu.localring import Regularity
from lu.pipeline import (
    Run,
    run_reduction,
    step1,
    step2,
    step3,
    toric_uniformizer,
)
from lu.scenes import load_scene, replay_trace, trace_to_json


def _step(fn, local, nu):
    """The run after fn on a fresh run from (local, nu) with the full pool."""
    run = Run(local, nu, pipeline.BLOWUP_POOL)
    fn(run)
    return run


def _fat_axis():
    return scene(["x", "y"], ["x^2", "x*y"], ["x", "y"], ["x"], {"y": (1,)}, 1)


def _fat_cone():
    return scene(
        ["u", "v", "x", "y"],
        ["x^2", "x*y", "y^2", "v*x - u*y"],
        ["u", "v", "x", "y"],
        ["x", "y"],
        {"u": (1, 0), "v": (0, 1)},
        2,
    )


def _whitney():
    return scene(
        ["u", "x", "y"],
        ["u*y - x^2"],
        ["u", "x", "y"],
        [],
        {"u": (0, 1), "x": (1, 1), "y": (2, 1)},
        2,
    )


def _cusp():
    return scene(
        ["x", "y"], ["y^2 - x^3"], ["x", "y"], ["y^2 - x^3"],
        {"x": (2,), "y": (3,)}, 1,
    )


def test_step1_merges_associated_primes():
    run = _step(step1, *_fat_axis())
    chart, steps = run.L, run.steps
    assert [s.label for s in steps] == ["ass-prime"]
    assert steps[0].blowup.b.text() == "y"
    assert steps[0].report["ass_before"] == 2
    assert steps[0].report["ass_after"] == 1
    assert chart.defining.canonical_strings() == ["x", "t"]


def test_step1_passes_a_clean_instance():
    local, nu = _fat_cone()
    run = _step(step1, local, nu)
    chart, moved, steps = run.L, run.nu, run.steps
    assert steps == []
    assert chart == local and moved == nu


def test_step2_trims_the_whitney_center():
    run = _step(step1, *_whitney())
    run = _step(step2, run.L, run.nu)
    chart, steps = run.L, run.steps
    assert [(s.label, s.blowup.b.text()) for s in steps] == [("trim", "u")]
    assert [a.text() for a in steps[0].blowup.a_list] == ["x"]
    assert steps[0].report["absorbed"] == "y"
    assert chart.defining.canonical_strings() == ["y - u*t^2", "x - u*t"]


def test_step2_accepts_an_already_split_cone():
    local, nu = _fat_cone()
    run = _step(step2, local, nu)
    chart, steps = run.L, run.steps
    assert steps == []
    assert chart == local


def test_step3_flattens_the_cone():
    run = _step(step3, *_fat_cone())
    chart, steps = run.L, run.steps
    assert [(s.label, s.blowup.b.text()) for s in steps] == [("normal-flat", "v")]
    assert [a.text() for a in steps[0].blowup.a_list] == ["y"]
    assert steps[0].report["piece"] == 1
    assert steps[0].report["absorbed"] == "x"
    assert chart.defining.canonical_strings() == ["y - v*t", "x - u*t", "t^2"]


def test_step3_passes_the_trimmed_whitney():
    run = _step(step1, *_whitney())
    run = _step(step2, run.L, run.nu)
    steps = _step(step3, run.L, run.nu).steps
    assert steps == []


def test_splitting_steps_need_rank_two():
    local, nu = _fat_axis()
    for fn in (step2, step3):
        try:
            fn(Run(local, nu, pipeline.BLOWUP_POOL))
        except UnsupportedInstance:
            pass
        else:
            raise AssertionError(f"{fn.__name__} accepted a rank one valuation")


def test_toric_uniformizer_on_the_cusp():
    local, nu = _cusp()
    B = toric_uniformizer(local, nu)
    assert B.source == local
    assert (B.b.text(), [a.text() for a in B.a_list]) == ("x", ["y"])


def test_toric_uniformizer_skips_a_regular_point():
    def never(L, nu):
        raise AssertionError("the oracle was asked on a uniformized chart")

    local, nu = scene(["x", "y"], [], ["x", "y"], [], {"x": (2,), "y": (3,)}, 1)
    trace = run_reduction(local, nu, oracle=never)
    assert trace.verdict == "Uniformized"
    assert trace.steps == []


def test_toric_uniformizer_refuses_a_pair_of_equal_values():
    """x and y of value 1 would give the chart variable y/x value 0 at a
    center it generates; the oracle refuses the pair itself."""
    local, nu = scene(
        ["x", "y", "z"], ["z^2 - x*y"], ["x", "y", "z"], ["z^2 - x*y"],
        {"x": (1,), "y": (1,), "z": (1,)}, 1,
    )
    trace = run_reduction(local, nu)
    assert (trace.verdict, trace.steps) == ("Unsupported", [])
    assert trace.reason == "descent pair x, y share the value (1)"


def test_toric_uniformizer_pairs_one_finite_variable_with_the_support():
    """With one variable of finite value left, the numerator is the first
    variable of infinite value in the center, and without one it refuses."""
    local, nu = scene(["x", "y"], ["y"], ["x", "y"], ["y"], {"x": (1,)}, 1)
    B = toric_uniformizer(local, nu)
    assert (B.b.text(), [a.text() for a in B.a_list]) == ("x", ["y"])
    local, nu = scene(["x"], [], ["x"], [], {"x": (1,)}, 1)
    with pytest.raises(UnsupportedInstance,
                       match="^no second variable for the descent pair$"):
        toric_uniformizer(local, nu)


def _cusp_2_5():
    return scene(
        ["x", "y"], ["y^2 - x^5"], ["x", "y"], ["y^2 - x^5"],
        {"x": (2,), "y": (5,)}, 1,
    )


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_descent_chart_is_transported_and_certified_once(monkeypatch):
    transports = _count_calls(monkeypatch, pipeline, "transport_through_blowup")
    certificates = _count_calls(monkeypatch, pipeline, "certify")
    trace = run_reduction(*_cusp_2_5())
    assert [s.label for s in trace.steps] == ["oracle", "oracle"]
    # the scene once, then each of the two charts once
    assert (len(transports), len(certificates)) == (2, 3)


def test_the_blowup_pool_bounds_the_descent():
    asked = []

    def oracle(L, nu):
        asked.append(L)
        return toric_uniformizer(L, nu)

    trace = run_reduction(*_cusp_2_5(), oracle=oracle, budget=1)
    assert trace.verdict == "BudgetExceeded"
    assert trace.reason == "more than 1 blowups"
    assert len(asked) == 2
    assert len(trace.steps) == 1
    assert trace.final_ring == trace.steps[0].blowup.chart


def test_a_refused_trace_carries_the_valuation_of_its_final_chart():
    local, nu = _cusp_2_5()
    trace = run_reduction(local, nu, budget=1)
    assert trace.verdict == "BudgetExceeded"
    assert len(trace.steps) == 1
    assert trace.final_nu.ring == trace.final_ring.ring
    moved = transport_through_blowup(nu, trace.steps[0].blowup)
    assert (trace.final_nu.support, trace.final_nu.rows) == (moved.support, moved.rows)


def test_a_run_and_its_trace_check_regularity_at_most_four_times_on_f3(monkeypatch):
    calls = _count_calls(monkeypatch, pipeline, "is_regular_local")
    monkeypatch.setattr(lu.scenes, "is_regular_local", pipeline.is_regular_local)
    trace = run_reduction(*load_scene("F3"))
    assert trace.verdict == "Uniformized"
    trace_to_json(trace)
    assert len(calls) <= 4


def test_a_chart_step_three_made_is_rechecked_for_regularity(monkeypatch):
    """F2's step three blows up once; its chart, the ring with t, is the
    only one the final verification rechecks, and a failure is refused."""
    real = pipeline.is_regular_local

    def singular_chart(L):
        got = real(L)
        if "t" not in L.ring.names:
            return got
        return Regularity(False, got.embedding_dimension, got.dimension)

    monkeypatch.setattr(pipeline, "is_regular_local", singular_chart)
    trace = run_reduction(*load_scene("F2"))
    assert [s.label for s in trace.steps] == ["normal-flat"]
    assert trace.verdict == "Unsupported"
    assert trace.reason == "final verification: regular=False, normally_flat=True"


ABSORBS_NOTHING = "blowup did not absorb a generator"


@pytest.mark.parametrize(
    "builder, step, probe, fault, check, detail",
    [
        # Whitney's second trim probe still reports the extra y
        (_whitney, step2, "_trim_probe", lambda k, first, got: first,
         "trim", ABSORBS_NOTHING),
        # the cone's first piece, not free at the center, reports no extra
        (_fat_cone, step3, "_piece_probe", lambda k, first, got: (got[0], []),
         "normal flatness", "piece 1 is not free at the center yet nothing absorbs"),
        # the chart's piece has a local basis of two elements, not one
        (_fat_cone, step3, "_piece_probe",
         lambda k, first, got: got if k == 1 else (got[0] * 2, got[1]),
         "normal flatness", "local rank moved across the blowup"),
        # the chart's piece still reports the extra x
        (_fat_cone, step3, "_piece_probe", lambda k, first, got: (got[0], first[1]),
         "normal flatness", ABSORBS_NOTHING),
    ],
    ids=["trim-absorbs-nothing", "piece-without-extra", "rank-moves",
         "piece-absorbs-nothing"],
)
def test_a_faulty_probe_is_refused_by_its_step(monkeypatch, builder, step, probe, fault,
                                               check, detail):
    """Whitney trims once and the cone flattens once; a probe whose k-th
    answer is fault(k, first answer, true answer) must end its step with
    the named certification error."""
    real = getattr(pipeline, probe)
    answers = []

    def faulty(*args):
        answers.append(real(*args))
        return fault(len(answers), answers[0], answers[-1])

    monkeypatch.setattr(pipeline, probe, faulty)
    with pytest.raises(CertificationError) as refused:
        step(Run(*builder(), pipeline.BLOWUP_POOL))
    assert (refused.value.check, refused.value.detail) == (check, detail)


def test_each_trim_probe_reads_the_split_center_once(monkeypatch):
    """One cotangent presentation and one elimination, both at p1, per
    trim probe, wherever in lu they are called from."""
    asked = []
    at_ring = lambda L: L.center
    at_prime = lambda rows, prime, modulus=None: prime
    for module, name, where in [(localring, "cotangent_presentation", at_ring),
                                (pipeline, "cotangent_presentation", at_ring),
                                (modules, "eliminate_at_prime", at_prime),
                                (localring, "eliminate_at_prime", at_prime),
                                (pipeline, "eliminate_at_prime", at_prime)]:
        def recording(*args, real=getattr(module, name), name=name, where=where):
            asked.append((name, where(*args)))
            return real(*args)

        monkeypatch.setattr(module, name, recording)
    probes = []
    probe = pipeline._trim_probe

    def recorded(L, nu, p1):
        before = len(asked)
        out = probe(L, nu, p1)
        probes.append((p1, asked[before:]))
        return out

    monkeypatch.setattr(pipeline, "_trim_probe", recorded)
    run = _step(step1, *_whitney())
    step2(run)
    assert [s.label for s in run.steps] == ["trim"]
    assert len(probes) == 2
    for p1, calls in probes:
        assert calls == [("cotangent_presentation", p1), ("eliminate_at_prime", p1)]


def test_step2_refuses_a_reduced_ring_not_regular_at_the_split_center():
    """The cusp times a line, before its regularize step: the cusp is
    singular at the split center (x, y), so the trim probe refuses."""
    run = Run(*load_scene(CUSP_LINE_SCENE), pipeline.BLOWUP_POOL)
    with pytest.raises(CertificationError) as refused:
        step2(run)
    assert refused.value.check == "hypothesis"
    assert refused.value.detail == "reduced ring is not regular at the split center"
    assert run.steps == []


def test_run_reduction_on_the_fixtures():
    expected = {
        _fat_axis: (["ass-prime"], ["x", "t"]),
        _fat_cone: (["normal-flat"], ["y - v*t", "x - u*t", "t^2"]),
        _whitney: (["trim"], ["y - u*t^2", "x - u*t"]),
        _cusp: (["oracle"], ["y - t^3", "x - t^2"]),
    }
    for builder, (labels, final) in expected.items():
        trace = run_reduction(*builder())
        assert trace.verdict == "Uniformized", builder.__name__
        assert [s.label for s in trace.steps] == labels
        assert trace.final_ring.defining.canonical_strings() == final


def test_run_reduction_respects_the_budget():
    trace = run_reduction(*_fat_cone(), budget=0)
    assert trace.verdict == "BudgetExceeded"
    assert trace.reason == "more than 0 blowups"
    assert trace.steps == []


def test_a_negative_budget_is_an_input_error_before_any_work():
    L, nu = _fat_cone()
    ideals._cached_basis.cache_clear()
    with pytest.raises(LuError, match="budget must be nonnegative, got -5"):
        run_reduction(L, nu, budget=-5)
    assert ideals._cached_basis.cache_info().misses == 0


def test_an_empty_blowup_pool_is_a_resource_limit():
    with pytest.raises(ResourceLimit, match="more than 0 blowups"):
        step1(Run(*load_scene("F1"), 0))
    # a sub-run's copy reports the run's own pool, not what was left of it
    run = Run(*load_scene("F1"), 1)
    step1(run)
    assert run.left == 0
    with pytest.raises(ResourceLimit, match="more than 1 blowups"):
        step1(run.sub(*load_scene("F1")))


def test_run_reduction_reports_a_resource_limit_as_budget_exceeded(monkeypatch):
    """Running out of the basis budget is not a refusal of the instance."""
    L, nu = load_scene("F2")
    # an empty memo, so the bases are computed under the small budget
    ideals._cached_basis.cache_clear()
    monkeypatch.setattr(ideals, "BUDGET", Limits(reductions=2))
    trace = run_reduction(L, nu)
    assert trace.verdict == "BudgetExceeded"
    assert trace.reason == "basis computation exceeded 2 reductions"
    assert trace.steps == []


def test_run_reduction_reports_unsupported_instances():
    bad = scene(
        ["x", "y"],
        ["x - y^2 - y^3"],
        ["x", "y"],
        ["x - y^2 - y^3"],
        {"x": (2,), "y": (1,)},
        1,
    )
    trace = run_reduction(*bad)
    assert trace.verdict == "Unsupported"
    assert "weight homogeneous" in trace.reason


def test_run_reduction_splits_the_node_at_its_minimal_primes():
    """One ass-prime blowup at y + x leaves the line y = x that carries the
    support."""
    trace = run_reduction(*load_scene(NODE_SCENE))
    assert trace.verdict == "Uniformized"
    [step] = trace.steps
    assert (step.label, step.blowup.b.text(), step.blowup.a_list) == ("ass-prime", "y + x", ())
    assert step.report["ass_before"] == 2 and step.report["ass_after"] == 1
    assert trace.final_ring.defining.canonical_strings() == ["y - x"]


def test_run_reduction_is_deterministic():
    first = run_reduction(*_fat_cone())
    second = run_reduction(*_fat_cone())
    assert first.verdict == second.verdict == "Uniformized"
    assert [s.label for s in first.steps] == [s.label for s in second.steps]
    assert (
        first.final_ring.defining.canonical_strings()
        == second.final_ring.defining.canonical_strings()
    )


def _cusp_times_a_line(k, x, y, z):
    """The cusp y^2 - x^k times the z line, as the support of a rank two
    valuation: the row that sees x and y decides which half of the split
    the regularize step lifts from."""
    curve = f"y^2 - x^{k}"
    return {
        "field": "Q",
        "vars": ["x", "y", "z"],
        "ideal": [curve],
        "localize_at": ["x", "y", "z"],
        "valuation": {
            "support": [curve],
            "weights": {"x": x, "y": y, "z": z},
            "rank": 2,
        },
    }


@pytest.mark.parametrize(
    "source,sources,digest",
    [
        (
            _cusp_times_a_line(3, [2, 0], [3, 0], [0, 1]),
            ["localization"],
            "455e5cf42d49bc48bf9631fc5d285c0acba5c3521a7b775d968de15c99a9fdc6",
        ),
        (
            _cusp_times_a_line(3, [0, 2], [0, 3], [1, 0]),
            ["quotient"],
            "a0c894bf70931b73c753052c095a1fc8805313ae77c04eef5c2573ab9276d40f",
        ),
        (
            _cusp_times_a_line(5, [2, 0], [5, 0], [0, 1]),
            ["localization"] * 2,
            "072a0e1e78d3d047455e4194e671b4cfb1adef45396cc4fb35b31a8dd9a854f5",
        ),
        (
            _cusp_times_a_line(5, [0, 2], [0, 5], [1, 0]),
            ["quotient"] * 2,
            "63ccfae972a55865a4ed8527f9b8ccba49bf0c50c34c0a8661b86890182443ba",
        ),
    ],
    ids=["localization", "quotient", "localization-twice", "quotient-twice"],
)
def test_the_regularize_step_lifts_each_sub_run_blowup(source, sources, digest):
    """The rank induction: each first blowup of a sub-run on the localized
    or the quotient data is lifted to the run's chart and re-certified."""
    L, nu = load_scene(source)
    trace = run_reduction(L, nu)
    assert trace.verdict == "Uniformized"
    assert [s.label for s in trace.steps] == ["regularize"] * len(sources)
    assert [s.report for s in trace.steps] == [
        {"lifted_from": src, "stabilization_N": 2} for src in sources
    ]
    text = trace_to_json(trace)
    assert trace_to_json(run_reduction(*load_scene(source))) == text
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert replay_trace(source, text) == []
    for s in trace.steps:
        assert verify_center_isos(s.blowup, nu).ok
        nu = transport_through_blowup(nu, s.blowup)


@pytest.mark.parametrize(
    "gen,weights,lifts",
    [
        ("z^2 - x*y", {"x": [3, 1], "y": [1, 3], "z": [2, 2], "w": [2, 2]}, 1),
        (
            "z^2 - x^3*y",
            {"x": [0, 2, 0], "z": [0, 3, 1], "y": [0, 0, 2], "w": [1, 0, 0]},
            2,
        ),
    ],
    ids=["rank-2", "rank-3"],
)
def test_a_sub_run_may_give_a_variable_of_its_support_a_negative_column(
    gen, weights, lifts
):
    """The quotient sub-run's support holds a chart variable whose column
    is negative there; its value is infinite, so certify does not refuse."""
    source = {
        "field": "Q", "vars": ["x", "y", "z", "w"], "ideal": [gen],
        "localize_at": ["x", "y", "z", "w"],
        "valuation": {
            "support": [gen], "rank": len(weights["x"]), "weights": weights,
        },
    }
    trace = run_reduction(*load_scene(source))
    assert (trace.verdict, trace.reason) == ("Uniformized", "")
    assert [s.label for s in trace.steps] == ["regularize"] * lifts
    assert replay_trace(source, trace_to_json(trace)) == []
