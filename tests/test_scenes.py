"""Scene loading, trace serialization, and replay."""

import hashlib
import importlib.util
import json
import re
import time
from pathlib import Path

import pytest
from conftest import SQRT2_SCENE

import lu.scenes
from lu import ideals
from lu.errors import DimensionMismatch, SceneError
from lu.fields import QQ
from lu.ideals import Limits
from lu.pipeline import run_reduction
from lu.scenes import (
    load_scene,
    replay_trace,
    scene_from_dict,
    trace_to_dict,
    trace_to_json,
    write_trace,
)
from lu.valuations import Value


def _cusp_dict():
    return {
        "field": "Q",
        "vars": ["x", "y"],
        "ideal": ["y^2 - x^3"],
        "localize_at": ["x", "y"],
        "valuation": {
            "support": ["y^2 - x^3"],
            "weights": {"x": [2], "y": [3]},
            "rank": 1,
        },
    }


def test_scene_from_dict_builds_the_instance():
    local, nu = scene_from_dict(_cusp_dict())
    assert local.ring.field is QQ
    assert local.ring.names == ("x", "y")
    assert local.defining.canonical_strings() == ["y^2 - x^3"]
    assert nu.rank == 1
    assert nu.value_of(local.ring.var("x")) == Value((2,))


def test_scene_weights_default_to_zero():
    d = _cusp_dict()
    d["ideal"] = []
    d["valuation"]["support"] = []
    del d["valuation"]["weights"]["x"]
    _, nu = scene_from_dict(d)
    assert nu.column("x") == (0,)
    assert nu.column("y") == (3,)


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.pop("vars"), "missing"),
        (lambda d: d.update(field="R"), "unknown field"),
        (lambda d: d.update(field={"Fp": "5"}), "integer prime"),
        (lambda d: d.update(vars=["x", "x"]), "distinct"),
        (lambda d: d["valuation"].update(rank=0), "positive integer"),
        pytest.param(lambda d: d["valuation"].update(rank=True), "positive integer",
                     id="bool-rank"),
        pytest.param(lambda d: d.update(field={"Fp": True}), "integer prime", id="bool-prime"),
        (lambda d: d["valuation"]["weights"].update(x=[2, 1]), "wants 1 integers"),
        pytest.param(lambda d: d["valuation"]["weights"].update(x=[True]), "wants 1 integers",
                     id="bool-weight"),
        (lambda d: d["valuation"]["weights"].update(z=[1]), "unknown variable"),
        (lambda d: d["valuation"].pop("support"), "missing"),
        (lambda d: d.update(ideal="y^2 - x^3"), "list of strings"),
    ],
)
def test_scene_validation_errors(mutate, needle):
    d = _cusp_dict()
    mutate(d)
    with pytest.raises(SceneError) as err:
        scene_from_dict(d)
    assert needle in str(err.value)


def test_a_rank_above_the_number_of_variables_is_refused():
    d = _cusp_dict()
    d["valuation"]["weights"] = {}
    d["valuation"]["rank"] = len(d["vars"]) + 1
    with pytest.raises(SceneError, match="rank 3 exceeds the 2 variables"):
        scene_from_dict(d)
    # refused before any weight row is built
    d["valuation"]["rank"] = 10**9
    start = time.perf_counter()
    with pytest.raises(SceneError, match="exceeds the 2 variables"):
        scene_from_dict(d)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("name", ["2", "x y", "y^2", "", "x-1"])
def test_a_variable_name_the_parser_cannot_read_back_is_refused(name):
    d = _cusp_dict()
    d["vars"] = ["x", "y", name]
    with pytest.raises(SceneError, match=re.escape(f"variable name {name!r}")):
        scene_from_dict(d)


def test_packaged_fixtures_load():
    for name in ("F1", "F2", "F3", "F4"):
        local, nu = load_scene(name)
        assert nu.rank >= 1
        assert local.center.contains_ideal(local.defining)
    with pytest.raises(SceneError):
        load_scene("F99")


def test_load_scene_from_a_file(tmp_path):
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(_cusp_dict()))
    local, _ = load_scene(str(path))
    assert local.defining.canonical_strings() == ["y^2 - x^3"]
    with pytest.raises(SceneError):
        load_scene(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SceneError):
        load_scene(str(bad))


def test_load_scene_takes_a_path_and_refuses_other_types(tmp_path):
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(_cusp_dict()))
    local, _ = load_scene(path)
    assert local.defining.canonical_strings() == ["y^2 - x^3"]
    with pytest.raises(SceneError, match="cannot read scene"):
        load_scene(tmp_path / "missing.json")
    for source in (3, None, b"F1", ["F1"]):
        with pytest.raises(SceneError, match="a scene is a path, a fixture name or a dict"):
            load_scene(source)


def test_trace_serialization_is_stable(tmp_path):
    local, nu = load_scene("F1")
    trace = run_reduction(local, nu)
    text = trace_to_json(trace)
    again = trace_to_json(run_reduction(*load_scene("F1")))
    assert text == again
    assert text.endswith("\n")

    path = tmp_path / "trace.json"
    write_trace(trace, str(path))
    assert path.read_text() == text

    data = json.loads(text)
    assert data["verdict"] == "Uniformized"
    assert [s["label"] for s in data["steps"]] == ["ass-prime"]
    assert data["final"]["ideal_gb"] == ["x", "t"]
    assert data["final"]["regular"] and data["final"]["normally_flat"]


def test_trace_dict_records_the_blowup_data():
    local, nu = load_scene("F2")
    trace = run_reduction(local, nu)
    d = trace_to_dict(trace)
    (step,) = d["steps"]
    assert step["b"] == "v"
    assert step["a_list"] == ["y"]
    assert step["chart_ideal_gb"] == ["y - v*t", "x - u*t", "t^2"]
    assert step["report"]["stabilization_N"] == 2
    assert d["final"]["N"] == 2


def test_replay_reproduces_every_fixture():
    for name in ("F1", "F2", "F3", "F4"):
        trace = run_reduction(*load_scene(name))
        assert replay_trace(name, trace_to_json(trace)) == [], name


def test_the_scene_over_the_square_root_of_two_replays_clean():
    """Its support is prime as a principal univariate irreducible and its
    center as a zero dimensional ideal with a primitive element."""
    trace = run_reduction(*load_scene(SQRT2_SCENE))
    assert trace.verdict == "Uniformized" and trace.steps == []
    assert replay_trace(SQRT2_SCENE, trace_to_json(trace)) == []


def test_replay_catches_tampering():
    trace = run_reduction(*load_scene("F2"))
    data = trace_to_dict(trace)
    data["steps"][0]["chart_ideal_gb"][0] = "y - u*t"
    problems = replay_trace("F2", json.dumps(data))
    assert problems and "step 0" in problems[0]

    data = trace_to_dict(trace)
    data["final"]["center_gb"] = ["y"]
    problems = replay_trace("F2", json.dumps(data))
    assert any(p.startswith("final") for p in problems)


BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN_SHA256 = BENCH / "golden" / "sha256.json"


@pytest.mark.parametrize("name", ["F1", "F2", "F3", "F4"])
def test_fixture_traces_match_the_golden_sha256(name):
    """Trace bytes are pinned by the benchmark's recorded hashes (read only)."""
    golden = json.loads(GOLDEN_SHA256.read_text())
    text = trace_to_json(run_reduction(*load_scene(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == golden[name]


def _bench_workloads():
    """bench/workloads.py, loaded from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_golden_trace_matches_its_sha256():
    """All recorded hashes: F1-F4 and every scene a benchmark seed can draw."""
    golden = json.loads(GOLDEN_SHA256.read_text())
    runs = {name: (name, 32) for name in ("F1", "F2", "F3", "F4")}
    runs.update((op["key"], (op["scene"], op["budget"]))
                for op in _bench_workloads().universe())
    assert sorted(runs) == sorted(golden)
    wrong = []
    for key, (source, budget) in runs.items():
        text = trace_to_json(run_reduction(*load_scene(source), budget=budget))
        if hashlib.sha256(text.encode()).hexdigest() != golden[key]:
            wrong.append(key)
    assert wrong == []


GOLDEN_TRACES = BENCH / "golden" / "traces"


def test_every_golden_trace_replays_clean():
    workloads = _bench_workloads()
    sources = {name: name for name in ("F1", "F2", "F3")}
    sources.update((op["key"], op["scene"])
                   for op in (workloads.cusp(a, b) for a, b in workloads.REPLAY_CUSPS))
    assert sorted(sources) == sorted(workloads.replay_universe())
    for key, source in sources.items():
        text = (GOLDEN_TRACES / (key.replace("/", "_") + ".json")).read_text()
        assert replay_trace(source, text) == [], key


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("final", "regular", False),
        ("final", "normally_flat", None),
        ("final", "regular", "true"),
        (None, "verdict", "Uniformised"),
        (None, "verdict", None),
    ],
)
def test_replay_catches_a_claim_the_trace_cannot_make(section, field, value):
    """F2's golden trace with a final fact or its verdict tampered with."""
    data = json.loads((GOLDEN_TRACES / "F2.json").read_text())
    assert data["verdict"] == "Uniformized"
    (data[section] if section else data)[field] = value
    problems = replay_trace("F2", json.dumps(data))
    assert len(problems) == 1 and field in problems[0]


@pytest.mark.parametrize(
    "text, what",
    [
        ("{}", "trace key 'steps' wants a list"),
        ("not json", "trace is not valid JSON"),
        ('{"steps": 3, "final": {}}', "trace key 'steps' wants a list"),
        ('{"steps": [{"b": 1}], "final": {}}', "trace step 0 key 'b' wants a string"),
        ("[]", "trace wants a JSON object"),
    ],
)
def test_a_malformed_trace_is_a_scene_error_naming_the_fault(text, what):
    with pytest.raises(SceneError) as err:
        replay_trace("F2", text)
    assert str(err.value).startswith(what)


def test_only_refusals_become_null_facts(monkeypatch):
    """An Unsupported trace writes a refused fact as null; any other error still shows."""
    trace = run_reduction(*scene_from_dict(dict(_cusp_dict(), field={"Fp": 7})))
    assert trace.verdict == "Unsupported"
    assert trace_to_dict(trace)["final"]["N"] is None

    def broken(L):
        raise DimensionMismatch("wrong arity")

    monkeypatch.setattr(lu.scenes, "nilpotent_length", broken)
    with pytest.raises(DimensionMismatch):
        trace_to_dict(trace)


def test_a_uniformized_trace_reuses_the_final_verification(monkeypatch):
    """The verdict certifies regular and normally flat; serializing derives neither."""
    trace = run_reduction(*load_scene("F1"))
    assert trace.verdict == "Uniformized"

    def recomputed(L):
        raise AssertionError("trace serialization re-derived a final fact")

    monkeypatch.setattr(lu.scenes, "is_regular_local", recomputed)
    monkeypatch.setattr(lu.scenes, "is_normally_flat", recomputed)
    final = json.loads(trace_to_json(trace))["final"]
    assert (final["regular"], final["normally_flat"]) == (True, True)


def test_a_trace_out_of_basis_budget_serializes_its_bases_as_null(monkeypatch):
    """The basis budget that ended the run also bars the final chart's
    ideal basis; it is written as null, like the facts, and replay counts
    the missing basis as one mismatch.  The center's basis, computed
    within the budget before it tripped, is written."""
    L, nu = load_scene("F2")
    # an empty memo, so the bases are computed under the small budget
    ideals._cached_basis.cache_clear()
    monkeypatch.setattr(ideals, "BUDGET", Limits(reductions=2))
    trace = run_reduction(L, nu)
    assert trace.verdict == "BudgetExceeded"
    text = trace_to_json(trace)
    assert json.loads(text)["final"] == {
        "ideal_gb": None, "center_gb": ["y", "x", "v", "u"], "regular": None,
        "normally_flat": None, "N": None,
    }
    monkeypatch.setattr(ideals, "BUDGET", Limits())
    assert replay_trace("F2", text) == [
        "final: chart ideal ['y^2', 'x*y', 'u*y - v*x', 'x^2'] != None",
    ]
