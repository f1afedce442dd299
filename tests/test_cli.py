"""Exit codes and outputs of the command line front end."""

import json

import pytest
from conftest import NODE_SCENE, SQRT2_SCENE

import lu.cli
import lu.pipeline
import lu.scenes
from lu import ideals
from lu.cli import main
from lu.errors import LuError
from lu.ideals import Limits


def _cusp_file(tmp_path, field="Q", ideal="y^2 - x^3"):
    path = tmp_path / "cusp.json"
    path.write_text(
        json.dumps(
            {
                "field": field,
                "vars": ["x", "y"],
                "ideal": [ideal],
                "localize_at": ["x", "y"],
                "valuation": {
                    "support": [ideal],
                    "weights": {"x": [2], "y": [3]},
                    "rank": 1,
                },
            }
        )
    )
    return str(path)


def test_check_certifies_fixtures(capsys):
    assert main(["check", "F2"]) == 0
    out = capsys.readouterr().out
    assert "class: variables" in out


def test_check_reports_the_nilpotent_length(capsys):
    assert main(["check", "F2"]) == 0
    assert "\nnormally flat: False (N=2)\n" in capsys.readouterr().out


def test_check_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_uniformizes_and_writes_a_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main(["run", "F1", "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "verdict: Uniformized" in out
    data = json.loads(trace_path.read_text())
    assert data["verdict"] == "Uniformized"
    assert [s["label"] for s in data["steps"]] == ["ass-prime"]


def test_deeply_nested_ideal_exits_1(tmp_path, capsys):
    scene = _cusp_file(tmp_path, ideal="(" * 2000 + "y^2 - x^3" + ")" * 2000)
    assert main(["check", scene]) == 1
    assert "nested deeper" in capsys.readouterr().err


def test_deeply_nested_json_exits_1(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["check", str(deep)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [(["run", "F1", "--budget", "-5"], "--budget"),
     (["check", "F1", "--samples", "-3"], "--samples")],
)
def test_a_negative_count_flag_exits_1_naming_the_flag(argv, flag, capsys):
    assert main(argv) == 1
    out = capsys.readouterr()
    assert f"error: {flag} must be nonnegative" in out.err
    assert out.out == ""


def test_run_exit_codes(tmp_path, capsys):
    assert main(["run", _cusp_file(tmp_path)]) == 0
    assert main(["run", "F2", "--budget", "0"]) == 3
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "field": "Q",
                "vars": ["x", "y"],
                "ideal": ["x - y^2 - y^3"],
                "localize_at": ["x", "y"],
                "valuation": {
                    "support": ["x - y^2 - y^3"],
                    "weights": {"x": [2], "y": [1]},
                    "rank": 1,
                },
            }
        )
    )
    assert main(["run", str(bad)]) == 2
    out = capsys.readouterr().out
    assert "verdict: Unsupported" in out


@pytest.mark.parametrize("command", ["check", "run"])
def test_a_resource_limit_exits_3(monkeypatch, capsys, command):
    # an empty memo, so the bases are computed under the small budget
    ideals._cached_basis.cache_clear()
    monkeypatch.setattr(ideals, "BUDGET", Limits(reductions=2))
    assert main([command, "F2"]) == 3
    out, err = capsys.readouterr()
    assert "exceeded 2 reductions" in out + err
    assert "unsupported" not in (out + err).lower()


def test_run_prints_its_verdict_when_the_final_basis_is_over_budget(
    monkeypatch, capsys
):
    def load_then_limit(source):
        # the scene loads in full; the run and the final chart's basis are
        # then computed under the small budget
        loaded = lu.scenes.load_scene(source)
        ideals._cached_basis.cache_clear()
        monkeypatch.setattr(ideals, "BUDGET", Limits(reductions=2))
        return loaded

    monkeypatch.setattr(lu.cli, "load_scene", load_then_limit)
    assert main(["run", "F2"]) == 3
    out = capsys.readouterr().out
    assert "verdict: BudgetExceeded (basis computation exceeded 2 reductions)" in out


def test_a_run_out_of_basis_budget_still_writes_its_trace(tmp_path, monkeypatch, capsys):
    def load_then_limit(source):
        loaded = lu.scenes.load_scene(source)
        ideals._cached_basis.cache_clear()
        monkeypatch.setattr(ideals, "BUDGET", Limits(reductions=2))
        return loaded

    monkeypatch.setattr(lu.cli, "load_scene", load_then_limit)
    trace_path = tmp_path / "trace.json"
    assert main(["run", "F2", "--trace", str(trace_path)]) == 3
    out, err = capsys.readouterr()
    assert "verdict: BudgetExceeded (basis computation exceeded 2 reductions)" in out
    assert err == "budget exceeded: basis computation exceeded 2 reductions\n"
    data = json.loads(trace_path.read_text())
    assert data["verdict"] == "BudgetExceeded"
    assert (data["final"]["ideal_gb"], data["final"]["center_gb"]) == (None, ["y", "x", "v", "u"])


def test_a_step_out_of_blowups_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(lu.pipeline, "BLOWUP_POOL", 0)
    assert main(["step1", "F1"]) == 3
    err = capsys.readouterr().err
    assert err == "budget exceeded: more than 0 blowups\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "F1", "--bogus"], "unrecognized arguments: --bogus"),
        (["run", "F1", "--budget", "x"], "argument --budget: invalid int value: 'x'"),
        ([], "the following arguments are required: command"),
        (["run", "F1", "--oracle", "toric"], "unrecognized arguments: --oracle toric"),
        (["check", "F1", "--seed", "xyz"], "argument --seed: invalid hexadecimal value: 'xyz'"),
    ],
)
def test_a_usage_error_exits_1_with_its_message(argv, message, capsys):
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: lu") and message in out.err
    assert out.out == ""


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as done:
        main(["run", "-h"])
    assert done.value.code == 0
    assert "--budget" in capsys.readouterr().out


def test_blowup_and_lemma_check(capsys):
    assert main(["blowup", "F3", "--b", "u", "--a", "x"]) == 0
    out = capsys.readouterr().out
    assert "y - u*t^2" in out
    assert main(["verify-lemmas", "F3", "--b", "u", "--a", "x"]) == 0
    assert "ok" in capsys.readouterr().out


def test_blowup_refusals_exit_nonzero(capsys):
    assert main(["blowup", "F1", "--b", "x", "--a", "y"]) == 1
    assert "error:" in capsys.readouterr().err


def test_step_commands(capsys):
    assert main(["step1", "F1"]) == 0
    capsys.readouterr()
    # splitting a rank one instance is a refusal, not a crash
    assert main(["step2", "F1"]) == 2
    assert "unsupported:" in capsys.readouterr().err
    assert main(["step3", "F2"]) == 0
    out = capsys.readouterr().out
    assert "normal-flat" in out


def test_unsupported_run_writes_a_trace_with_null_facts(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    scene = _cusp_file(tmp_path, field={"Fp": 7})
    assert main(["run", scene, "--trace", str(trace_path)]) == 2
    assert "verdict: Unsupported" in capsys.readouterr().out
    data = json.loads(trace_path.read_text())
    assert data["verdict"] == "Unsupported"
    assert data["final"]["ideal_gb"] == ["y^2 + 6*x^3"]
    assert (data["final"]["regular"], data["final"]["normally_flat"], data["final"]["N"]) == (
        None, None, None)


def test_failed_serialization_leaves_no_file(tmp_path, monkeypatch, capsys):
    def refuse(trace):
        raise LuError("cannot serialize")

    monkeypatch.setattr(lu.scenes, "trace_to_json", refuse)
    trace_path = tmp_path / "trace.json"
    assert main(["run", "F4", "--trace", str(trace_path)]) == 1
    assert "cannot serialize" in capsys.readouterr().err
    assert not trace_path.exists()


def test_run_refuses_a_coefficient_with_no_value_mod_p(tmp_path, capsys):
    scene = _cusp_file(tmp_path, field={"Fp": 3}, ideal="y^2 - 1/3*x^3")
    assert main(["run", scene]) == 1
    err = capsys.readouterr().err
    assert "1/3" in err and "GF(3)" in err


def test_the_node_splits_at_its_minimal_primes(tmp_path, capsys):
    path = tmp_path / "node.json"
    path.write_text(json.dumps(NODE_SCENE))
    assert main(["check", str(path)]) == 0
    assert "reduced regular: False (embdim=2, dim=1)" in capsys.readouterr().out
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ass-prime: b=y + x a=[] " in out
    assert "verdict: Uniformized" in out and "ideal: ['y - x']" in out
    cubic = tmp_path / "cubic.json"
    cubic.write_text(json.dumps(dict(NODE_SCENE, ideal=["x^3 - y^3"])))
    assert main(["check", str(cubic)]) == 2
    assert "radical certificate classes exhausted" in capsys.readouterr().err


def test_the_complete_intersection_drops_its_unassociated_candidate(tmp_path, capsys):
    """(x^2, x*y + x*z + y*z) has the associated primes (x, y) and (x, z):
    the split's primary leaf at (x, y, z) has no colon witness, so step 1
    counts two primes, blows one up, and the trace replays."""
    path = tmp_path / "ci.json"
    path.write_text(json.dumps({
        "field": "Q", "vars": ["x", "y", "z"], "ideal": ["x^2", "x*y + x*z + y*z"],
        "localize_at": ["x", "y", "z"],
        "valuation": {"support": ["x", "y"], "rank": 1, "weights": {"z": [1]}},
    }))
    trace = tmp_path / "ci-trace.json"
    assert main(["run", str(path), "--trace", str(trace)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "ass-prime: b=z a=[x] ass_after=1 ass_before=2 stabilization_N=2" in out
    assert "verdict: Uniformized" in out
    assert lu.scenes.replay_trace(str(path), trace.read_text()) == []


def test_check_certifies_the_scene_over_the_square_root_of_two(tmp_path, capsys):
    path = tmp_path / "sqrt2.json"
    path.write_text(json.dumps(SQRT2_SCENE))
    assert main(["check", str(path)]) == 0
    assert "class: weight-homogeneous" in capsys.readouterr().out


def test_the_two_points_are_uniformized_with_no_blowup(tmp_path, capsys):
    """Q[x]/(x^2 - x) at (x): its radical is certified zero dimensionally,
    though x is a zero divisor on x^2 - x."""
    path = tmp_path / "two-points.json"
    path.write_text(json.dumps({
        "field": "Q", "vars": ["x"], "ideal": ["x^2 - x"], "localize_at": ["x"],
        "valuation": {"support": ["x"], "weights": {"x": [1]}, "rank": 1},
    }))
    assert main(["check", str(path)]) == 0
    assert "\nreduced regular: True (embdim=0, dim=0)\n" in capsys.readouterr().out
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "verdict: Uniformized", "ideal: ['x^2 - x']", "center: ['x']"
    ]


def test_a_support_with_zero_divisors_exits_1_with_its_witness(tmp_path, capsys):
    """The support (x, y^2) of the cusp is refuted by the monomial witness,
    printed as the localization center's is."""
    path = tmp_path / "support.json"
    path.write_text(json.dumps({
        "field": "Q", "vars": ["x", "y"], "ideal": ["y^2 - x^3"],
        "localize_at": ["x", "y"],
        "valuation": {"support": ["x"], "weights": {"y": [1]}, "rank": 1},
    }))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: weight graded ring has zero divisors: witness (y)*(y)\n"
    )


@pytest.mark.parametrize("center, witness", [("x^2 - 1", "(x - 1)*(x + 1)"),
                                             ("x^2 - 4", "(x + 2)*(x - 2)")])
def test_a_center_that_is_not_prime_exits_1_with_its_witness(tmp_path, capsys, center,
                                                             witness):
    """A lattice defect and a zero dimensional factor witness."""
    path = tmp_path / "center.json"
    path.write_text(json.dumps({
        "field": "Q", "vars": ["x", "y"], "ideal": [], "localize_at": ["y", center],
        "valuation": {"support": [], "weights": {"y": [1]}, "rank": 1},
    }))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: localization center is not prime: witness {witness}\n"
    )
