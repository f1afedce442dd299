"""The benchmark's own tests.

Run from the repository root: python3 -m pytest bench/test_bench.py
They start traced passes and take about a minute on two cores.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _traced_pass(workload, seed, hash_seed):
    ops, axiom_seed = workloads.pass_inputs(workload, seed, 0)
    spec = {"workload": workload, "ops": ops, "trace": True, "setup_only": False,
            "axiom_seed": axiom_seed, "spans_out": None}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(spec), capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=170, check=True)
    return json.loads(proc.stdout)


def _deterministic_part(out):
    calls = {span: row["calls"] for span, row in out["layers"].items()}
    ops = [(r["key"], r.get("verdict"), r.get("blowups"), r.get("sha256"), r["problems"])
           for r in out["ops"]]
    return calls, out["gb_repeats"], ops


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_and_trace_bytes_do_not_depend_on_the_hash_seed(workload):
    first = _traced_pass(workload, 1, 0)
    second = _traced_pass(workload, 1, 3)
    assert _deterministic_part(first) == _deterministic_part(second)
    assert all(not r["problems"] for r in first["ops"])


def test_same_seed_same_inputs_and_fixed_quotas():
    for workload in workloads.WORKLOADS:
        for i in range(3):
            assert (workloads.pass_inputs(workload, 5, i)
                    == workloads.pass_inputs(workload, 5, i))
    ops, _ = workloads.pass_inputs("scene-mix", 9, 0)
    assert len(ops) == sum(workloads.MIX_QUOTAS.values())
    assert ops != workloads.pass_inputs("scene-mix", 10, 0)[0]
    assert ops != workloads.pass_inputs("scene-mix", 9, 1)[0]


def test_euclid_steps_match_the_acceptance_cusp():
    # criterion 04: y^2 - x^3 takes one to three blowups; the descent takes one
    assert workloads.euclid_steps(2, 3) == 1
    assert workloads.euclid_steps(2, 9) == 4
    assert workloads.euclid_steps(5, 8) == 3


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "scene-mix",
                           "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
