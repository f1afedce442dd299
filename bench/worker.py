"""One benchmark pass in a fresh interpreter.

run.py starts this script once per pass, so the module-global memos in
`lu.decomp` start empty, as they do for a `lu run` user.  It reads the pass
spec as JSON on stdin, imports `lu` from the checkout's src/ (PYTHONPATH),
builds the pass's scenes and golden data, runs every operation in order and
checks each output against its known answer.  It prints one JSON object on
stdout.

Usage: python3 bench/worker.py < spec.json
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import AXIOM_SAMPLES

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
clock = time.perf_counter

# trace_to_json on an Unsupported trace re-derives the regularity of the
# final chart, and the radical certificate refuses there; `lu run --trace`
# then exits 2 and leaves an empty trace file.  Each such serialization is
# counted as a failed operation; it is not a wrong answer.
KNOWN_DEFECT = "radical certificate classes exhausted"


def golden_trace_path(key):
    return GOLDEN / "traces" / (key.replace("/", "_") + ".json")


def load_golden():
    with open(GOLDEN / "sha256.json") as fh:
        return json.load(fh)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_op(lu, op, L, nu, golden):
    """`lu run SCENE --trace`: the verdict, then the trace bytes."""
    out = {"key": op["key"], "verdict_s": None, "trace_s": None, "scene_s": None,
           "problems": [], "defect": False, "verdict": None, "blowups": 0,
           "sha256": None}
    expect = op["expect"]
    t0 = clock()
    try:
        trace = lu.run_reduction(L, nu, budget=op["budget"])
    except Exception as e:  # a failed operation, reported, never a crash
        out["problems"].append(f"run_reduction raised {type(e).__name__}: {e}")
        return out
    t1 = clock()
    out["verdict_s"] = t1 - t0
    out["verdict"] = trace.verdict
    out["blowups"] = len(trace.steps)
    labels = [s.label for s in trace.steps]
    if trace.verdict != expect["verdict"]:
        out["problems"].append(f"verdict {trace.verdict} ({trace.reason}) != {expect['verdict']}")
    if labels != expect["labels"]:
        out["problems"].append(f"labels {labels} != {expect['labels']}")
    if expect["reason"] not in trace.reason or (not expect["reason"] and trace.reason):
        out["problems"].append(f"reason {trace.reason!r} lacks {expect['reason']!r}")
    try:
        text = lu.trace_to_json(trace)
    except lu.UnsupportedInstance as e:
        t2 = clock()
        out["trace_s"], out["scene_s"] = t2 - t1, t2 - t0
        if trace.verdict == "Unsupported" and KNOWN_DEFECT in str(e):
            out["defect"] = True
        else:
            out["problems"].append(f"trace_to_json raised: {e}")
        return out
    except Exception as e:
        out["problems"].append(f"trace_to_json raised {type(e).__name__}: {e}")
        return out
    t2 = clock()
    out["trace_s"], out["scene_s"] = t2 - t1, t2 - t0
    out["sha256"] = sha256(text)
    want = golden.get(op["key"])
    if want is not None:
        if out["sha256"] != want:
            out["problems"].append("trace bytes differ from the golden sha256")
    elif json.loads(text)["verdict"] != "Unsupported":
        out["problems"].append("no golden sha256 for this scene")
    return out


def check_op(lu, op, text, axiom_seed):
    """`lu check` plus `lu verify-lemmas` on every recorded blowup."""
    out = {"key": op["key"], "check_s": None, "scene_s": None, "problems": [],
           "defect": False}
    t0 = clock()
    try:
        mismatches = lu.replay_trace(op["scene"], text)
        L, nu = lu.load_scene(op["scene"])
        cls = lu.certify(nu, L.defining, L.center)
        bad = lu.valuations.axiom_violations(nu, count=AXIOM_SAMPLES, seed=axiom_seed)
        steps = json.loads(text)["steps"]
        failed_isos = []
        for s in steps:
            B = lu.local_blowup(L, lu.parse_poly(L.ring, s["b"]),
                                [lu.parse_poly(L.ring, a) for a in s["a_list"]], nu=nu)
            rep = lu.verify_center_isos(B, nu)
            failed_isos += rep.failures
            nu = lu.transport_through_blowup(nu, B)
            lu.certify(nu, B.chart.defining, B.chart.center)
            L = B.chart
    except Exception as e:  # a failed operation, reported, never a crash
        out["problems"].append(f"check raised {type(e).__name__}: {e}")
        return out
    out["check_s"] = out["scene_s"] = clock() - t0
    out["problems"] += [f"replay: {m}" for m in mismatches]
    if cls != op["class"]:
        out["problems"].append(f"class {cls} != {op['class']}")
    if bad:
        out["problems"].append(f"{len(bad)} axiom violations")
    if len(steps) != op["steps"]:
        out["problems"].append(f"{len(steps)} recorded blowups != {op['steps']}")
    out["problems"] += [f"center iso: {f}" for f in failed_isos]
    return out


def main():
    spec = json.loads(sys.stdin.read())
    t0 = clock()
    import lu
    import lu.valuations

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    golden = load_golden()
    replay = spec["workload"] == "replay-check"
    prepared = []
    for op in spec["ops"]:
        if replay:
            text = golden_trace_path(op["key"]).read_text()
            if sha256(text) != golden[op["key"]]:
                raise SystemExit(f"golden trace {op['key']} does not match its sha256")
            prepared.append(text)
        else:
            prepared.append(lu.load_scene(op["scene"]))
    setup_s = clock() - t0
    result = {"setup_s": setup_s}
    if not spec["setup_only"]:
        if replay:
            ops = [check_op(lu, op, text, spec["axiom_seed"])
                   for op, text in zip(spec["ops"], prepared)]
        else:
            ops = [run_op(lu, op, L, nu, golden)
                   for op, (L, nu) in zip(spec["ops"], prepared)]
        result["pass_s"] = clock() - t0
        result["ops"] = ops
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["gb_repeats"] = tracer.gb_repeats
        if spec.get("spans_out"):
            tracer.write(spec["spans_out"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
