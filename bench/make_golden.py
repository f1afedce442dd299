"""Record the golden trace bytes the benchmark checks against.

Runs every scene any seed can draw for the run workloads and the fixtures
F1-F4, and writes golden/sha256.json (scene key -> sha256 of the trace
bytes) and golden/traces/ (the traces replay-check reads).  The hashes are a
regression reference taken from the program as it stands, not an
independent answer: a scene whose verdict or step labels differ from the
known answer in workloads.py is refused, not recorded.

Usage: PYTHONPATH=src python3 bench/make_golden.py
"""

import json
import sys

import lu
import workloads
from worker import GOLDEN, golden_trace_path, sha256

FIXTURE_EXPECT = {
    "F1": ["ass-prime"],
    "F2": ["normal-flat"],
    "F3": ["trim"],
    "F4": [],
}


def trace_text(scene, budget, verdict, labels):
    trace = lu.run_reduction(*lu.load_scene(scene), budget=budget)
    got = [s.label for s in trace.steps]
    if trace.verdict != verdict or got != labels:
        raise SystemExit(f"{scene}: {trace.verdict} {got} != {verdict} {labels}")
    return lu.trace_to_json(trace)


def main():
    texts = {}
    for name, labels in FIXTURE_EXPECT.items():
        texts[name] = trace_text(name, 32, workloads.UNIFORMIZED, labels)
    for op in workloads.universe():
        e = op["expect"]
        texts[op["key"]] = trace_text(op["scene"], op["budget"], e["verdict"], e["labels"])
        print(op["key"], file=sys.stderr, flush=True)
    (GOLDEN / "traces").mkdir(parents=True, exist_ok=True)
    for key in workloads.replay_universe():
        golden_trace_path(key).write_text(texts[key])
    with open(GOLDEN / "sha256.json", "w") as fh:
        json.dump({k: sha256(t) for k, t in sorted(texts.items())}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
