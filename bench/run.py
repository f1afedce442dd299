"""Time-to-verdict benchmark for `lu`.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client: run.py starts one pass at a time in a fresh
interpreter (worker.py) and starts the next only when it has ended, until
the run has lasted about --seconds.  Every output is checked against its
known answer.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics from spans with --trace 1.  Lines before it, starting
with `#`, are diagnostics: medians by phase, the tail, failures, host noise
and the top self-time spans.  Run it from the root of a checkout; it builds
nothing and reads `lu` from src/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Fresh interpreters that only set up, so every run has several setup_s
# samples even when its passes are few.
SETUP_PROBES = 5
# Every run exits within this many seconds, passes included.
HARD_LIMIT_S = 170

# name -> (unit, better); BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def _span_metrics():
    calls_total = ("calls", "total_s")
    spec = [
        ("ideals.buchberger", ("calls", "self_s")),
        ("ideals.s_polynomial", ("calls",)),
        ("ideals.normal_form", ("calls", "self_s")),
        ("ideals.Ideal.multiply", calls_total),
        ("ideals.Ideal.power", ("total_s",)),
        ("ideals.Ideal.intersect", ("total_s",)),
        ("ideals.Ideal.saturation", ("total_s",)),
        ("modules.module_groebner", ("calls", "self_s")),
        ("modules.relation_module", ("calls",)),
        ("modules.rank_mod_prime", ("calls", "self_s")),
    ]
    spec += [(f"decomp.{f}", calls_total)
             for f in ("is_prime", "radical", "associated_primes", "local_dimension")]
    spec += [(f"localring.{f}", calls_total)
             for f in ("is_regular_local", "is_normally_flat", "graded_piece",
                       "is_free_at", "nilpotent_length", "cotangent_presentation")]
    spec += [
        ("valuations.certify", calls_total),
        ("valuations.WeightValuation.value_of", calls_total),
        ("valuations.axiom_violations", ("total_s",)),
        ("blowup.local_blowup", ("total_s",)),
        ("blowup.transport_through_blowup", ("total_s",)),
        ("blowup.verify_center_isos", ("total_s",)),
        ("blowup.lift_from_localization", ("calls",)),
        ("blowup.lift_from_quotient", ("calls",)),
    ]
    spec += [(f"pipeline.{f}", ("total_s",))
             for f in ("run_reduction", "step1", "step2", "step3", "toric_uniformizer")]
    spec += [(f"scenes.{f}", ("total_s",))
             for f in ("load_scene", "trace_to_json", "replay_trace")]
    return [(f"{span}.{field}", span, field) for span, fields in spec for field in fields]


SPAN_METRICS = _span_metrics()

# name -> (unit, better), in print order.
PER_LAYER = {name: ("count" if field == "calls" else "s", "lower")
             for name, _, field in SPAN_METRICS}
PER_LAYER.update({
    "ideals.buchberger.repeat_ratio": ("ratio", "lower"),
    "ideals.resource_limit": ("count", "lower"),
    "pipeline.blowups": ("count", "lower"),
    "pipeline.verdict.Uniformized": ("count", "higher"),
    "pipeline.verdict.Unsupported": ("count", "lower"),
    "pipeline.verdict.BudgetExceeded": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
})


def host_loop_s():
    """Seconds for a fixed pure-Python loop: a host-noise diagnostic only."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        # Bytecode goes to bench/out, so every pass after the first imports
        # `lu` from compiled files, as an installed package does, whether or
        # not the environment turns bytecode writing off.
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spec(self, i, trace=False, setup_only=False, spans_out=None):
        ops, axiom_seed = workloads.pass_inputs(self.workload, self.seed, i)
        return {"workload": self.workload, "ops": ops, "trace": trace,
                "setup_only": setup_only, "axiom_seed": axiom_seed,
                "spans_out": spans_out}

    def run_pass(self, spec):
        """One fresh interpreter; returns (wall seconds, its JSON result)."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError("run exceeded its time limit")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
            capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=left,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
        return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def another_pass(start, seconds, walls):
    """True while a pass of median length, started now, would end at most
    half a pass after `seconds`; a run then lasts about `seconds` whatever
    one pass costs."""
    elapsed = time.perf_counter() - start
    return not walls or elapsed + statistics.median(walls) / 2 < seconds


def percentile_tail(values):
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond
    it, as (label, value); None when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    for q in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return f"p{q:g}", xs[min(n - 1, int(n * q / 100))]
    return None


def tally(results):
    """(attempted, failed, defects, problems) over operation results."""
    attempted = failed = defects = 0
    problems = []
    for r in results:
        attempted += 1
        if r["problems"] or r["defect"]:
            failed += 1
        defects += r["defect"]
        problems += [f"{r['key']}: {p}" for p in r["problems"]]
    return attempted, failed, defects, problems


def median_of(results, field):
    xs = [r[field] for r in results if r.get(field) is not None]
    return statistics.median(xs) if xs else None


def end_to_end(runner, seconds):
    setups = [runner.run_pass(runner.spec(0, setup_only=True))[1]["setup_s"]
              for _ in range(SETUP_PROBES)]
    results, walls, rss = [], [], []
    start = time.perf_counter()
    i = 0
    while another_pass(start, seconds, walls):
        wall, out = runner.run_pass(runner.spec(i))
        walls.append(wall)
        setups.append(out["setup_s"])
        rss.append(out["rss_kb"] / 1024)
        results += out["ops"]
        i += 1
    scene_times = [r["scene_s"] for r in results
                   if not r["problems"] and r["scene_s"] is not None]
    if not scene_times:
        raise RuntimeError("no operation gave a correct answer")
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(results) / sum(walls),
        "peak_rss_mb": statistics.median(rss),
    }
    diag = {"passes": i, "measured_s": round(sum(walls), 3), "setup_samples": len(setups),
            "scene_s.p50": round(statistics.median(scene_times), 6)}
    for field in ("verdict_s", "trace_s", "check_s"):
        m = median_of(results, field)
        if m is not None:
            diag[f"{field}.p50"] = round(m, 6)
    tail = percentile_tail(scene_times)
    diag["scene_s.tail"] = (f"{tail[0]}={tail[1]:.6f} (n={len(scene_times)})" if tail
                            else f"n/a (n={len(scene_times)}, fewer than 20 samples)")
    return results, {k: (v, END_TO_END[k][0]) for k, v in metrics.items()}, diag


def per_layer(runner, seconds):
    """Pairs of untraced and traced passes, all on the inputs of pass 0, so
    the counts are exact counts of one pass."""
    results, traced, pair_walls, plain_s, traced_s = [], [], [], 0.0, 0.0
    start = time.perf_counter()
    i = 0
    while another_pass(start, seconds, pair_walls):
        plain_wall, plain = runner.run_pass(runner.spec(0))
        spans_out = OUT / f"spans-{runner.workload}-seed{runner.seed}-pass{i}.jsonl"
        traced_wall, out = runner.run_pass(runner.spec(0, trace=True, spans_out=str(spans_out)))
        pair_walls.append(plain_wall + traced_wall)
        plain_s += plain["pass_s"]
        traced_s += out["pass_s"]
        results += plain["ops"] + out["ops"]
        traced.append(out)
        i += 1
    n = len(traced)
    layers = [t["layers"] for t in traced]

    def span_field(span, field):
        return sum(l.get(span, {}).get(field, 0) for l in layers) / n

    metrics = {name: span_field(span, field) for name, span, field in SPAN_METRICS}
    gb_calls = sum(l.get("ideals.buchberger", {}).get("calls", 0) for l in layers)
    metrics["ideals.buchberger.repeat_ratio"] = (
        sum(t["gb_repeats"] for t in traced) / gb_calls if gb_calls else 0.0)
    metrics["ideals.resource_limit"] = sum(
        l.get(s, {}).get("errors", {}).get("ResourceLimit", 0)
        for l in layers for s in ("ideals.buchberger", "modules.module_groebner")) / n
    traced_ops = [r for t in traced for r in t["ops"]]
    metrics["pipeline.blowups"] = sum(r.get("blowups", 0) for r in traced_ops) / n
    for kind in ("Uniformized", "Unsupported", "BudgetExceeded"):
        metrics[f"pipeline.verdict.{kind}"] = sum(
            r.get("verdict") == kind for r in traced_ops) / n
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    selfs = {}
    for l in layers:
        for span, row in l.items():
            selfs[span] = selfs.get(span, 0.0) + row["self_s"]
    total = sum(selfs.values())
    top = sorted(selfs.items(), key=lambda kv: -kv[1])[:6]
    diag = {"passes": n, "top_self_time": ", ".join(
        f"{span} {100 * s / total:.0f}%" for span, s in top)}
    return results, {k: (metrics[k], PER_LAYER[k][0]) for k in PER_LAYER}, diag


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "lu" / "__init__.py").is_file():
        print(f"no lu package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # A terminated run stops its pass too: SystemExit unwinds through
    # subprocess.run, which kills the worker and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(args.workload, args.seed, time.monotonic() + HARD_LIMIT_S)
    noise_start = host_loop_s()
    try:
        if args.trace:
            results, metrics, diag = per_layer(runner, args.seconds)
        else:
            results, metrics, diag = end_to_end(runner, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    noise_end = host_loop_s()
    attempted, failed, defects, problems = tally(results)
    for line in problems[:20]:
        print(f"# wrong: {line}")
    diag["failed_ratio"] = f"{failed}/{attempted}"
    diag["known_defect_unsupported_trace"] = defects
    diag["host_loop_s"] = f"start={noise_start:.4f} end={noise_end:.4f}"
    for k, v in diag.items():
        print(f"# {k}: {v}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
