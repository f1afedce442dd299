"""Command line front end.

Every command takes a scene: a JSON file path or a packaged fixture name
(F1..F4).  Exit codes: 0 success or Uniformized, 1 input or certification
error (a usage error included), 2 unsupported instance or Unsupported
verdict, 3 budget exceeded (a BudgetExceeded verdict, or a ResourceLimit: a
basis computation out of its budget, or a step command out of blowups in
the pool).
"""

import argparse
import sys

from . import pipeline
from .errors import LuError, ResourceLimit, UnsupportedInstance
from .localring import is_normally_flat, is_regular_local
from .pipeline import BUDGET_EXCEEDED, UNIFORMIZED, Run, run_reduction, step1, step2, step3
from .parse import parse_poly
from .scenes import load_scene, write_trace
from .blowup import local_blowup, transport_through_blowup, verify_center_isos
from .valuations import axiom_violations, certify


def _print_state(L):
    print(f"ideal: {L.defining.canonical_strings()}")
    print(f"center: {L.center.canonical_strings()}")


def _print_steps(steps):
    for s in steps:
        a = ", ".join(a.text() for a in s.blowup.a_list)
        extra = "".join(f" {k}={v}" for k, v in sorted(s.report.items()))
        print(f"{s.label}: b={s.blowup.b.text()} a=[{a}]{extra}")


def _nonnegative(value, flag):
    # checked after parsing, so the message names the flag and the rule
    if value < 0:
        raise LuError(f"{flag} must be nonnegative, got {value}")
    return value


def hexadecimal(text):
    """`--seed`'s type; argparse names a bad value's type by this function's name."""
    return int(text, 16)


def _cmd_check(args):
    samples = _nonnegative(args.samples, "--samples")
    L, nu = load_scene(args.scene)
    cls = certify(nu, L.defining, L.center)
    print(f"class: {cls}")
    print(f"rank: {nu.rank}")
    print(f"support: {nu.support.canonical_strings()}")
    _print_state(L)
    reg = is_regular_local(L.reduced())
    flat = is_normally_flat(L)
    print(
        f"reduced regular: {reg.regular} "
        f"(embdim={reg.embedding_dimension}, dim={reg.dimension})"
    )
    print(f"normally flat: {flat.flat} (N={flat.length})")
    bad = axiom_violations(nu, count=samples, seed=args.seed)
    print(f"axiom samples: {len(bad)} violations in {samples}")
    return 0 if not bad else 1


def _blowup_args(args, L, nu):
    b = parse_poly(L.ring, args.b)
    a_list = [parse_poly(L.ring, a) for a in args.a or []]
    return local_blowup(L, b, a_list, nu=nu)


def _cmd_blowup(args):
    L, nu = load_scene(args.scene)
    certify(nu, L.defining, L.center)
    B = _blowup_args(args, L, nu)
    print(f"chart variables: {list(B.t_names)}")
    print(f"stabilization N: {B.stabilization_N}")
    _print_state(B.chart)
    rep = verify_center_isos(B, nu)
    print(f"center isomorphisms: {'ok' if rep.ok else rep.failures}")
    return 0 if rep.ok else 1


def _cmd_verify_lemmas(args):
    L, nu = load_scene(args.scene)
    certify(nu, L.defining, L.center)
    B = _blowup_args(args, L, nu)
    rep = verify_center_isos(B, nu)
    for line in rep.failures:
        print(f"failed: {line}")
    nu2 = transport_through_blowup(nu, B)
    cls = certify(nu2, B.chart.defining, B.chart.center)
    print(f"center isomorphisms: {'ok' if rep.ok else 'failed'}")
    print(f"transported certificate: {cls}")
    return 0 if rep.ok else 1


def _run_step(args, fn):
    L, nu = load_scene(args.scene)
    certify(nu, L.defining, L.center)
    run = Run(L, nu, pipeline.BLOWUP_POOL)
    fn(run)
    _print_steps(run.steps)
    print(f"blowups: {len(run.steps)}")
    _print_state(run.L)
    return 0


def _cmd_run(args):
    _nonnegative(args.budget, "--budget")
    L, nu = load_scene(args.scene)
    trace = run_reduction(L, nu, budget=args.budget)
    _print_steps(trace.steps)
    print(f"verdict: {trace.verdict}" + (f" ({trace.reason})" if trace.reason else ""))
    if args.trace:
        # before the state, whose bases may be out of the budget that ended the run
        write_trace(trace, args.trace)
    _print_state(trace.final_ring)
    if args.trace:
        print(f"trace written: {args.trace}")
    if trace.verdict == UNIFORMIZED:
        return 0
    if trace.verdict == BUDGET_EXCEEDED:
        return 3
    return 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit 2, which means "unsupported" here
        raise LuError(f"{self.prog}: {message}")


def _parser():
    p = _Parser(prog="lu", description="instance verification for valuation reductions")
    sub = p.add_subparsers(dest="command", required=True)

    def scene_cmd(name, fn, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("scene", help="scene JSON path or fixture name (F1..F4)")
        sp.set_defaults(fn=fn)
        return sp

    sp = scene_cmd("check", _cmd_check, "certify a scene's valuation data")
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--seed", type=hexadecimal, default=0xC0FFEE,
                    help="hex seed for axiom sampling")

    for name, fn, help in (
        ("blowup", _cmd_blowup, "perform one local blowing up"),
        ("verify-lemmas", _cmd_verify_lemmas, "check the chart isomorphisms"),
    ):
        sp = scene_cmd(name, fn, help)
        sp.add_argument("--b", required=True, help="element divided out")
        sp.add_argument("--a", action="append", default=[],
                        help="numerator (repeatable)")

    scene_cmd("step1", lambda a: _run_step(a, step1),
              "separate associated primes")
    scene_cmd("step2", lambda a: _run_step(a, step2),
              "make the reduced ring regular")
    scene_cmd("step3", lambda a: _run_step(a, step3),
              "make the graded pieces free")

    sp = scene_cmd("run", _cmd_run, "run the full reduction")
    sp.add_argument("--budget", type=int, default=pipeline.BLOWUP_POOL)
    sp.add_argument("--trace", help="write the trace JSON here")

    return p


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except UnsupportedInstance as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return 2
    except ResourceLimit as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except (LuError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
