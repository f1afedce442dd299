"""Seeded inputs for the benchmark's three workloads, with their known answers.

Every scene is built from a family whose verdict and step labels are known by
construction or from tests/test_acceptance.py; nothing here runs `lu`.  The
seed picks parameters inside each family, the primes, the variable names and
the order of the scenes; the number of scenes each family contributes is
fixed, so two seeds give different inputs of about the same cost.

The golden sha256 of each scene's trace bytes (golden/sha256.json) is the
other reference.  It was recorded from the program at the commit that added
the benchmark (make_golden.py) and guards trace-byte stability; it is a
regression reference, not an independent answer.
"""

import random

UNIFORMIZED = "Uniformized"
UNSUPPORTED = "Unsupported"
BUDGET_EXCEEDED = "BudgetExceeded"

# The refusal over a prime field comes from the support primality check, the
# first certificate run_reduction asks for.
CHAR0_REASON = "lattice primality needs characteristic zero"

# Primes above every exponent the families use, so reduction mod p keeps each
# presentation's shape.
PRIMES = (11, 13, 17, 101)

# F2 renamed: an isomorphic presentation must get the same verdict and labels.
F2_NAMES = (("u", "v", "x", "y"), ("a", "b", "c", "d"), ("p", "q", "r", "s"),
            ("u1", "v1", "x1", "y1"))

# Cusp y^a - x^b with gcd(a, b) = 1, grouped by the number of oracle blowups.
# Within a group the cost is alike (0.25-0.35 s, 0.9-1.0 s, 2.5-2.7 s each,
# trace included, on a 2-core x86 machine), so the seed moves the inputs but
# not the pass's cost; (4, 7) at 0.7 s and (3, 8) at 2.9 s are left out for
# that reason.  Four-blowup cusps such as (2, 9) take 8 s and are left out:
# one of them would decide the cost of a whole pass.
CUSPS_BY_STEPS = {
    1: ((2, 3), (3, 4), (4, 5)),
    2: ((2, 5), (3, 5)),
    3: ((5, 7), (5, 8)),
}

# replay-check re-blows-up every recorded chart; one-blowup cusps keep it a
# workload that reads existing bases more than it builds new ones.
REPLAY_CUSPS = CUSPS_BY_STEPS[1]

# Valuation samples per scene in replay-check, as `lu check --samples 1000`.
AXIOM_SAMPLES = 1000


def euclid_steps(a, b):
    """Blowups the toric descent makes on y^a - x^b with values (a, b).

    Each blowup divides the variable of least value into the other, which
    subtracts the smaller value from the larger; the chart is regular as soon
    as one value is 1.
    """
    steps = 0
    while min(a, b) > 1:
        a, b = (a, b - a) if a < b else (a - b, b)
        steps += 1
    return steps


def _scene(field, names, ideal, support, weights, rank):
    return {
        "field": field,
        "vars": list(names),
        "ideal": list(ideal),
        "localize_at": list(names),
        "valuation": {"support": list(support), "weights": weights, "rank": rank},
    }


def _op(key, scene, verdict, labels, budget=32, reason=""):
    return {
        "key": key,
        "scene": scene,
        "budget": budget,
        "expect": {"verdict": verdict, "labels": list(labels), "reason": reason},
    }


def _field_key(field):
    return "Q" if field == "Q" else f"Fp{field['Fp']}"


# --- families ---------------------------------------------------------------

def f2(field="Q", names=F2_NAMES[0]):
    """Fat cone (F2): rank 2, one normal-flat blowup (criterion 02).

    In because it is the normal-flatness path, where ideal products and
    powers make Buchberger the main cost.
    """
    u, v, x, y = names
    scene = _scene(
        field, names, [f"{x}^2", f"{x}*{y}", f"{y}^2", f"{v}*{x} - {u}*{y}"],
        [x, y], {u: [1, 0], v: [0, 1]}, 2,
    )
    key = f"f2/{_field_key(field)}/{','.join(names)}"
    return _op(key, scene, UNIFORMIZED, ["normal-flat"])


def cusp(a, b, field="Q"):
    """Toric cusp y^a - x^b with weights (a, b): rank 1, Euclidean descent.

    Over Q it is Uniformized by euclid_steps(a, b) oracle blowups (criterion
    04 is the case (2, 3)).  Over F_p the support's primality cannot be
    certified and the run refuses.  In for the rank-one oracle path over many
    small bases, and over F_p for the time to refusal.
    """
    scene = _scene(field, ["x", "y"], [f"y^{a} - x^{b}"], [], {"x": [a], "y": [b]}, 1)
    key = f"cusp/{_field_key(field)}/{a},{b}"
    if field != "Q":
        return _op(key, scene, UNSUPPORTED, [], reason=CHAR0_REASON)
    return _op(key, scene, UNIFORMIZED, ["oracle"] * euclid_steps(a, b))


def whitney(k, field="Q", budget=32):
    """Whitney u*y - x^k, weights u:(0,1), x:(1,1), y:(k,k-1): rank 2, one
    trim (criterion 03 is k = 2).  Refused over F_p like the cusps.  With
    budget 0 the run stops before its first blowup (BudgetExceeded, no
    labels).  In for the rank-two trim path, whose cotangent presentations
    make module Groebner bases the main cost."""
    scene = _scene(field, ["u", "x", "y"], [f"u*y - x^{k}"], [],
                   {"u": [0, 1], "x": [1, 1], "y": [k, k - 1]}, 2)
    key = f"whitney/{_field_key(field)}/{k}"
    if field != "Q":
        return _op(key, scene, UNSUPPORTED, [], reason=CHAR0_REASON)
    if budget == 0:
        return _op(f"{key}/budget0", scene, BUDGET_EXCEEDED, [], budget=0,
                   reason="more than 0 blowups")
    return _op(key, scene, UNIFORMIZED, ["trim"])


def fat_axis(k, nvars):
    """Fat axis (x^k, x*y), with a free z in three variables: two associated
    primes, separated by one ass-prime blowup (criterion 01 is k = 2 in two
    variables).  In for step one's associated-prime separation."""
    names = ["x", "y", "z"][:nvars]
    weights = {"y": [1], "z": [2]} if nvars == 3 else {"y": [1]}
    scene = _scene("Q", names, [f"x^{k}", "x*y"], ["x"], weights, 1)
    return _op(f"fat/{nvars}v/{k}", scene, UNIFORMIZED, ["ass-prime"])


def plane(weights):
    """Smooth plane like F4: already regular and normally flat, no blowup.
    In for the fixed cost of a run that has nothing to do."""
    names = ["x", "y", "z"][: len(weights)]
    scene = _scene("Q", names, [], [], {n: [w] for n, w in zip(names, weights)}, 1)
    return _op(f"plane/{','.join(map(str, weights))}", scene, UNIFORMIZED, [])


def fixture(name):
    """A packaged fixture as a replay-check entry; its class is known from
    the support: F1 and F2 are supported on variables, F3 on a weight
    homogeneous binomial (criteria 01-03)."""
    scene_class = {"F1": "variables", "F2": "variables", "F3": "weight-homogeneous"}
    return {"key": name, "scene": name, "class": scene_class[name],
            "steps": 1}


PLANE_WEIGHTS = ((2, 3), (3, 2), (1, 4), (5, 3), (1, 2, 3), (3, 1, 2))

# --- workloads --------------------------------------------------------------
#
# nilpotent-rank2: the rank-2 normal-flatness path.  Basis construction
#   (ideals.buchberger via Ideal.multiply/power) dominates, so basis caching
#   and a single engine show their gain here.  One scene per pass, as a
#   `lu run` user runs it.
# scene-mix: many short scenes of every verdict, all of a pass in one
#   process, so per-call overheads, time to refusal and the reuse of the
#   global memos by repeated scenes all show.  Module Groebner bases dominate.
# replay-check: what `lu check` and `lu verify-lemmas` do to stored traces;
#   it reads more than it builds, so normal forms against existing bases
#   dominate and a change that adds cost per lookup shows as a slowdown.

WORKLOADS = ("nilpotent-rank2", "scene-mix", "replay-check")

# Scenes per family in one scene-mix pass.  Seven scenes take under 0.4 s
# each (refusals, plane, fat axes, one-blowup cusp), two take 0.9-2.7 s (the
# longer cusps), and the seven Whitney scenes take 0.8-0.9 s whatever k the
# seed picks, so the median scene is a Whitney trim for every seed.
MIX_QUOTAS = {
    "refuse-fp": 2, "refuse-budget": 1, "plane": 1, "fat-2v": 1, "fat-3v": 1,
    "cusp-1": 1, "whitney": 7, "cusp-2": 1, "cusp-3": 1,
}


def nilpotent_rank2(rng):
    p1, p2 = rng.sample(PRIMES, 2)
    ops = [f2("Q"), f2({"Fp": p1}), f2({"Fp": p2}), f2("Q", rng.choice(F2_NAMES[1:]))]
    rng.shuffle(ops)
    return ops


def _mix_draw(family, rng):
    if family.startswith("cusp-"):
        return cusp(*rng.choice(CUSPS_BY_STEPS[int(family[-1])]))
    if family == "whitney":
        return whitney(rng.choice((2, 3, 4)))
    if family == "fat-2v":
        return fat_axis(rng.choice((2, 3, 4, 5)), 2)
    if family == "fat-3v":
        return fat_axis(rng.choice((2, 3, 4)), 3)
    if family == "plane":
        return plane(rng.choice(PLANE_WEIGHTS))
    if family == "refuse-fp":
        p = rng.choice(PRIMES)
        if rng.random() < 0.5:
            return cusp(*rng.choice(CUSPS_BY_STEPS[1] + CUSPS_BY_STEPS[2]), field={"Fp": p})
        return whitney(rng.choice((2, 3, 4)), field={"Fp": p})
    if family == "refuse-budget":
        return whitney(rng.choice((2, 3, 4)), budget=0)
    raise ValueError(f"unknown family {family}")


def scene_mix(rng):
    ops = [_mix_draw(fam, rng) for fam, n in MIX_QUOTAS.items() for _ in range(n)]
    rng.shuffle(ops)
    return ops


def replay_check(rng):
    """Every golden trace once; the seed picks the order and, in
    pass_inputs(), the valuation samples, which are most of the check's
    work."""
    ops = [fixture(n) for n in ("F1", "F2", "F3")]
    for a, b in REPLAY_CUSPS:
        op = cusp(a, b)
        ops.append({"key": op["key"], "scene": op["scene"],
                    "class": "weight-homogeneous", "steps": euclid_steps(a, b)})
    rng.shuffle(ops)
    return ops


def pass_inputs(workload, seed, i):
    """(operations, axiom seed) of pass i of a run with this seed.

    nilpotent-rank2 cycles through its four scenes, one per pass.  The other
    workloads draw every pass afresh, so a run averages over several draws
    and orders instead of repeating one.
    """
    if workload == "nilpotent-rank2":
        ops = nilpotent_rank2(random.Random(f"{workload}:{seed}"))
        return [ops[i % len(ops)]], None
    rng = random.Random(f"{workload}:{seed}:{i}")
    if workload == "scene-mix":
        return scene_mix(rng), None
    if workload == "replay-check":
        return replay_check(rng), rng.randrange(1 << 32)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def universe():
    """Every run-workload scene any seed can draw (for make_golden.py)."""
    ops = [f2("Q")] + [f2({"Fp": p}) for p in PRIMES] + [f2("Q", n) for n in F2_NAMES[1:]]
    for pairs in CUSPS_BY_STEPS.values():
        ops += [cusp(a, b) for a, b in pairs]
    ops += [whitney(k) for k in (2, 3, 4)] + [whitney(k, budget=0) for k in (2, 3, 4)]
    ops += [fat_axis(k, 2) for k in (2, 3, 4, 5)] + [fat_axis(k, 3) for k in (2, 3, 4)]
    ops += [plane(w) for w in PLANE_WEIGHTS]
    return ops


def replay_universe():
    """Scenes whose golden traces replay-check reads."""
    return ["F1", "F2", "F3"] + [cusp(a, b)["key"] for a, b in REPLAY_CUSPS]
