"""The rank-induction reduction driver and its three constructive steps.

One `Run` holds the reduction's state: the current chart `L`, the valuation
`nu` on it, the `steps` so far and the pool of blowups.  Each step acts on a
run and re-verifies its own claim afterwards: step one that the
associated-prime count strictly drops until one remains, step two that the
reduced ring becomes regular with the dimension count r + t matching, step
three that the nilpotent graded pieces become free along the center.  Higher
rank splits off the first value row, uniformizes the localized and quotient
data in sub-runs, and lifts each first blowup back; nothing is trusted across
a lift: the lifted chart re-runs the full certificate chain before it is
accepted.  At higher rank step two leaves a regular chart and step three a
normally flat one, so run_reduction rechecks regularity only on a chart
that step three made, and refuses a failure.  At rank one it verifies each
chart once (reduced ring regular, normally flat) and asks the oracle for the
next blowup on a chart that fails.

`Run.apply` is the one way a run blows up: it spends from the pool
(BLOWUP_POOL unless the caller says otherwise), transports and re-certifies
`nu` and records the step.  The pool bounds every loop here, the oracle's
descent included; a sub-run draws on a copy of what is left.  An empty pool
raises ResourceLimit, which run_reduction reports as BudgetExceeded.
"""

from collections import namedtuple

from .decomp import associated_primes, is_prime
from .errors import (
    CertificationError,
    IsomorphismCheckFailed,
    LuError,
    ResourceLimit,
    UnsupportedInstance,
)
from .ideals import Ideal
from .localring import (
    LocalRing,
    cotangent_presentation,
    graded_piece,
    is_free_at,
    is_normally_flat,
    is_regular_local,
    nilpotent_length,
)
from .modules import eliminate_at_prime
from .blowup import (
    lift_from_localization,
    lift_from_quotient,
    local_blowup,
    transport_through_blowup,
)
from .valuations import certify, decompose

BLOWUP_POOL = 32

UNIFORMIZED = "Uniformized"
UNSUPPORTED = "Unsupported"
BUDGET_EXCEEDED = "BudgetExceeded"

TraceStep = namedtuple("TraceStep", "label blowup report")

ReductionTrace = namedtuple("ReductionTrace", "steps verdict reason final_ring final_nu")


class Run:
    """One reduction run: the current chart `L`, the valuation `nu` on it,
    the `steps` so far, and the pool (`left` blowups of `total`)."""

    __slots__ = ("L", "nu", "steps", "left", "total")

    def __init__(self, L, nu, pool):
        self.L = L
        self.nu = nu
        self.steps = []
        self.left = self.total = pool

    def apply(self, B, label, report):
        """Spend one blowup on B, transport and re-certify nu on its chart,
        record the step and move to the chart."""
        if self.left <= 0:
            raise ResourceLimit(f"more than {self.total} blowups")
        self.left -= 1
        nu = transport_through_blowup(self.nu, B)
        certify(nu, B.chart.defining, B.chart.center)
        report = dict(report)
        report.setdefault("stabilization_N", B.stabilization_N)
        self.steps.append(TraceStep(label, B, report))
        self.L, self.nu = B.chart, nu

    def sub(self, L, nu):
        """A sub-run on (L, nu) that draws on a copy of what is left; an
        empty pool still reports this run's total."""
        run = Run(L, nu, self.left)
        run.total = self.total
        return run


def _local_associated(L):
    """Associated primes visible at the center; flags off-center components."""
    ass = associated_primes(L.defining)
    inside = [q for q in ass if L.center.contains_ideal(q)]
    return inside, len(inside) != len(ass)


def step1(run):
    """Blow up associated primes away until exactly one remains.

    Picks the candidate with the lexicographically smallest reduced basis,
    divides by its generator of least value, and demands a strict drop of
    the count after every blowup.  Each chart's associated primes are
    computed once: the list counted for `ass_after` is the next round's.
    """
    local = _local_associated(run.L)
    while True:
        L, nu = run.L, run.nu
        ass, off_center = local
        if not ass:
            raise CertificationError(
                "associated primes", "no associated prime lies at the center"
            )
        if len(ass) == 1:
            if not off_center and ass[0] != L.nilradical():
                raise CertificationError(
                    "associated primes",
                    "unique associated prime differs from the nilradical",
                )
            return
        cands = [q for q in ass if not nu.support.contains_ideal(q)]
        if not cands:
            raise CertificationError(
                "associated primes", "every associated prime lies in the support"
            )
        q = min(cands, key=lambda p: tuple(p.canonical_strings()))
        gens = q.groebner()
        bi = min(range(len(gens)), key=lambda i: (nu.value_of(gens[i]), i))
        b = gens[bi]
        rest = gens[:bi] + gens[bi + 1 :]
        before = len(ass)
        B = local_blowup(L, b, rest, nu=nu)
        local = _local_associated(B.chart)
        after = len(local[0])
        if after >= before:
            raise CertificationError(
                "associated primes",
                f"count went from {before} to {after} across the blowup",
            )
        run.apply(B, "ass-prime", {"ass_before": before, "ass_after": after})


def _select_basis(ring, gens, rows, prime, nu):
    """Smallest generator subset whose classes span the cokernel at a prime.

    Generators are tried in ascending value order (then input order), so a
    chart variable beats the products it divides: one elimination of the
    rows followed by the unit rows in that order makes a unit a pivot
    exactly when it raises the rank over the residue field.
    """
    s = len(gens)
    order = sorted(range(s), key=lambda i: (nu.value_of(gens[i]), i))
    units = [[ring.one() if j == i else ring.zero() for j in range(s)] for i in order]
    pivots, _ = eliminate_at_prime(list(rows) + units, prime)
    if len(pivots) != s:
        raise CertificationError(
            "basis selection", "generators do not span at the prime"
        )
    return sorted(order[k - len(rows)] for k, _, _ in pivots if k >= len(rows))


def _absorption(L, p1, basis, modulus, g):
    """How the generator g reduces into (basis) + modulus.

    Returns ('unit', None) when the colon leaves the center (g is already
    absorbed after localizing), ('blowup', b) with b in the center but not
    in p1, or ('stuck', None) when the colon sits inside p1.
    """
    Q = (Ideal(L.ring, basis) + modulus).colon(g)
    cands = [c for c in Q.groebner() if not p1.contains(c)]
    if not cands:
        return "stuck", None
    for c in cands:
        if not L.center.contains(c):
            return "unit", None
    return "blowup", cands[0]


def _split_center(nu):
    """The split center p1: the support plus every variable of positive
    first value, the center of the first value row.  Refuses rank one."""
    return decompose(nu)[1].support


def _parameters_at(L, nu, p1, check):
    """The split center's cotangent generators and the indices of the
    parameters `_select_basis` picks among them, refused under `check`
    unless the reduced ring is regular at p1.

    By Nakayama the picked unit rows complete the relation rows to a basis
    over the residue field, so their count is the embedding dimension and
    no relation among the parameters has an entry outside p1.
    """
    red_at_p = LocalRing(L.ring, L.nilradical(), p1, check=False)
    gens, rows = cotangent_presentation(red_at_p)
    idx = _select_basis(L.ring, gens, rows, p1, nu)
    if len(idx) != red_at_p.dimension():
        raise CertificationError(
            check, "reduced ring is not regular at the split center"
        )
    return gens, idx


def _basis_and_extras(L, p1, gens, idx, modulus, check, what):
    """The basis gens[idx] at p1 and the other gens that a blowup absorbs.

    Each extra comes as (g, b) with b the denominator that absorbs g; a
    generator with no relation with a unit is refused under `check`.
    """
    basis = [gens[i] for i in idx]
    extras = []
    for j, g in enumerate(gens):
        if j in idx:
            continue
        kind, b = _absorption(L, p1, basis, modulus, g)
        if kind == "stuck":
            raise CertificationError(
                check, f"{what} {g.text()} admits no relation with a unit"
            )
        if kind == "blowup":
            extras.append((g, b))
    return basis, extras


def _trim_probe(L, nu, p1):
    """Parameters at the split center and the extras still obstructing them."""
    gens, idx = _parameters_at(L, nu, p1, "hypothesis")
    return _basis_and_extras(L, p1, gens, idx, L.defining, "trim", "generator")


def _verify_split_criterion(L, p1, r):
    """r parameters at the split center plus the quotient's dimension must
    reach the reduced ring's dimension."""
    t = LocalRing(L.ring, p1, L.center, check=False).dimension()
    total = L.reduced().dimension()
    if r + t != total:
        raise CertificationError(
            "regularity criterion",
            f"r + t = {r} + {t} does not reach the dimension {total}",
        )


def step2(run):
    """Make the reduced ring regular at the center.

    Nothing to do when it already is; otherwise blow up along the split
    center's parameters against a unit-coefficient relation, absorbing one
    extra generator per step, then re-verify the dimension criterion.
    """
    p1 = _split_center(run.nu)
    if is_regular_local(run.L.reduced()).regular:
        _, idx = _parameters_at(run.L, run.nu, p1, "regularity criterion")
        _verify_split_criterion(run.L, p1, len(idx))
        return
    params, extras = _trim_probe(run.L, run.nu, p1)
    while extras:
        g, b = extras[0]
        B = local_blowup(run.L, b, params, nu=run.nu)
        run.apply(B, "trim", {"absorbed": g.text(), "extras_left": len(extras) - 1})
        p1 = _split_center(run.nu)
        params, left = _trim_probe(run.L, run.nu, p1)
        if len(left) >= len(extras):
            raise CertificationError("trim", "blowup did not absorb a generator")
        extras = left
    _verify_split_criterion(run.L, p1, len(params))
    if not is_regular_local(run.L.reduced()).regular:
        raise CertificationError(
            "regularity criterion", "reduced ring is still not regular"
        )


def _piece_probe(L, nu, p1, n):
    """Local basis of the n-th graded piece at the split center and extras."""
    gens, rows = graded_piece(L, n)
    idx = _select_basis(L.ring, gens, rows, p1, nu)
    modulus = L.nilradical().power(n + 1) + L.defining
    return _basis_and_extras(
        L, p1, gens, idx, modulus, "normal flatness", "piece generator"
    )


def step3(run):
    """Make every nilpotent graded piece free at the center.

    The pieces must already be free at the split center; a piece that fails
    at the center is repaired by blowing up its local basis against a unit
    relation, one absorbed generator per blowup, with the local rank checked
    stable across each step.
    """
    p1 = _split_center(run.nu)
    while True:
        L, nu = run.L, run.nu
        flat = is_normally_flat(L)
        for n in range(1, flat.length):
            if not is_free_at(L, n, prime=p1).free:
                raise CertificationError(
                    "hypothesis",
                    f"graded piece {n} is not free at the split center",
                )
        if flat.flat:
            return
        bad = flat.first_bad
        basis, extras = _piece_probe(L, nu, p1, bad)
        if not extras:
            raise CertificationError(
                "normal flatness",
                f"piece {bad} is not free at the center yet nothing absorbs",
            )
        rank_before = len(basis)
        g, b = extras[0]
        B = local_blowup(L, b, basis, nu=nu)
        run.apply(
            B, "normal-flat",
            {"piece": bad, "absorbed": g.text(), "extras_left": len(extras) - 1},
        )
        p1 = _split_center(run.nu)
        if nilpotent_length(run.L) > bad:
            basis_after, extras_after = _piece_probe(run.L, run.nu, p1, bad)
            if len(basis_after) != rank_before:
                raise CertificationError(
                    "normal flatness", "local rank moved across the blowup"
                )
            if extras_after and len(extras_after) >= len(extras):
                raise CertificationError(
                    "normal flatness", "blowup did not absorb a generator"
                )


def toric_uniformizer(L, nu):
    """Rank one oracle for zero, monomial, and weight homogeneous binomial
    prime presentations: the next blowup of the Euclidean descent on variable
    values, which divides the positive variable of least value into the next
    one.  Two least values that tie are refused: their quotient would have
    value 0 at a center it generates."""
    if nu.rank != 1:
        raise UnsupportedInstance("the descent oracle needs a rank one valuation")
    gb = L.defining.groebner()
    if any(len(g.terms) > 1 for g in gb):
        if any(len(g.terms) > 2 for g in gb):
            raise UnsupportedInstance(
                "descent handles zero, monomial, or binomial presentations"
            )
        if not all(map(nu.is_homogeneous, gb)):
            raise UnsupportedInstance(
                "binomial presentation is not weight homogeneous"
            )
        if not is_prime(L.defining).is_prime:
            raise UnsupportedInstance("binomial presentation is not prime")
    ring = L.ring
    values = [nu.value_of(ring.var(nm)) for nm in ring.names]
    finite = sorted(
        (v, i) for i, v in enumerate(values) if not v.is_infinite and v.is_positive
    )
    if not finite:
        raise UnsupportedInstance("no variable of positive finite value to divide")
    b = ring.var(ring.names[finite[0][1]])
    if len(finite) >= 2:
        a = ring.var(ring.names[finite[1][1]])
        if finite[1][0] == finite[0][0]:
            raise UnsupportedInstance(
                f"descent pair {b.text()}, {a.text()} share the value "
                f"{finite[0][0].text()}"
            )
    else:
        infinite = [
            nm for nm, v in zip(ring.names, values)
            if v.is_infinite and L.center.contains(ring.var(nm))
        ]
        if not infinite:
            raise UnsupportedInstance("no second variable for the descent pair")
        a = ring.var(infinite[0])
    return local_blowup(L, b, [a], nu=nu)


def _lift_loops(run, oracle):
    for source in ("localization", "quotient"):
        while True:
            L, nu = run.L, run.nu
            nu1, nu2 = decompose(nu)
            p1 = nu2.support
            if source == "localization":
                sub = run.sub(LocalRing(L.ring, L.defining, p1), nu1)
            else:
                sub = run.sub(LocalRing(L.ring, p1, L.center), nu2)
            _reduce(sub, oracle)
            if not sub.steps:
                break
            B0 = sub.steps[0].blowup
            if source == "localization":
                B = lift_from_localization(L, nu, B0.b, list(B0.a_list))
            else:
                B = lift_from_quotient(L, nu, p1, B0.b, list(B0.a_list))
            run.apply(B, "regularize", {"lifted_from": source})


def _reduce(run, oracle):
    certify(run.nu, run.L.defining, run.L.center)
    step1(run)
    if run.nu.rank > 1:
        _lift_loops(run, oracle)
        step2(run)
        # step two leaves the chart regular and step three returns only on
        # a normally flat one, so only a chart step three made is rechecked
        before = len(run.steps)
        step3(run)
        if len(run.steps) > before and not is_regular_local(run.L.reduced()).regular:
            raise CertificationError(
                "final verification", "regular=False, normally_flat=True"
            )
        return
    while True:
        L, nu = run.L, run.nu
        if is_regular_local(L.reduced()).regular and is_normally_flat(L).flat:
            return
        B = (oracle or toric_uniformizer)(L, nu)
        if B.source != L:
            raise IsomorphismCheckFailed(
                "oracle blowup does not start on the current chart"
            )
        run.apply(B, "oracle", {})


def run_reduction(L, nu, oracle=None, budget=BLOWUP_POOL):
    """Drive the full reduction; raises only for a negative `budget` (a
    LuError, before any work) and for isomorphism failures.

    `oracle(L, nu)` is the rank one hypothesis: given a rank one chart that
    is not yet uniformized, it returns the next LocalBlowup of L (the toric
    descent by default) or refuses with a LuError.  Returns a ReductionTrace
    whose verdict is Uniformized, Unsupported (with the refusing reason), or
    BudgetExceeded: more than `budget` blowups, or a basis computation that
    ran out of `ideals.BUDGET` (the reason says which).  Its final chart and
    valuation are the run's last, so a refused trace ends where the run
    stopped.
    """
    if budget < 0:
        raise LuError(f"the blowup budget must be nonnegative, got {budget}")
    run = Run(L, nu, budget)
    verdict, reason = UNIFORMIZED, ""
    try:
        _reduce(run, oracle)
    except IsomorphismCheckFailed:
        raise
    except ResourceLimit as e:
        verdict, reason = BUDGET_EXCEEDED, str(e)
    except LuError as e:
        verdict, reason = UNSUPPORTED, str(e)
    return ReductionTrace(run.steps, verdict, reason, run.L, run.nu)
