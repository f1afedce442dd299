"""End-to-end acceptance: one test per shipped guarantee.

Each test is a single pass or fail line under pytest -v.  Time limits are
asserted with a monotonic clock around the measured work only.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import sympy as sp

from conftest import ideal, ring

from lu.blowup import compose, local_blowup, transport_through_blowup, verify_center_isos
from lu.cli import main
from lu.decomp import associated_primes, radical
from lu.errors import CertificationError
from lu.ideals import Ideal
from lu.localring import (
    LocalRing,
    graded_piece,
    is_free_at,
    is_normally_flat,
    is_regular_local,
)
from lu.pipeline import run_reduction, toric_uniformizer
from lu.poly import Polynomial
from lu.scenes import load_scene, scene_from_dict
from lu.valuations import axiom_violations, center_ideal, decompose


def _cusp_scene():
    return scene_from_dict(
        {
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
    )


def test_criterion_01_fat_axis_uniformizes():
    start = time.monotonic()
    trace = run_reduction(*load_scene("F1"))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    assert trace.verdict == "Uniformized"
    assert [s.label for s in trace.steps] == ["ass-prime"]
    assert trace.steps[0].blowup.b.text() == "y"
    assert trace.steps[0].report["ass_before"] == 2
    assert trace.steps[0].report["ass_after"] == 1
    assert trace.final_ring.defining.canonical_strings() == ["x", "t"]
    reg = is_regular_local(trace.final_ring.reduced())
    assert reg.regular and reg.dimension == 1


def test_criterion_02_fat_cone_uniformizes():
    start = time.monotonic()
    trace = run_reduction(*load_scene("F2"))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    assert trace.verdict == "Uniformized"
    assert [s.label for s in trace.steps] == ["normal-flat"]
    step = trace.steps[0]
    assert step.blowup.b.text() == "v"
    assert [a.text() for a in step.blowup.a_list] == ["y"]
    final = trace.final_ring
    assert final.defining.canonical_strings() == ["y - v*t", "x - u*t", "t^2"]
    flat = is_normally_flat(final)
    assert flat.flat and flat.length == 2
    assert is_regular_local(final.reduced()).regular


def test_criterion_03_whitney_trim_splits_the_center():
    local, nu = load_scene("F3")
    trace = run_reduction(local, nu)
    assert trace.verdict == "Uniformized"
    assert [(s.label, s.blowup.b.text()) for s in trace.steps] == [("trim", "u")]
    assert [a.text() for a in trace.steps[0].blowup.a_list] == ["x"]

    final = trace.final_ring
    S = final.ring
    coarse, _ = decompose(trace.final_nu)
    split = center_ideal(coarse)
    # the split center is principal over the chart, generated by t
    t = S.var("t")
    assert split == Ideal(S, list(final.defining.gens) + [t])
    assert final.defining.normal_form(t).text() == "t"

    at_split = is_regular_local(LocalRing(S, final.defining, split))
    assert at_split.regular
    r = at_split.dimension
    quotient_dim = LocalRing(S, split, final.center, check=False).dimension()
    assert r + quotient_dim == final.dimension()
    assert (r, quotient_dim) == (1, 1)


def test_criterion_04_cusp_toric_uniformization():
    start = time.monotonic()
    trace = run_reduction(*_cusp_scene(), oracle=toric_uniformizer)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    assert trace.verdict == "Uniformized"
    assert 1 <= len(trace.steps) <= 3

    final = trace.final_ring
    S = final.ring
    syms = sp.symbols(S.names)
    rows = []
    for g in final.defining.groebner():
        expr = sum(
            sp.Rational(c) * sp.Mul(*(s**k for s, k in zip(syms, e)))
            for e, c in g.terms.items()
        )
        row = []
        for s in syms:
            d = sp.Poly(sp.diff(expr, s), *syms)
            dg = Polynomial(S, {
                e: S.field.coerce(Fraction(int(c.p), int(c.q))) for e, c in d.terms() if c
            })
            const = final.center.normal_form(dg)
            row.append(const.terms.get((0,) * S.n, Fraction(0)))
        rows.append(row)
    rank = _fraction_rank(rows)
    assert rank == S.n - final.dimension(), f"jacobian rank {rank}"


def _fraction_rank(rows):
    work = [list(r) for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        piv = next((r for r in work[rank:] if r[col]), None)
        if piv is None:
            continue
        i = work.index(piv)
        work[rank], work[i] = work[i], work[rank]
        for r in work[rank + 1:]:
            if r[col]:
                f = r[col] / piv[col]
                for j in range(cols):
                    r[j] -= f * piv[j]
        rank += 1
    return rank


def test_criterion_05_seeded_compositions_glue():
    R = ring("x", "y")
    plane = LocalRing(R, Ideal(R, []), ideal(R, "x", "y"))
    rng = random.Random(0xC0FFEE)
    start = time.monotonic()
    built = 0
    while built < 20:
        b1, a1 = rng.sample(["x", "y"], 2)
        e = rng.choice([1, 2])
        first = local_blowup(plane, R.var(b1), [R.var(a1) ** e])
        S = first.chart.ring
        b2, a2 = rng.sample(["x", "y", "t"], 2)
        try:
            second = local_blowup(first.chart, S.var(b2), [S.var(a2)])
        except CertificationError:
            # the draw inverted the exceptional divisor; not composable
            continue
        whole = compose(first, second)
        assert whole.chart == second.chart
        assert whole.source == plane
        built += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    assert built == 20


def test_criterion_06_center_isos_hold_on_every_step():
    failures = []
    for name in ("F1", "F2", "F3", "F4"):
        local, nu = load_scene(name)
        trace = run_reduction(local, nu)
        assert trace.verdict == "Uniformized"
        current = nu
        for s in trace.steps:
            report = verify_center_isos(s.blowup, current)
            if not report.ok:
                failures.append((name, s.label, report.failures))
            current = transport_through_blowup(current, s.blowup)
    assert failures == []


def test_criterion_07_unique_associated_prime_after_step1():
    for name in ("F1", "F2", "F3", "F4"):
        local, nu = load_scene(name)
        trace = run_reduction(local, nu)
        charts = [local] + [s.blowup.chart for s in trace.steps]
        labels = [s.label for s in trace.steps]
        first = 0
        for i, label in enumerate(labels):
            if label == "ass-prime":
                first = i + 1
        for chart in charts[first:]:
            ass = associated_primes(chart.defining)
            visible = [q for q in ass if chart.center.contains_ideal(q)]
            assert len(visible) == 1, (name, [q.canonical_strings() for q in ass])
            assert visible[0] == chart.nilradical(), name


def test_criterion_08_valuation_axioms_sample_clean():
    start = time.monotonic()
    for name in ("F1", "F2", "F3", "F4"):
        _, nu = load_scene(name)
        bad = axiom_violations(nu, count=200)
        assert bad == [], (name, bad[:3])
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


# Brute-force freeness oracle: enumerate generator subsets as candidate
# bases.  A subset is a basis when some minor on the complementary columns
# is a unit at the prime and every larger minor dies in the localization.

def _subset_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    sign = 1
    for j in range(n):
        term = rows[0][j] * _subset_det([r[:j] + r[j + 1:] for r in rows[1:]])
        if sign < 0:
            term = -term
        acc = term if acc is None else acc + term
        sign = -sign
    return acc


def _free_by_subsets(local, n, prime=None):
    gens, rows = graded_piece(local, n)
    s = len(gens)
    if prime is None:
        prime = local.center
    base = local.nilradical()
    units_vanish_in = Ideal(local.ring, list(prime.gens) + list(base.gens))

    def locally_zero(d):
        if base.contains(d):
            return True
        return not prime.contains_ideal(base.colon(d))

    def all_big_minors_die(size):
        for ris in itertools.combinations(range(len(rows)), size):
            for cis in itertools.combinations(range(s), size):
                d = _subset_det([[rows[i][j] for j in cis] for i in ris])
                if not locally_zero(d):
                    return False
        return True

    for r in range(s, -1, -1):
        for keep in itertools.combinations(range(s), r):
            drop = [j for j in range(s) if j not in keep]
            if drop:
                if len(rows) < len(drop):
                    continue
                unit_block = any(
                    not units_vanish_in.contains(
                        _subset_det([[rows[i][j] for j in drop] for i in ris])
                    )
                    for ris in itertools.combinations(range(len(rows)), len(drop))
                )
                if not unit_block:
                    continue
            if all_big_minors_die(len(drop) + 1):
                return True, r
    return False, None


def test_criterion_09_oracle_cross_checks():
    cone, _ = load_scene("F2")
    p1 = ideal(cone.ring, "u", "x", "y")
    fat, _ = load_scene("F1")
    f2_final = run_reduction(*load_scene("F2")).final_ring

    modules = [
        (fat, 1, None),
        (cone, 1, None),
        (cone, 1, p1),
        (f2_final, 1, None),
    ]
    for local, n, prime in modules:
        gens, _ = graded_piece(local, n)
        assert len(gens) <= 3
        expect_free, expect_rank = _free_by_subsets(local, n, prime)
        got = is_free_at(local, n, prime=prime) if prime else is_free_at(local, n)
        assert got.free == expect_free
        if expect_free:
            assert got.rank == expect_rank

    for name in ("F1", "F2", "F3", "F4"):
        local, _ = load_scene(name)
        rings = [local, run_reduction(*load_scene(name)).final_ring]
        for L in rings:
            ass = associated_primes(L.defining)
            meet = ass[0]
            for q in ass[1:]:
                meet = meet.intersect(q)
            assert meet == radical(L.defining), name


def test_criterion_10_traces_are_byte_identical(tmp_path):
    for name in ("F1", "F2", "F3", "F4"):
        first = tmp_path / f"{name}_a.json"
        second = tmp_path / f"{name}_b.json"
        assert main(["run", name, "--trace", str(first)]) == 0
        assert main(["run", name, "--trace", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
        json.loads(first.read_text())
