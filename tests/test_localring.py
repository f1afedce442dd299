"""Local ring invariants: regularity, nilpotents, and the normal cone."""

import itertools
from types import SimpleNamespace

from conftest import COTANGENT_SCENES, cotangent_rings, ideal as ideal_of, ring

from lu import ideals, localring
from lu.blowup import local_blowup
from lu.ideals import Ideal
from lu.modules import module_groebner, rank_mod_prime, relation_module
from lu.localring import (
    LocalRing,
    cotangent_presentation,
    embedding_dimension,
    graded_piece,
    is_free_at,
    is_normally_flat,
    is_regular_local,
    nilpotent_length,
    nilradical_min_gens,
)
from lu.errors import LuError
from lu.pipeline import _select_basis
from lu.scenes import load_scene


def _fat_axis(xy):
    # k[x,y]/(x^2, x*y) at the origin: an embedded point on a line
    return LocalRing(xy, ideal_of(xy, "x^2", "x*y"), ideal_of(xy, "x", "y"))


def _fat_cone(uvxy):
    defining = ideal_of(uvxy, "x^2", "x*y", "y^2", "v*x - u*y")
    return LocalRing(uvxy, defining, ideal_of(uvxy, "u", "v", "x", "y"))


def _whitney(uxy):
    return LocalRing(uxy, ideal_of(uxy, "u*y - x^2"), ideal_of(uxy, "u", "x", "y"))


def test_nilradical_and_length(xy, uvxy):
    fat = _fat_axis(xy)
    assert fat.nilradical().canonical_strings() == ["x"]
    assert fat.nilradical() != fat.defining  # not reduced
    assert nilpotent_length(fat) == 2

    cone = _fat_cone(uvxy)
    assert cone.nilradical().canonical_strings() == ["y", "x"]
    assert nilpotent_length(cone) == 2
    assert [g.text() for g in nilradical_min_gens(cone)] == ["y", "x"]


def test_reduced_ring_of_fat_axis(xy):
    red = _fat_axis(xy).reduced()
    assert red.defining.canonical_strings() == ["x"]
    reg = is_regular_local(red)
    assert reg.regular
    assert reg.embedding_dimension == 1
    assert reg.dimension == 1


def test_regularity_of_whitney_umbrella_slice(uxy):
    # embedding dimension 3 exceeds dimension 2 at the origin
    reg = is_regular_local(_whitney(uxy))
    assert not reg.regular
    assert (reg.embedding_dimension, reg.dimension) == (3, 2)

    # off the singular point the same surface is regular
    off = LocalRing(uxy, ideal_of(uxy, "u*y - x^2"), ideal_of(uxy, "x", "y"))
    reg = is_regular_local(off)
    assert reg.regular and (reg.embedding_dimension, reg.dimension) == (1, 1)


def test_regularity_detects_nilpotents(uvxy):
    prime = ideal_of(uvxy, "u", "x", "y")
    fat = LocalRing(uvxy, ideal_of(uvxy, "x^2", "x*y", "y^2", "v*x - u*y"), prime)
    reg = is_regular_local(fat)
    assert not reg.regular
    assert (reg.embedding_dimension, reg.dimension) == (2, 1)

    red = LocalRing(uvxy, ideal_of(uvxy, "x", "y"), prime, check=False)
    reg = is_regular_local(red)
    assert reg.regular and (reg.embedding_dimension, reg.dimension) == (1, 1)


def test_cotangent_presentation_gens(uvxy):
    prime = ideal_of(uvxy, "u", "x", "y")
    red = LocalRing(uvxy, ideal_of(uvxy, "x", "y"), prime, check=False)
    gens, rows = cotangent_presentation(red)
    assert [g.text() for g in gens] == ["y", "x", "u"]
    # one of the rows must witness that y dies against x in the surface direction
    texts = {tuple(c.text() for c in row) for row in rows}
    assert ("0", "1", "0") in texts


def _module_rows(L, gens):
    """The relation rows of the center's basis modulo center^2 + defining."""
    return [list(r) for r in relation_module(gens, L.center.power(2) + L.defining)]


def _selections(L, gens, rows):
    """`_select_basis` at the center with the generators tried in input
    order and in reverse."""
    picks = []
    for sign in (1, -1):
        nu = SimpleNamespace(value_of=lambda g, sign=sign: sign * gens.index(g))
        picks.append(_select_basis(L.ring, gens, rows, L.center, nu))
    return picks


def _record_relation_modules(monkeypatch):
    """A list that records every relation module cotangent_presentation asks for."""
    asked = []
    real = localring.relation_module

    def recording(gens, modulus):
        asked.append(gens)
        return real(gens, modulus)

    monkeypatch.setattr(localring, "relation_module", recording)
    return asked


def test_cotangent_rows_span_the_relation_module_at_the_center(monkeypatch):
    """On every ring whose cotangent presentation the reductions of
    COTANGENT_SCENES ask for, the rows span the relations at the center:
    one rank for the rows A, the relation module's rows B and A with B, and
    one basis selection.  Variable centers take the linear parts, the
    sqrt(2) center the relation module."""
    rings = {name: cotangent_rings(name) for name in COTANGENT_SCENES}
    asked = _record_relation_modules(monkeypatch)
    routes = set()
    for name, locals_ in rings.items():
        for L in locals_:
            before = len(asked)
            gens, rows = cotangent_presentation(L)
            routes.add((name, "module" if len(asked) > before else "linear"))
            reference = _module_rows(L, gens)
            ranks = {rank_mod_prime(r, L.center) for r in (rows, reference, rows + reference)}
            assert len(ranks) == 1, (name, L, ranks)
            assert _selections(L, gens, rows) == _selections(L, gens, reference), (name, L)
    module = {name for name, route in routes if route == "module"}
    linear = {name for name, route in routes if route == "linear"}
    assert module == {"sqrt2"} and linear == set(COTANGENT_SCENES) - module, routes


def test_no_relation_among_the_picked_parameters_leaves_the_center():
    """On every ring whose cotangent presentation the reductions of
    COTANGENT_SCENES ask for, the generators `_select_basis` picks, in
    either order, have every relation modulo center^2 + defining inside the
    center: by Nakayama they complete the relation rows to a basis over the
    residue field, which is why step two needs no relation module."""
    for name in COTANGENT_SCENES:
        for L in cotangent_rings(name):
            gens, rows = cotangent_presentation(L)
            for idx in _selections(L, gens, rows):
                picked = [gens[i] for i in idx]
                for row in relation_module(picked, L.center.power(2) + L.defining):
                    assert all(L.center.contains(c) for c in row), (name, L, idx)


def test_a_defining_term_outside_a_variable_center_takes_the_module_route(xy, monkeypatch):
    """With x - 1 outside the center (x, y), center^2 + defining is the unit
    ideal, so every relation holds and the embedding dimension is 0; the
    linear part of x - 1 would read a rank of 1."""
    L = LocalRing(xy, ideal_of(xy, "x - 1"), ideal_of(xy, "x", "y"), check=False)
    asked = _record_relation_modules(monkeypatch)
    gens, rows = cotangent_presentation(L)
    assert len(asked) == 1
    assert rank_mod_prime(rows, L.center) == rank_mod_prime(_module_rows(L, gens), L.center) == 2
    assert embedding_dimension(L) == 0


def test_graded_piece_of_fat_cone(uvxy):
    gens, rows = graded_piece(_fat_cone(uvxy), 1)
    assert [g.text() for g in gens] == ["y", "x"]
    # the row the FIFO module engine returned spans the same relations
    old = [(-uvxy.var("u"), uvxy.var("v"))]
    assert module_groebner(old) == module_groebner([tuple(r) for r in rows])
    assert [[c.text() for c in row] for row in rows] == [["u", "-v"]]


def test_freeness_moves_with_the_prime(uvxy):
    cone = _fat_cone(uvxy)
    at_origin = is_free_at(cone, 1)
    assert not at_origin.free
    assert at_origin.witness is not None

    generic = is_free_at(cone, 1, prime=ideal_of(uvxy, "u", "x", "y"))
    assert generic.free
    assert generic.rank == 1


def test_normal_flatness_verdicts(xy, uvxy):
    nf = is_normally_flat(_fat_axis(xy))
    assert not nf.flat
    assert nf.first_bad == 1
    assert nf.witness.text() == "y"

    nf = is_normally_flat(_fat_cone(uvxy))
    assert not nf.flat
    assert nf.first_bad == 1

    # a principal fat structure is flat along its support
    plane = LocalRing(xy, ideal_of(xy, "x^2"), ideal_of(xy, "x", "y"))
    assert is_normally_flat(plane).flat
    assert nilpotent_length(plane) == 2
    piece_gens, piece_rows = graded_piece(plane, 1)
    assert [g.text() for g in piece_gens] == ["x"]
    assert piece_rows == []
    fr = is_free_at(plane, 1)
    assert fr.free and fr.rank == 1 and fr.witness is None


def test_post_blowup_chart_is_normally_flat(uvxy):
    ring = uvxy.extend(("t",))
    defining = ideal_of(ring, "y - v*t", "x - u*t", "t^2")
    chart = LocalRing(ring, defining, ideal_of(ring, "u", "v", "x", "y", "t"))
    assert chart.nilradical().canonical_strings() == ["y", "x", "t"]
    assert nilpotent_length(chart) == 2
    red = is_regular_local(chart.reduced())
    assert red.regular and (red.embedding_dimension, red.dimension) == (2, 2)
    assert is_normally_flat(chart).flat
    assert is_free_at(chart, 1).rank == 1


def test_center_must_contain_defining(xy):
    bad = ideal_of(xy, "y")
    try:
        LocalRing(xy, ideal_of(xy, "x^2", "x*y"), bad)
    except LuError:
        pass
    else:
        raise AssertionError("center missing the defining ideal was accepted")


# Independent freeness check through Fitting ideals.  The library decides
# freeness by reducing presentation rows at the prime; here we instead take
# determinantal minors of the raw row matrix and test each against the prime
# with a colon escape for denominators outside it.  Both routes must agree.

def _det(rows):
    n = len(rows)
    if n == 0:
        return None
    if n == 1:
        return rows[0][0]
    total = None
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det(minor)
        if sign < 0:
            term = -term
        total = term if total is None else total + term
        sign = -sign
    return total


def _vanishes_locally(base, prime, f):
    if base.contains(f):
        return True
    return not prime.contains_ideal(base.colon(f))


def _free_by_fitting(local, n, prime=None):
    gens, rows = graded_piece(local, n)
    s = len(gens)
    if prime is None:
        prime = local.center
    base = local.nilradical()
    at_prime = Ideal(local.ring, list(prime.gens) + list(base.gens))
    rank = 0
    for k in range(1, min(len(rows), s) + 1):
        found = False
        for ris in itertools.combinations(range(len(rows)), k):
            for cis in itertools.combinations(range(s), k):
                d = _det([[rows[i][j] for j in cis] for i in ris])
                if not at_prime.contains(d):
                    found = True
                    break
            if found:
                break
        if not found:
            break
        rank = k
    for ris in itertools.combinations(range(len(rows)), rank + 1):
        for cis in itertools.combinations(range(s), rank + 1):
            d = _det([[rows[i][j] for j in cis] for i in ris])
            if not _vanishes_locally(base, prime, d):
                return False, s - rank
    return True, s - rank


def test_fitting_oracle_agrees(xy, uvxy):
    cone = _fat_cone(uvxy)
    p1 = ideal_of(uvxy, "u", "x", "y")
    plane = LocalRing(xy, ideal_of(xy, "x^2"), ideal_of(xy, "x", "y"))
    cases = [
        (cone, 1, None),
        (cone, 1, p1),
        (plane, 1, None),
        (_fat_axis(xy), 1, None),
    ]
    for local, n, prime in cases:
        expect_free, expect_rank = _free_by_fitting(local, n, prime)
        got = is_free_at(local, n, prime=prime) if prime else is_free_at(local, n)
        assert got.free == expect_free
        if expect_free:
            assert got.rank == expect_rank


def test_fitting_oracle_agrees_where_the_relations_have_rank():
    """Two nilpotent lines, x and z, with relations y*x and w*z: at (w, x, z)
    only y is a unit, so the relation rank is 1 of 2 rows; at (x, y, z) only
    w is, and at (x, z) both are."""
    R = ring("w", "x", "y", "z")
    local = LocalRing(
        R, ideal_of(R, "x^2", "x*z", "z^2", "x*y", "w*z"), ideal_of(R, "w", "x", "y", "z")
    )
    gens, rows = graded_piece(local, 1)
    expected = {("w", "x", "z"): (False, 1), ("x", "y", "z"): (False, 1), ("x", "z"): (True, 0)}
    for names, (free, rank) in expected.items():
        prime = ideal_of(R, *names)
        assert _free_by_fitting(local, 1, prime) == (free, rank)
        assert 0 < len(gens) - rank <= len(rows) == 2
        got = is_free_at(local, 1, prime=prime)
        assert (got.free, got.rank) == (free, rank)


def test_nilradical_min_gens_tests_each_candidate_once(monkeypatch):
    """F2's normal-flat chart: the nilradical's basis [y, x, t] comes down
    to [t] with one containment test per candidate."""
    L, nu = load_scene("F2")
    R = L.ring
    chart = local_blowup(L, R.var("v"), [R.var("y")], nu=nu).chart
    assert chart.nilradical().canonical_strings() == ["y", "x", "t"]
    tested = []
    contains = ideals.Ideal.contains

    def counted(self, f):
        tested.append(f.text())
        return contains(self, f)

    monkeypatch.setattr(ideals.Ideal, "contains", counted)
    assert [g.text() for g in nilradical_min_gens(chart)] == ["t"]
    assert sorted(tested) == ["t", "x", "y"]
