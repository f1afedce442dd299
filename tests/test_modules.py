import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

import lu
from lu.errors import CertificationError
from lu.ideals import Ideal
from lu.modules import (
    eliminate_at_prime,
    module_groebner,
    rank_mod_prime,
    reduce_entries,
    relation_module,
)
from lu.parse import parse_many, parse_poly
from lu.pipeline import _select_basis

from conftest import ideal, ring


def test_relation_module_property(xy):
    gens = parse_many(xy, ["x", "y"])
    modulus = ideal(xy, "x*y")
    rows = relation_module(gens, modulus)
    assert rows
    for row in rows:
        acc = xy.zero()
        for c, g in zip(row, gens):
            acc = acc + c * g
        assert modulus.contains(acc)


def _texts(vectors):
    return [[c.text() for c in v] for v in vectors]


def _vectors(R, rows):
    return [tuple(parse_many(R, r)) for r in rows]


def test_relation_module_frozen(xy):
    gens = parse_many(xy, ["x", "y"])
    rows = relation_module(gens, ideal(xy, "x*y"))
    # the rows the FIFO module engine returned span the same module
    old = _vectors(xy, [["y", "-x"], ["0", "x"]])
    assert module_groebner(old) == module_groebner(rows)
    assert _texts(rows) == [["y", "0"], ["0", "x"]]


def test_rank_mod_prime_basics(xy):
    x, y = xy.var("x"), xy.var("y")
    one, zero = xy.one(), xy.zero()
    m = ideal(xy, "x", "y")
    assert rank_mod_prime([[one, zero], [zero, one]], m) == 2
    assert rank_mod_prime([[x, zero], [zero, y]], m) == 0
    assert rank_mod_prime([[x, one]], m) == 1
    # over the cusp's residue field at (x, y) the class of x is zero
    assert rank_mod_prime([[x]], ideal(xy, "x", "y")) == 0
    assert rank_mod_prime([], m) == 0


def _det(rows):
    """Cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    acc = rows[0][0].ring.zero()
    for j in range(len(rows)):
        term = rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _minors(rows, k):
    for ri in combinations(range(len(rows)), k):
        for ci in combinations(range(len(rows[0])), k):
            yield _det([[rows[i][j] for j in ci] for i in ri])


def _rank_by_minors(rows, prime):
    """Independent oracle: largest k with some k-minor nonzero at the prime."""
    if not rows or not rows[0]:
        return 0
    best = 0
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        if any(not prime.normal_form(d).is_zero() for d in _minors(rows, k)):
            best = k
        else:
            break
    return best


def _primes(xy):
    return [ideal(xy, "x", "y"), ideal(xy, "x"), ideal(xy, "y^2 - x^3")]


def _pool(xy):
    return parse_many(
        xy, ["0", "0", "1", "x", "y", "x + 1", "x*y", "y - 1", "x - y"]
    )


def test_rank_agrees_with_minor_search(xy):
    rng = random.Random(0xC0FFEE)
    pool = _pool(xy)
    primes = _primes(xy)
    for trial in range(40):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        rows = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        p = rng.choice(primes)
        assert rank_mod_prime(rows, p) == _rank_by_minors(rows, p), (
            [[c.text() for c in r] for r in rows],
            p.canonical_strings(),
        )


def test_elimination_leaves_unit_pivots_and_a_residual_block_in_the_prime(xy):
    """Pivots are units at the prime, each pivot row is zero in the earlier
    pivot columns, and the residual rows are zero in every pivot column with
    all entries in the prime, whether entries are reduced against the prime
    or not at all."""
    rng = random.Random(0xE11)
    pool = _pool(xy)
    for trial in range(40):
        n = rng.randrange(1, 4)
        rows = [[rng.choice(pool) for _ in range(n)] for _ in range(rng.randrange(1, 5))]
        for p in _primes(xy):
            for modulus in (None, ideal(xy)):
                pivots, residual = eliminate_at_prime(rows, p, modulus)
                cols = [col for _, col, _ in pivots]
                for k, (_, col, row) in enumerate(pivots):
                    assert not p.contains(row[col])
                    assert all(row[c].is_zero() for c in cols[:k])
                for row in residual:
                    assert all(row[c].is_zero() for c in cols)
                    assert all(p.contains(c) for c in row)
                assert len(pivots) == _rank_by_minors(rows, p)


def _greedy_basis(ring, gens, rows, prime, nu):
    """The greedy `_select_basis` replaced: the rank of the rows plus the
    chosen units, recomputed for each candidate in value order; None where
    it refuses."""
    s = len(gens)
    order = sorted(range(s), key=lambda i: (nu.value_of(gens[i]), i))
    aug = [list(r) for r in rows]
    rank = _rank_by_minors(aug, prime)
    chosen = []
    for i in order:
        if rank == s:
            break
        unit = [ring.one() if j == i else ring.zero() for j in range(s)]
        r2 = _rank_by_minors(aug + [unit], prime)
        if r2 > rank:
            chosen.append(i)
            aug.append(unit)
            rank = r2
    return sorted(chosen) if rank == s else None


def _values(table):
    return SimpleNamespace(value_of=lambda f: table[f.text()])


def test_select_basis_agrees_with_the_greedy_rank_search(xy):
    rng = random.Random(0xBA515)
    pool = _pool(xy)
    names = ["x", "y", "x*y", "x^2", "y + 1"]
    for trial in range(40):
        s = rng.randrange(1, 5)
        gens = parse_many(xy, rng.sample(names, s))
        nu = _values({g.text(): rng.randrange(3) for g in gens})
        rows = [[rng.choice(pool) for _ in range(s)] for _ in range(rng.randrange(4))]
        for p in _primes(xy):
            assert _select_basis(xy, gens, rows, p, nu) == _greedy_basis(
                xy, gens, rows, p, nu
            ), ([[c.text() for c in r] for r in rows], p.canonical_strings())


def test_select_basis_refuses_where_the_units_do_not_span(xy):
    """Over a prime the unit rows always span; only an ideal that contains
    1, where no entry is a unit, leaves the rank short."""
    gens = parse_many(xy, ["x", "y"])
    nu = _values({"x": 1, "y": 2})
    everything = ideal(xy, "1")
    assert _greedy_basis(xy, gens, [], everything, nu) is None
    with pytest.raises(CertificationError, match="generators do not span"):
        _select_basis(xy, gens, [], everything, nu)


def test_reduce_entries(xy):
    I = ideal(xy, "x^2")
    vec = parse_many(xy, ["x^3 + y", "x"])
    assert [c.text() for c in reduce_entries(vec, I)] == ["y", "x"]


_FROZEN_ROWS = [
    ["x", "1", "0", "0"], ["y", "0", "1", "0"], ["u*y - v*x", "0", "0", "1"],
    ["x^2", "0", "0", "0"], ["x*y - 1/2*u", "0", "0", "0"], ["y^2", "0", "0", "0"],
]


def test_module_groebner_frozen(uvxy):
    vecs = _vectors(uvxy, _FROZEN_ROWS)
    G = module_groebner(vecs)
    # the FIFO module engine's unreduced output: the inputs plus sixteen
    # S-vector remainders, the same module as the reduced basis
    old = _vectors(uvxy, _FROZEN_ROWS + [
        ["0", "y", "-x", "0"],
        ["0", "v", "-u", "1"],
        ["0", "0", "-u*y + v*x", "y"],
        ["0", "x", "0", "0"],
        ["0", "0", "x^2", "0"],
        ["0", "0", "u*x", "-x"],
        ["1/2*u", "y", "0", "0"],
        ["0", "-1/2*u", "0", "0"],
        ["0", "0", "x*y", "0"],
        ["0", "0", "y", "0"],
        ["0", "0", "0", "-y^2"],
        ["0", "0", "1/2*u", "0"],
        ["0", "0", "0", "u*y + v*x"],
        ["0", "0", "0", "x^2"],
        ["0", "0", "0", "-u"],
        ["0", "0", "0", "x"],
    ])
    assert module_groebner(old) == G
    assert _texts(G) == [
        ["u", "0", "2*x", "0"],
        ["x", "1", "0", "0"],
        ["y", "0", "1", "0"],
        ["0", "u", "0", "0"],
        ["0", "v", "0", "1"],
        ["0", "x", "0", "0"],
        ["0", "y", "-x", "0"],
        ["0", "0", "v*x", "y"],
        ["0", "0", "x^2", "0"],
        ["0", "0", "u", "0"],
        ["0", "0", "y", "0"],
        ["0", "0", "0", "y^2"],
        ["0", "0", "0", "u"],
        ["0", "0", "0", "x"],
    ]


def test_module_basis_ignores_presentation(uvxy):
    """Reversed vectors plus a redundant sum give the same basis and relations."""
    vecs = _vectors(uvxy, _FROZEN_ROWS)
    total = tuple(sum(col, uvxy.zero()) for col in zip(*vecs))
    shuffled = vecs[::-1] + [total]
    assert module_groebner(shuffled) == module_groebner(vecs)

    gens = parse_many(uvxy, ["x", "y", "u*y - v*x"])
    modulus = ideal(uvxy, "x^2", "x*y - 1/2*u", "y^2")
    again = Ideal(uvxy, list(modulus.gens[::-1]) + [sum(modulus.gens, uvxy.zero())])
    assert relation_module(gens, again) == relation_module(gens, modulus)


@pytest.mark.parametrize("module", ["lu.ideals", "lu.modules"])
def test_imports_in_a_fresh_interpreter(module):
    """`lu.modules` imports `lu.ideals` at load time, so `lu.ideals` may reach
    `lu.modules` only from inside a function; a top-level import back would
    fail here whichever module is imported first."""
    env = dict(os.environ, PYTHONPATH=str(Path(lu.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
