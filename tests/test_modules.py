import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import lu
from lu.ideals import Ideal
from lu.modules import (
    determinant,
    minors,
    module_groebner,
    rank_mod_prime,
    reduce_entries,
    relation_module,
)
from lu.parse import parse_many, parse_poly

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


def test_determinant_and_minors(xy):
    x, y = xy.var("x"), xy.var("y")
    rows = [[x, y], [y, x]]
    assert determinant(rows) == x * x - y * y
    got = list(minors(rows, 1))
    assert [(ri, ci, d.text()) for ri, ci, d in got] == [
        ((0,), (0,), "x"),
        ((0,), (1,), "y"),
        ((1,), (0,), "y"),
        ((1,), (1,), "x"),
    ]


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


def _rank_by_minors(rows, prime):
    """Independent oracle: largest k with some k-minor nonzero at the prime."""
    if not rows or not rows[0]:
        return 0
    best = 0
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        if any(
            not prime.normal_form(d).is_zero() for _, _, d in minors(rows, k)
        ):
            best = k
        else:
            break
    return best


def test_rank_agrees_with_minor_search(xy):
    rng = random.Random(0xC0FFEE)
    pool = parse_many(
        xy, ["0", "0", "1", "x", "y", "x + 1", "x*y", "y - 1", "x - y"]
    )
    primes = [ideal(xy, "x", "y"), ideal(xy, "x"), ideal(xy, "y^2 - x^3")]
    for trial in range(40):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        rows = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        p = rng.choice(primes)
        assert rank_mod_prime(rows, p) == _rank_by_minors(rows, p), (
            [[c.text() for c in r] for r in rows],
            p.canonical_strings(),
        )


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
