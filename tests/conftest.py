import json
from functools import cache
from importlib import resources
from unittest import mock

import pytest

from lu import localring, pipeline
from lu.fields import QQ
from lu.ideals import Ideal
from lu.localring import LocalRing
from lu.parse import parse_many, parse_poly
from lu.pipeline import run_reduction
from lu.poly import PolyRing
from lu.scenes import load_scene
from lu.valuations import WeightValuation


def ring(*names, field=QQ):
    return PolyRing(field, names)


def ideal(R, *texts):
    return Ideal(R, parse_many(R, list(texts)))


def scene(names, gens, loc, supp, columns, rank, field=QQ):
    """Inline scene builder mirroring the JSON loader's conventions."""
    R = PolyRing(field, tuple(names))
    I = ideal(R, *gens)
    center = ideal(R, *loc) + I
    support = I + ideal(R, *supp)
    zero = (0,) * rank
    rows = tuple(
        tuple(columns.get(nm, zero)[k] for nm in names) for k in range(rank)
    )
    return LocalRing(R, I, center), WeightValuation(R, support, rows)


def chart_like_ideal(rng, R, f=None):
    """A seeded ideal shaped like a blowup chart's: one or two binomials
    c*v + d*m, m a monomial free of the variable v (m = 1 allowed), which
    colon and saturation solve for v, beside one or two random binomials or
    trinomials; with `f`, some of those are multiplied by a power of f.
    Random ideals almost never contain such a binomial."""
    F = R.field
    coeff = lambda: F.coerce(rng.choice([-3, -2, -1, 1, 2, 3]))
    gens = []
    for _ in range(rng.randrange(1, 3)):
        i = rng.randrange(R.n)
        m = [0 if j == i else rng.randrange(3) for j in range(R.n)]
        gens.append(R.monomial([int(j == i) for j in range(R.n)], coeff())
                    + R.monomial(m, coeff()))
    for _ in range(rng.randrange(1, 3)):
        g = R.zero()
        for _ in range(rng.randrange(2, 4)):
            g = g + R.monomial([rng.randrange(3) for _ in R.names], coeff())
        if f is not None and rng.random() < 0.5:
            g = g * f ** rng.randrange(1, 3)
        gens.append(g)
    rng.shuffle(gens)
    return Ideal(R, gens)


# The node y^2 = x^2 at the origin.  Its radical is itself and not prime;
# the split at the primality witness of that radical separates its two lines.
NODE_SCENE = {
    "field": "Q",
    "vars": ["x", "y"],
    "ideal": ["x^2 - y^2"],
    "localize_at": ["x", "y"],
    "valuation": {"support": ["x - y"], "weights": {"x": [1], "y": [1]}, "rank": 1},
}

# The line over the point x = sqrt(2): its support is a principal
# univariate irreducible and its center a zero dimensional prime.
SQRT2_SCENE = {
    "field": "Q",
    "vars": ["x", "y"],
    "ideal": ["x^2 - 2"],
    "localize_at": ["y"],
    "valuation": {"support": [], "weights": {"y": [1]}, "rank": 1},
}


# The cusp y^2 = x^3 times the z line at rank two: its run lifts a blowup
# from the localization at the split center (a regularize step).
CUSP_LINE_SCENE = {
    "field": "Q",
    "vars": ["x", "y", "z"],
    "ideal": ["y^2 - x^3"],
    "localize_at": ["x", "y", "z"],
    "valuation": {
        "support": ["y^2 - x^3"],
        "weights": {"x": [2, 0], "y": [3, 0], "z": [0, 1]},
        "rank": 2,
    },
}


def whitney_scene(k):
    """Whitney u*y = x^k at rank two, reduced by one trim."""
    return {
        "field": "Q",
        "vars": ["u", "x", "y"],
        "ideal": [f"u*y - x^{k}"],
        "localize_at": ["u", "x", "y"],
        "valuation": {
            "support": [],
            "weights": {"u": [0, 1], "x": [1, 1], "y": [k, k - 1]},
            "rank": 2,
        },
    }


# Scenes whose reductions ask for cotangent presentations at variable centers
# (charts and split centers of every step label) and at a center that is not
# variables (sqrt(2)); F2 over F_11 carries them into positive characteristic.
COTANGENT_SCENES = {
    **{name: name for name in ("F1", "F2", "F3", "F4")},
    "node": NODE_SCENE,
    "sqrt2": SQRT2_SCENE,
    "cusp-line": CUSP_LINE_SCENE,
    **{f"whitney-{k}": whitney_scene(k) for k in (2, 3, 4)},
    "F2-F11": dict(
        json.loads(resources.files("lu").joinpath("fixtures/F2.json").read_text()),
        field={"Fp": 11},
    ),
}


@cache
def cotangent_rings(name):
    """Every local ring whose cotangent presentation the reduction of a
    COTANGENT_SCENES scene asks for, in first-asked order."""
    seen = []
    real = localring.cotangent_presentation

    def recording(L):
        if L not in seen:
            seen.append(L)
        return real(L)

    with mock.patch.object(localring, "cotangent_presentation", recording), \
            mock.patch.object(pipeline, "cotangent_presentation", recording):
        run_reduction(*load_scene(COTANGENT_SCENES[name]))
    return tuple(seen)


@pytest.fixture
def xy():
    return ring("x", "y")


@pytest.fixture
def uxy():
    return ring("u", "x", "y")


@pytest.fixture
def uvxy():
    return ring("u", "v", "x", "y")
