import pytest

from lu.fields import QQ
from lu.ideals import Ideal
from lu.localring import LocalRing
from lu.parse import parse_many, parse_poly
from lu.poly import PolyRing
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


# The node y^2 = x^2 at the origin.  No splitter separates its two lines;
# the primality witness of its radical does.
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


@pytest.fixture
def xy():
    return ring("x", "y")


@pytest.fixture
def uxy():
    return ring("u", "x", "y")


@pytest.fixture
def uvxy():
    return ring("u", "v", "x", "y")
