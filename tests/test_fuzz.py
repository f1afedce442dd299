"""The typed-failure contract, fuzzed: on any input the parser, the scene
loader and the command line raise only LuError, and `lu` exits 0, 1, 2 or 3.

Inputs are small on purpose: exponents and ranks stay low, so an example
tests the contract rather than the cost of a large power.
"""

import json
import math
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import lu.parse
from lu.cli import main
from lu.errors import LuError, PolySyntaxError, ResourceLimit
from lu.fields import GF, QQ
from lu.parse import parse_poly
from lu.poly import PolyRing
from lu.scenes import scene_from_dict

FUZZ = settings(max_examples=50, derandomize=True, deadline=None)

_RINGS = (PolyRing(QQ, ("x", "y")), PolyRing(GF(7), ("x", "y", "z")))


def _small_powers(text):
    """Nested exponents multiply; keep their product small."""
    return math.prod(int(k) for k in re.findall(r"\^(\d+)", text)) <= 64


_texts = st.text(
    st.sampled_from(list("xyz0123456789+-*^/() ")) | st.characters(), max_size=24
).filter(_small_powers)


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text("xyQF", max_size=3),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text("xyQFp", max_size=3), kids, max_size=3),
    max_leaves=6,
)


def _monomial(c, a, b):
    parts = [str(c)] + [f"{v}^{k}" for v, k in (("x", a), ("y", b)) if k]
    return "*".join(parts)


_polys = st.builds(
    str.join,
    st.sampled_from([" + ", " - "]),
    st.lists(
        st.builds(
            _monomial,
            st.sampled_from(["1", "2", "1/2", "3/4"]),
            st.integers(0, 3),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=3,
    ),
)

_names = st.sampled_from([["x", "y"], ["x", "y", "z"]])


def _scenes(junk=st.nothing()):
    """Scenes in the loader's shape over small polynomials; `junk` may stand
    in for the value at any key."""

    def or_junk(valid):
        return valid | junk

    ideal = st.lists(or_junk(_polys), max_size=2)

    def valuation(rank):
        vector = st.lists(st.integers(-1, 3), min_size=rank, max_size=rank)
        weights = st.dictionaries(
            st.sampled_from(["x", "y", "z"]), or_junk(vector), max_size=3
        )
        return st.fixed_dictionaries(
            {
                "support": or_junk(ideal),
                "weights": or_junk(weights),
                "rank": or_junk(st.just(rank)),
            }
        )

    return or_junk(
        st.fixed_dictionaries(
            {
                "field": or_junk(st.sampled_from(["Q", {"Fp": 7}])),
                "vars": or_junk(_names),
                "ideal": or_junk(ideal),
                "localize_at": or_junk(_names),
                "valuation": or_junk(st.integers(1, 2).flatmap(valuation)),
            }
        )
    )


@FUZZ
@given(st.sampled_from(_RINGS), _texts)
def test_parse_poly_raises_only_lu_errors(ring, text):
    try:
        parse_poly(ring, text)
    except LuError:
        pass


@FUZZ
@given(_scenes(junk=_json | _texts))
def test_scene_from_dict_raises_only_lu_errors(data):
    try:
        scene_from_dict(data)
    except LuError:
        pass


@settings(FUZZ, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_scenes(), st.sampled_from(["check", "run"]))
def test_cli_exit_codes_on_fuzzed_scene_files(tmp_path, capsys, data, command):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data))
    argv = [command, str(path)] + (["--samples", "5"] if command == "check" else [])
    assert main(argv) in (0, 1, 2, 3)
    capsys.readouterr()


def test_an_integer_literal_too_long_to_convert_is_a_syntax_error():
    for text in ("9" * 5000, "x^" + "9" * 5000, "1/" + "9" * 5000):
        try:
            parse_poly(_RINGS[0], text)
        except PolySyntaxError as e:
            assert "too long" in str(e)
        else:
            raise AssertionError(f"parsed a {len(text)}-character literal")


def test_a_coefficient_too_long_to_print_is_a_resource_limit(tmp_path, capsys):
    ideal = "y - 10^5000*x^2"
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({
        "field": "Q", "vars": ["x", "y"], "ideal": [ideal], "localize_at": ["x", "y"],
        "valuation": {"support": [ideal], "weights": {"x": [1], "y": [2]}, "rank": 1},
    }))
    assert main(["check", str(path), "--samples", "5"]) == 3
    assert "too many digits" in capsys.readouterr().err


def test_a_power_with_too_many_terms_is_a_resource_limit(monkeypatch):
    xy = _RINGS[0]
    monkeypatch.setattr(lu.parse, "MAX_POWER_TERMS", 100)
    assert len(parse_poly(xy, "(1+x+y)^12").terms) == 91
    with pytest.raises(ResourceLimit, match="more than 100 terms"):
        parse_poly(xy, "(1+x+y)^20")  # up to comb(22, 2) = 231 terms
    monkeypatch.undo()
    start = time.perf_counter()
    with pytest.raises(ResourceLimit):
        parse_poly(xy, "(1+x+y)^1000")
    assert time.perf_counter() - start < 1
