"""A verdict must not depend on how a scene happens to be presented.

Each transform below rewrites a fixture scene into one that describes the
same local ring and valuation; `run_reduction` must give the same verdict
and the same step labels on both.
"""

import copy
import json
import re
from importlib import resources

import pytest

from lu.pipeline import run_reduction
from lu.scenes import scene_from_dict

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _fixture(name):
    return json.loads(resources.files("lu").joinpath(f"fixtures/{name}.json").read_text())


def _outcome(d):
    trace = run_reduction(*scene_from_dict(d))
    return trace.verdict, [s.label for s in trace.steps]


def _reversed_generators(d):
    d["ideal"].reverse()
    d["valuation"]["support"].reverse()


def _redundant_generator(d):
    x = d["vars"][0]
    d["ideal"].append(f"({d['ideal'][0]})*({x} + 1) + ({d['ideal'][-1]})")


def _redundant_center_generator(d):
    d["localize_at"].append(" + ".join(f"{nm}^2" for nm in d["vars"]))


def _renamed_variables(d):
    new = {nm: f"w{i}" for i, nm in enumerate(d["vars"])}

    def rename(text):
        return _NAME.sub(lambda m: new[m.group()], text)

    d["vars"] = [new[nm] for nm in d["vars"]]
    d["ideal"] = [rename(g) for g in d["ideal"]]
    d["localize_at"] = [rename(g) for g in d["localize_at"]]
    val = d["valuation"]
    val["support"] = [rename(g) for g in val["support"]]
    val["weights"] = {new[nm]: w for nm, w in val["weights"].items()}


@pytest.mark.parametrize("name", ["F1", "F2", "F3"])
@pytest.mark.parametrize(
    "transform",
    [_reversed_generators, _redundant_generator, _redundant_center_generator,
     _renamed_variables],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_presentation_leaves_the_outcome(name, transform):
    d = _fixture(name)
    moved = copy.deepcopy(d)
    transform(moved)
    assert _outcome(moved) == _outcome(d)


@pytest.mark.parametrize("p", [11, 101])
def test_f2_outcome_does_not_depend_on_the_field(p):
    d = _fixture("F2")
    assert _outcome(d) == ("Uniformized", ["normal-flat"])
    assert _outcome(dict(d, field={"Fp": p})) == _outcome(d)
