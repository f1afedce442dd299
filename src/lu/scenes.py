"""Scene files and reduction traces.

A scene is a JSON description of a localized instance: field, variables,
defining ideal, localization center, and the weight valuation.  Traces are
the JSON record of a reduction run; serialization is deterministic (sorted
keys, fixed separators) so a repeated run of the same scene is byte
identical, and a trace can be replayed against its scene by re-applying the
recorded blowups and comparing the charts.
"""

import json
import os
import re
from importlib import resources

from .errors import CertificationError, LuError, ResourceLimit, SceneError, UnsupportedInstance
from .fields import GF, QQ, is_int
from .ideals import Ideal
from .localring import LocalRing, is_normally_flat, is_regular_local, nilpotent_length
from .parse import parse_many, parse_poly
from .poly import PolyRing
from .blowup import local_blowup
from .pipeline import BUDGET_EXCEEDED, UNIFORMIZED, UNSUPPORTED
from .valuations import WeightValuation

_FIXTURE = re.compile(r"^F[1-9][0-9]*$")


def _field(spec):
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        p = spec["Fp"]
        if not is_int(p):
            raise SceneError("Fp wants an integer prime")
        return GF(p)
    raise SceneError(f"unknown field {spec!r}; use \"Q\" or {{\"Fp\": p}}")


def _is_str_list(v):
    return isinstance(v, list) and all(isinstance(s, str) for s in v)


def _str_list(d, key):
    v = d.get(key)
    if not _is_str_list(v):
        raise SceneError(f"scene key {key!r} wants a list of strings")
    return v


def scene_from_dict(d):
    """Build the localized ring and its valuation from parsed scene JSON."""
    if not isinstance(d, dict):
        raise SceneError("scene wants a JSON object")
    for key in ("field", "vars", "ideal", "localize_at", "valuation"):
        if key not in d:
            raise SceneError(f"scene is missing {key!r}")
    field = _field(d["field"])
    names = _str_list(d, "vars")
    if not names or len(set(names)) != len(names):
        raise SceneError("vars wants distinct names")
    ring = PolyRing(field, tuple(names))
    for nm in names:
        # text() and traces print names raw, so each must parse back
        try:
            readable = parse_poly(ring, nm) == ring.var(nm)
        except LuError:
            readable = False
        if not readable:
            raise SceneError(f"variable name {nm!r} does not parse as that variable")
    defining = Ideal(ring, parse_many(ring, _str_list(d, "ideal")))
    center = Ideal(ring, parse_many(ring, _str_list(d, "localize_at"))) + defining
    val = d["valuation"]
    if not isinstance(val, dict):
        raise SceneError("valuation wants a JSON object")
    for key in ("support", "weights", "rank"):
        if key not in val:
            raise SceneError(f"valuation is missing {key!r}")
    rank = val["rank"]
    if not is_int(rank) or rank < 1:
        raise SceneError("rank wants a positive integer")
    if rank > len(names):
        # a valuation's rank is at most the ring's dimension
        raise SceneError(f"rank {rank} exceeds the {len(names)} variables")
    support = defining + Ideal(ring, parse_many(ring, _str_list(val, "support")))
    weights = val["weights"]
    if not isinstance(weights, dict):
        raise SceneError("weights wants an object of variable -> vector")
    cols = {}
    for nm, col in weights.items():
        if nm not in ring.names:
            raise SceneError(f"weight for unknown variable {nm!r}")
        if (
            not isinstance(col, list)
            or len(col) != rank
            or not all(is_int(c) for c in col)
        ):
            raise SceneError(f"weight vector for {nm!r} wants {rank} integers")
        cols[nm] = tuple(col)
    zero = (0,) * rank
    rows = tuple(
        tuple(cols.get(nm, zero)[k] for nm in ring.names) for k in range(rank)
    )
    L = LocalRing(ring, defining, center)
    nu = WeightValuation(ring, support, rows)
    return L, nu


def load_scene(source):
    """Scene from a file path (a string or os.PathLike), a packaged fixture
    name (F1..), or a dict."""
    if isinstance(source, dict):
        return scene_from_dict(source)
    if isinstance(source, os.PathLike):
        source = os.fspath(source)
    if not isinstance(source, str):
        raise SceneError(
            f"a scene is a path, a fixture name or a dict, not {type(source).__name__}"
        )
    if _FIXTURE.match(source):
        ref = resources.files("lu").joinpath(f"fixtures/{source}.json")
        if not ref.is_file():
            raise SceneError(f"no packaged fixture named {source}")
        text = ref.read_text()
    else:
        try:
            with open(source, "r") as fh:
                text = fh.read()
        except OSError as e:
            raise SceneError(f"cannot read scene: {e}") from None
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:  # RecursionError: nested too deep
        raise SceneError(f"scene is not valid JSON: {e}") from None
    return scene_from_dict(data)


def _final_fact(trace, compute):
    """A fact about the final chart, or None when a run that ended without
    a Uniformized verdict stopped on a chart where the fact cannot be
    certified."""
    try:
        return compute()
    except (UnsupportedInstance, CertificationError, ResourceLimit):
        if trace.verdict == UNIFORMIZED:
            raise
        return None


def trace_to_dict(trace):
    steps = []
    for s in trace.steps:
        B = s.blowup
        steps.append(
            {
                "label": s.label,
                "b": B.b.text(),
                "a_list": [a.text() for a in B.a_list],
                "chart_ideal_gb": list(B.chart.defining.canonical_strings()),
                "center_gb": list(B.chart.center.canonical_strings()),
                "report": s.report,
            }
        )
    final = trace.final_ring
    if trace.verdict == UNIFORMIZED:  # the verdict certifies both
        regular = flat = True
    else:
        regular = _final_fact(trace, lambda: is_regular_local(final.reduced()).regular)
        flat = _final_fact(trace, lambda: is_normally_flat(final).flat)
    return {
        "steps": steps,
        "final": {
            "ideal_gb": list(final.defining.canonical_strings()),
            "center_gb": list(final.center.canonical_strings()),
            "regular": regular,
            "normally_flat": flat,
            "N": _final_fact(trace, lambda: nilpotent_length(final)),
        },
        "verdict": trace.verdict,
        "reason": trace.reason,
    }


def trace_to_json(trace):
    """Deterministic serialization; equal runs give equal bytes."""
    return json.dumps(trace_to_dict(trace), sort_keys=True, separators=(",", ":")) + "\n"


def write_trace(trace, path):
    """Serialize first, so a trace that cannot be serialized leaves no file."""
    text = trace_to_json(trace)
    with open(path, "w") as fh:
        fh.write(text)


def _need(ok, message):
    if not ok:
        raise SceneError(message)


def _trace_data(trace_json):
    """The parsed trace; SceneError names the first part that replay needs
    and that is missing or of the wrong type."""
    try:
        data = json.loads(trace_json)
    except (ValueError, RecursionError) as e:  # RecursionError: nested too deep
        raise SceneError(f"trace is not valid JSON: {e}") from None
    _need(isinstance(data, dict), "trace wants a JSON object")
    _need(isinstance(data.get("steps"), list), "trace key 'steps' wants a list")
    for i, s in enumerate(data["steps"]):
        _need(isinstance(s, dict), f"trace step {i} wants a JSON object")
        _need(isinstance(s.get("b"), str), f"trace step {i} key 'b' wants a string")
        _need(_is_str_list(s.get("a_list")),
              f"trace step {i} key 'a_list' wants a list of strings")
    _need(isinstance(data.get("final"), dict), "trace key 'final' wants a JSON object")
    return data


def replay_trace(source, trace_json):
    """Re-apply a trace's blowups to its scene and compare every chart.

    It also checks what the trace claims without recomputing it: the
    verdict is one a run can give, and a Uniformized verdict comes with a
    final chart recorded as regular and normally flat.

    Returns the list of mismatch descriptions (a missing recorded basis is
    one); empty means the replay reproduced the recorded charts exactly.  A
    trace without the blowup data or the final record raises SceneError.
    """
    L, _ = load_scene(source)
    data = _trace_data(trace_json)
    problems = []
    for i, s in enumerate(data["steps"]):
        B = local_blowup(L, parse_poly(L.ring, s["b"]), parse_many(L.ring, s["a_list"]))
        got_gb = list(B.chart.defining.canonical_strings())
        got_center = list(B.chart.center.canonical_strings())
        if got_gb != s.get("chart_ideal_gb"):
            problems.append(f"step {i}: chart ideal {got_gb} != {s.get('chart_ideal_gb')}")
        if got_center != s.get("center_gb"):
            problems.append(f"step {i}: center {got_center} != {s.get('center_gb')}")
        L = B.chart
    final = data["final"]
    got_gb = list(L.defining.canonical_strings())
    got_center = list(L.center.canonical_strings())
    if got_gb != final.get("ideal_gb"):
        problems.append(f"final: chart ideal {got_gb} != {final.get('ideal_gb')}")
    if got_center != final.get("center_gb"):
        problems.append(f"final: center {got_center} != {final.get('center_gb')}")
    verdict = data.get("verdict")
    if verdict not in (UNIFORMIZED, UNSUPPORTED, BUDGET_EXCEEDED):
        problems.append(f"verdict {verdict!r} is not a verdict a run gives")
    elif verdict == UNIFORMIZED:
        for fact in ("regular", "normally_flat"):
            claimed = final.get(fact)
            if claimed is not True:
                problems.append(f"final: {fact} is {claimed!r} in a Uniformized trace")
    return problems
