"""Symbolic workbench for reducing local uniformization to rank one valuations.

`__all__` is the documented API: loading a scene, running and replaying the
reduction, the local blowup with its checks and its composite, and the typed
errors of the exit-code contract.  Every other name lives in its submodule
(`lu.ideals`, `lu.localring`, ...).
"""

__version__ = "0.1.0"

from .errors import (
    CertificationError,
    LuError,
    PolySyntaxError,
    ResourceLimit,
    SceneError,
    UnsupportedInstance,
)
from .parse import parse_poly
from .valuations import certify
from .blowup import compose, local_blowup, transport_through_blowup, verify_center_isos
from .pipeline import run_reduction
from .scenes import load_scene, replay_trace, trace_to_json

__all__ = [
    "CertificationError",
    "LuError",
    "PolySyntaxError",
    "ResourceLimit",
    "SceneError",
    "UnsupportedInstance",
    "certify",
    "compose",
    "load_scene",
    "local_blowup",
    "parse_poly",
    "replay_trace",
    "run_reduction",
    "trace_to_json",
    "transport_through_blowup",
    "verify_center_isos",
]
