"""Symbolic workbench for reducing local uniformization to rank one valuations."""

__version__ = "0.1.0"

from .errors import (
    CertificationError,
    LuError,
    PolySyntaxError,
    SceneError,
    UnsupportedInstance,
)
from .fields import GF, QQ
from .poly import Polynomial, PolyRing
from .parse import parse_many, parse_poly
from .orders import DegRevLex, Lex, WeightRefined, canonical_order
from .ideals import Ideal
from .decomp import associated_primes, is_prime, minimal_primes, radical
from .localring import (
    LocalRing,
    is_free_at,
    is_normally_flat,
    is_regular_local,
    nilpotent_length,
)
from .valuations import Value, WeightValuation, certify, decompose
from .blowup import (
    LocalBlowup,
    compose,
    lift_from_localization,
    lift_from_quotient,
    local_blowup,
    strict_transform,
    transport_through_blowup,
    verify_center_isos,
)
from .pipeline import (
    ReductionTrace,
    Run,
    TraceStep,
    run_reduction,
    step1,
    step2,
    step3,
    toric_uniformizer,
)
from .scenes import load_scene, replay_trace, trace_to_json, write_trace

__all__ = [
    "CertificationError",
    "DegRevLex",
    "GF",
    "Ideal",
    "Lex",
    "LocalBlowup",
    "LocalRing",
    "LuError",
    "Polynomial",
    "PolyRing",
    "PolySyntaxError",
    "QQ",
    "ReductionTrace",
    "Run",
    "SceneError",
    "TraceStep",
    "UnsupportedInstance",
    "Value",
    "WeightRefined",
    "WeightValuation",
    "associated_primes",
    "canonical_order",
    "certify",
    "compose",
    "decompose",
    "is_free_at",
    "is_normally_flat",
    "is_prime",
    "is_regular_local",
    "lift_from_localization",
    "lift_from_quotient",
    "load_scene",
    "local_blowup",
    "minimal_primes",
    "nilpotent_length",
    "parse_many",
    "parse_poly",
    "radical",
    "replay_trace",
    "run_reduction",
    "step1",
    "step2",
    "step3",
    "strict_transform",
    "toric_uniformizer",
    "trace_to_json",
    "transport_through_blowup",
    "verify_center_isos",
    "write_trace",
]
