"""The result records are immutable named tuples with field defaults."""

import pytest

from lu.blowup import CenterIsoReport, LocalBlowup, local_blowup
from lu.decomp import NOT_PRIME, PRIME, Primality
from lu.ideals import Limits
from lu.localring import Freeness, NormalFlatness, Regularity
from lu.parse import parse_poly
from lu.pipeline import ReductionTrace, TraceStep
from lu.scenes import load_scene


def _records():
    L, _ = load_scene("F1")
    B = local_blowup(L, parse_poly(L.ring, "y"), [parse_poly(L.ring, "x")])
    return [
        Limits(),
        Primality(PRIME),
        Regularity(True, 2, 2),
        Freeness(True, 1),
        NormalFlatness(True, 1),
        TraceStep("normal-flat", B, {}),
        ReductionTrace([], "Uniformized", "", L, None),
        CenterIsoReport(True, ()),
        B,
    ]


def test_assigning_to_a_record_raises():
    for record in _records():
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_record_defaults_hold():
    assert Limits() == Limits(10_000, 1_000_000)
    p = Primality(PRIME)
    assert p.witness is None and p.reason == "" and p.is_prime
    assert not Primality(NOT_PRIME, ("g", "h")).is_prime
    flat = NormalFlatness(True, 1)
    assert flat.first_bad == 0 and flat.witness is None
    assert Freeness(True, 2).witness is None


def test_a_blowup_keeps_its_short_repr():
    assert repr(_records()[-1]) == "LocalBlowup(b=y, a=[x], t=['t'])"
