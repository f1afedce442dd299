import pytest

from lu import decomp
from lu.decomp import (
    NOT_PRIME,
    PRIME,
    UNKNOWN,
    associated_primes,
    is_prime,
    krull_dimension,
    local_dimension,
    minimal_primes,
    radical,
    require_prime,
)
from lu.errors import CertificationError, UnsupportedInstance
from lu.fields import GF, QQ
from lu.ideals import Ideal
from lu.parse import parse_poly
from lu.pipeline import run_reduction
from lu.scenes import load_scene

from conftest import ideal, ring


def test_prime_verdicts(xy, uxy):
    assert is_prime(ideal(xy, "x")).verdict == PRIME
    assert is_prime(ideal(xy, "x", "y")).verdict == PRIME
    assert is_prime(ideal(xy)).verdict == PRIME
    assert is_prime(ideal(xy, "y^2 - x^3")).verdict == PRIME
    assert is_prime(ideal(uxy, "u*y - x^2")).verdict == PRIME
    assert is_prime(ideal(xy, "x*y - 1")).verdict == PRIME
    # a principal univariate irreducible, and a zero dimensional field
    assert is_prime(ideal(xy, "x^2 - 2")).verdict == PRIME
    assert is_prime(ideal(xy, "x^2 - 2", "y^2 - 3")).verdict == PRIME


def test_a_reordered_presentation_hits_the_memos(xy):
    I = ideal(xy, "x^2 - y^3", "x*y")
    J = ideal(xy, "x*y", "y^3 - x^2 + x*y")
    assert I == J and I.gens != J.gens
    for memo in (radical, is_prime):
        cold = memo(I)
        hits = memo.cache_info().hits
        assert memo(J) is cold
        assert memo.cache_info().hits == hits + 1


def test_not_prime_comes_with_a_witness(xy):
    v = is_prime(ideal(xy, "x^2", "x*y"))
    assert v.verdict == NOT_PRIME
    f, g = v.witness
    I = ideal(xy, "x^2", "x*y")
    assert I.contains(f * g)
    assert not I.contains(f) and not I.contains(g)
    v2 = is_prime(ideal(xy, "x^2 - y^2"))
    assert v2.verdict == NOT_PRIME
    assert sorted(p.text() for p in v2.witness) == ["-y + x", "y + x"]
    # a variable that is a zero divisor modulo the binomials
    v3 = is_prime(ideal(ring("x", "y", "z"), "x*y - x*z"))
    assert v3.verdict == NOT_PRIME
    assert [p.text() for p in v3.witness] == ["x", "z - y"]
    # a zero dimensional ideal whose primitive element's minimal polynomial splits
    I = ideal(xy, "x^2 - 2", "y^2 - 2")
    v4 = is_prime(I)
    assert v4.verdict == NOT_PRIME
    f, g = v4.witness
    assert I.contains(f * g)
    assert not I.contains(f) and not I.contains(g)


def test_unknown_is_honest(xy):
    """Verdicts outside the decided classes refuse rather than guess."""
    v = is_prime(ideal(xy, "x^2 + y^2 - 1"))
    assert v.verdict == UNKNOWN
    with pytest.raises(UnsupportedInstance):
        require_prime(ideal(xy, "x^2 + y^2 - 1"), "test ideal")
    # the rational root search does not transfer to F_p
    p5 = ring("x", "y", field=GF(5))
    assert is_prime(ideal(p5, "y^2 - x^3")).verdict == UNKNOWN


def test_require_prime_raises_with_witness(xy):
    with pytest.raises(CertificationError):
        require_prime(ideal(xy, "x^2", "x*y"), "test ideal")
    with pytest.raises(CertificationError) as err:
        require_prime(ideal(xy, "y", "x^2 - 1"), "localization center")
    assert str(err.value) == "localization center is not prime: witness (x - 1)*(x + 1)"


def test_radical(xy):
    assert radical(ideal(xy, "x^2", "x*y")) == ideal(xy, "x")
    assert radical(ideal(xy, "x^2", "y^2")) == ideal(xy, "x", "y")
    assert radical(ideal(xy, "y^2 - x^3")) == ideal(xy, "y^2 - x^3")
    assert radical(ideal(xy, "x^2 - y^2")) == ideal(xy, "x^2 - y^2")
    # x^2*(y - z) has the common factor x^2 of its two terms, so x*(y - z) joins
    xyz = ring("x", "y", "z")
    assert radical(ideal(xyz, "x^2*y - x^2*z", "z^3")) == ideal(xyz, "z", "x*y")


def test_radical_refuses_a_binomial_part_unsaturated_at_a_variable():
    with pytest.raises(UnsupportedInstance, match="binomial part is not saturated"):
        radical(ideal(ring("x", "y", "z"), "x*y - x*z"))


def test_a_zero_dimensional_binomial_ideal_with_squarefree_coordinates_is_radical(xy):
    """Seidenberg's lemma: in characteristic zero, a zero dimensional ideal
    holding a squarefree polynomial in each variable is radical, though x
    is a zero divisor on its binomial part."""
    I = ideal(ring("x"), "x^2 - x")
    assert radical(I) == I
    assert [q.canonical_strings() for q in minimal_primes(I)] == [["x"], ["x - 1"]]
    J = ideal(xy, "x^2 - x", "y")
    assert radical(J) == J
    got = [q.canonical_strings() for q in minimal_primes(J)]
    assert got == [["y", "x"], ["y", "x - 1"]]


def test_associated_primes_frozen(xy):
    got = [a.canonical_strings() for a in associated_primes(ideal(xy, "x^2", "x*y"))]
    assert got == [["x"], ["y", "x"]]
    got = [a.canonical_strings() for a in associated_primes(ideal(xy, "x^2*y", "x*y^2"))]
    assert got == [["x"], ["y"], ["y", "x"]]
    R = ring("u", "v", "x", "y")
    got = [
        a.canonical_strings()
        for a in associated_primes(ideal(R, "x^2", "x*y", "y^2", "v*x - u*y"))
    ]
    assert got == [["y", "x"]]
    # the saturation split at y finds the embedded prime
    I = ideal(ring("x", "y", "z"), "x^2", "x*y", "y - z")
    got = [q.canonical_strings() for q in associated_primes(I)]
    assert got == [["z - y", "x"], ["z", "y", "x"]]


def test_intersection_of_associated_primes_is_the_radical(xy):
    for gens in (("x^2", "x*y"), ("x^2*y", "x*y^2"), ("x*y",), ("x^2", "y^2")):
        I = ideal(xy, *gens)
        ass = associated_primes(I)
        acc = ass[0]
        for q in ass[1:]:
            acc = acc.intersect(q)
        assert acc == radical(I)


def test_minimal_primes(xy):
    got = [a.canonical_strings() for a in minimal_primes(ideal(xy, "x*y"))]
    assert got == [["x"], ["y"]]
    I = ideal(ring("x", "y", "z"), "x^2", "x*y", "y - z")
    assert [q.canonical_strings() for q in minimal_primes(I)] == [["z - y", "x"]]
    # a witness split cuts off one point; the part left with three points
    # splits again below the top
    I = ideal(xy, "(x^2 - 1)*(x^2 - 4)", "y")
    got = [q.canonical_strings() for q in minimal_primes(I)]
    assert got == [["y", "x + 1"], ["y", "x + 2"], ["y", "x - 1"], ["y", "x - 2"]]


def test_dimensions(xy, uxy):
    assert krull_dimension(ideal(xy)) == 2
    assert krull_dimension(ideal(xy, "x")) == 1
    assert krull_dimension(ideal(xy, "x", "y")) == 0
    assert krull_dimension(ideal(uxy, "u*y - x^2")) == 2
    assert local_dimension(ideal(uxy, "x", "y"), ideal(uxy, "u", "x", "y")) == 1


def test_local_dimension_refuses_a_center_off_the_ideal_or_its_primes(xy):
    """The center must hold the ideal and one of its minimal primes; (x*y)
    holds the ideal (x*y) but, not being prime, neither (x) nor (y)."""
    with pytest.raises(CertificationError, match="center does not contain the ideal"):
        local_dimension(ideal(xy, "x"), ideal(xy, "y"))
    with pytest.raises(CertificationError, match="no minimal prime inside the localization"):
        local_dimension(ideal(xy, "x*y"), ideal(xy, "x*y"))


def test_a_candidate_without_a_colon_witness_is_dropped():
    """(x^2, x*y + x*z + y*z) is a complete intersection, so it has no
    embedded prime; but the split's branch I + (f^N) leaves the primary
    candidate (x, y, z).  Every leaf is primary, so the leaves hold every
    associated prime, and (I : (x, y, z)) is I itself: no basis element of
    it is a witness, so the candidate is not associated and is dropped."""
    R = ring("x", "y", "z")
    I = ideal(R, "x^2", "x*y + x*z + y*z")
    leaves = [q.canonical_strings() for q in decomp._split_primes(I, 0)]
    assert leaves == [["y", "x"], ["z", "x"], ["z", "y", "x"]]
    assert decomp._certify_associated(I, ideal(R, "x", "y", "z")) is None
    got = [q.canonical_strings() for q in associated_primes(I)]
    assert got == [["y", "x"], ["z", "x"]]


def test_the_primary_splitter_certifies_primary_leaves(xy, uxy):
    """Gianni, Trager & Zacharias: None for a primary ideal, else an h
    outside the radical that is a zero divisor modulo the ideal."""
    assert decomp._primary_splitter(ideal(xy, "x^2", "y"), ideal(xy, "x", "y")) is None
    assert decomp._primary_splitter(ideal(xy, "x"), ideal(xy, "x")) is None
    I, P = ideal(xy, "x^2", "x*y"), ideal(xy, "x")
    assert radical(I) == P
    h = decomp._primary_splitter(I, P)
    assert h == parse_poly(xy, "y")
    assert not P.contains(h) and I.colon(h) != I
    S = decomp._independent_set(ideal(uxy, "u*y - x^2"))
    assert len(S) == 2 == krull_dimension(ideal(uxy, "u*y - x^2"))


def test_the_node_splits_at_its_primality_witness(xy):
    """`is_prime` refutes the radical (x^2 - y^2) with a witness, and the
    split at that witness gives the two lines."""
    for primes in (associated_primes, minimal_primes):
        got = [q.canonical_strings() for q in primes(ideal(xy, "x^2 - y^2"))]
        assert got == [["y + x"], ["y - x"]]


@pytest.mark.parametrize("gen", ["x^3 - y^3"])
def test_a_leaf_not_certified_prime_is_refused_not_returned(xy, gen):
    """The witness split leaves the leaf x^2 + x*y + y^2, whose radical no
    certificate class reaches: the search failed, the input is not wrong."""
    with pytest.raises(UnsupportedInstance, match="radical certificate classes exhausted"):
        radical(ideal(xy, "x^2 + x*y + y^2"))
    for primes in (associated_primes, minimal_primes):
        with pytest.raises(UnsupportedInstance, match="radical certificate classes exhausted"):
            primes(ideal(xy, gen))


def test_associated_primes_asks_no_colon_certificate_of_a_minimal_prime(monkeypatch):
    """A minimal candidate is associated by the verified split alone, so the
    colon certificate is asked only of the others; on F1-F4 of none."""
    asked = []
    certify = decomp._certify_associated

    def recording(I, Q):
        asked.append((I, Q))
        return certify(I, Q)

    monkeypatch.setattr(decomp, "_certify_associated", recording)
    for name in ("F1", "F2", "F3", "F4"):
        assert run_reduction(*load_scene(name)).verdict == "Uniformized"
    assert [Q for I, Q in asked if Q in minimal_primes(I)] == []


def test_minimal_primes_takes_no_colon_certificate(monkeypatch):
    def refuse(*args):
        raise AssertionError("minimal_primes certified a colon")

    monkeypatch.setattr(decomp, "_certify_associated", refuse)
    monkeypatch.setattr(decomp, "associated_primes", refuse)
    R = ring("x", "y", "z")
    got = [q.canonical_strings() for q in minimal_primes(ideal(R, "y^2 - x^3"))]
    assert got == [["y^2 - x^3"]]
    I = ideal(R, "x^2", "x*y", "y - z")
    assert [q.canonical_strings() for q in minimal_primes(I)] == [["z - y", "x"]]


EXHAUSTED = "radical certificate classes exhausted"
UNSATURATED = "binomial part is not saturated at its variables"
CAP = "irreducibility test capped at degree 8, got 9"
CHAR0 = "lattice primality needs characteristic zero"
ZERO_DIM_CHAR0 = "zero dimensional route needs characteristic zero"

# field, variables, generators; is_prime's verdict, witness texts and reason;
# radical's and minimal_primes' canonical strings, or the refusal's text
CASCADE = [
    # the unit ideal first, then the zero, variable and graph classes
    ("Q", "xy", ["1"], NOT_PRIME, None, "unit ideal", ["1"], []),
    ("Q", "xy", [], PRIME, None, "", [], [[]]),
    ("Q", "xy", ["x", "y"], PRIME, None, "", ["y", "x"], [["y", "x"]]),
    ("Q", "xyz", ["x + y - 1", "z - y"], PRIME, None, "",
     ["z + x - 1", "y + x - 1"], [["z + x - 1", "y + x - 1"]]),
    # monomial witness
    ("Q", "xy", ["x^2", "x*y"], NOT_PRIME, ("x", "y"), "", ["x"], [["x"]]),
    ("Q", "xy", ["x*y"], NOT_PRIME, ("x", "y"), "", ["x*y"], [["x"], ["y"]]),
    ("Q", "xyz", ["x^2", "y*z"], NOT_PRIME, ("y", "z"), "",
     ["y*z", "x"], [["y", "x"], ["z", "x"]]),
    # binomial lattice: saturated, a variable zero divisor, a lattice defect
    ("Q", "xy", ["x*y - 1"], PRIME, None, "", ["x*y - 1"], [["x*y - 1"]]),
    ("Q", "xy", ["y^2 - x^3"], PRIME, None, "", ["y^2 - x^3"], [["y^2 - x^3"]]),
    ("Q", "uxy", ["u*y - x^2"], PRIME, None, "", ["u*y - x^2"], [["u*y - x^2"]]),
    ("Q", "xyz", ["x*y - x*z"], NOT_PRIME, ("x", "z - y"), "", UNSATURATED, UNSATURATED),
    ("Q", "xy", ["x^2*y - y"], NOT_PRIME, ("y", "x^2 - 1"), "", UNSATURATED, UNSATURATED),
    ("Q", "x", ["x^2 - x"], NOT_PRIME, ("x", "x - 1"), "", ["x^2 - x"], [["x"], ["x - 1"]]),
    ("Q", "xy", ["x^2 - x", "y"], NOT_PRIME, ("x", "x - 1"), "",
     ["y", "x^2 - x"], [["y", "x"], ["y", "x - 1"]]),
    ("Q", "xy", ["x^2 - y^2"], NOT_PRIME, ("-y + x", "y + x"), "",
     ["y^2 - x^2"], [["y + x"], ["y - x"]]),
    ("Q", "xy", ["x^3 - y^3"], NOT_PRIME, ("-y + x", "y^2 + x*y + x^2"), "",
     ["y^3 - x^3"], EXHAUSTED),
    ("Q", "xy", ["x^2 - y^4"], NOT_PRIME, ("-y^2 + x", "y^2 + x"), "", ["y^4 - x^2"], EXHAUSTED),
    ("Q", "xy", ["y", "x^2 - 1"], NOT_PRIME, ("x - 1", "x + 1"), "",
     ["y", "x^2 - 1"], [["y", "x + 1"], ["y", "x - 1"]]),
    # principal univariate: irreducible, a rational root, a Kronecker factor,
    # the degree cap and the coefficient cap
    ("Q", "xy", ["x^2 - 2"], PRIME, None, "", ["x^2 - 2"], [["x^2 - 2"]]),
    ("Q", "xy", ["x^3 - 2*x"], NOT_PRIME, ("x", "x^2 - 2"), "", EXHAUSTED, EXHAUSTED),
    ("Q", "xy", ["x^4 + 4"], NOT_PRIME, ("x^2 - 2*x + 2", "x^2 + 2*x + 2"), "",
     EXHAUSTED, EXHAUSTED),
    ("Q", "xy", ["x^9 - 2"], UNKNOWN, None, CAP, EXHAUSTED, EXHAUSTED),
    ("Q", "x", ["x^9 - 2"], UNKNOWN, None, CAP,
     ["x^9 - 2"], f"cannot split (x^9 - 2) into primes: unknown, {CAP}"),
    ("Q", "xy", ["x^2 - 3000000000000"], UNKNOWN, None,
     "integer too large to factor: 3000000000000", EXHAUSTED, EXHAUSTED),
    # zero dimensional: a field, witnesses from a variable and from x + y,
    # and the degree cap
    ("Q", "xy", ["x^2 - 2", "y^2 - 3"], PRIME, None, "",
     ["y^2 - 3", "x^2 - 2"], [["y^2 - 3", "x^2 - 2"]]),
    ("Q", "xy", ["y", "x^2 - 4"], NOT_PRIME, ("x + 2", "x - 2"), "",
     ["y", "x^2 - 4"], [["y", "x + 2"], ["y", "x - 2"]]),
    ("Q", "xy", ["x^2 - 2", "y^2"], NOT_PRIME, ("y", "y"), "",
     ["y", "x^2 - 2"], [["y", "x^2 - 2"]]),
    ("Q", "xy", ["x^2 - 2", "y^2 - 2"], NOT_PRIME, ("y + x", "y^2 + 2*x*y + x^2 - 8"), "",
     ["y^2 - 2", "x^2 - 2"], [["y + x", "x^2 - 2"], ["y - x", "x^2 - 2"]]),
    ("Q", "xy", ["x^9 - 2", "y"], UNKNOWN, None, CAP,
     ["y", "x^9 - 2"], f"cannot split (y, x^9 - 2) into primes: unknown, {CAP}"),
    # no class decides
    ("Q", "xy", ["x^2 + y^2 - 1"], UNKNOWN, None, "no decisive class applies",
     EXHAUSTED, EXHAUSTED),
    ("Q", "xy", ["x^2 + x*y + y^2"], UNKNOWN, None, "no decisive class applies",
     EXHAUSTED, EXHAUSTED),
    # over F_p: the classes before the lattice decide as over Q; a binomial
    # ideal gets the lattice class's reason, a zero dimensional one the zero
    # dimensional class's, and any other ideal no class's
    (5, "xy", ["x", "y"], PRIME, None, "", ["y", "x"], [["y", "x"]]),
    (5, "xy", ["x^2", "x*y"], NOT_PRIME, ("x", "y"), "", ["x"], [["x"]]),
    (5, "xy", ["y^2 - x^3"], UNKNOWN, None, CHAR0, EXHAUSTED, EXHAUSTED),
    (5, "xy", ["x^2 + y^2 - 1"], UNKNOWN, None, "no decisive class applies",
     EXHAUSTED, EXHAUSTED),
    (7, "xy", ["x^2 - 2", "y"], UNKNOWN, None, ZERO_DIM_CHAR0, EXHAUSTED, EXHAUSTED),
]


def _cascade_ideal(field, names, gens):
    return ideal(ring(*names, field=QQ if field == "Q" else GF(field)), *gens)


def _outcome(fn, I):
    try:
        got = fn(I)
    except UnsupportedInstance as exc:
        return str(exc)
    if isinstance(got, list):
        return [q.canonical_strings() for q in got]
    return got.canonical_strings()


@pytest.mark.parametrize(
    "field, names, gens, verdict, witness, reason, rad, minimal",
    CASCADE,
    ids=[f"{row[0]}-{row[1]}-{', '.join(row[2])}" for row in CASCADE],
)
def test_the_certificate_cascade_table(field, names, gens, verdict, witness, reason, rad,
                                       minimal):
    I = _cascade_ideal(field, names, gens)
    got = is_prime(I)
    texts = got.witness and tuple(w.text() for w in got.witness)
    assert (got.verdict, texts, got.reason) == (verdict, witness, reason)
    assert _outcome(radical, I) == rad
    assert _outcome(minimal_primes, I) == minimal


@pytest.mark.parametrize("p, gens", [(5, ["x^2 + y^2 - 1"]), (7, ["x^2 - 2", "y"])])
def test_the_lattice_class_passes_over_a_basis_that_is_not_binomial(p, gens):
    """The characteristic guard sits below the shape check: an ideal over
    F_p that is not binomial is not the lattice class's to refuse."""
    I = _cascade_ideal(p, "xy", gens)
    assert decomp._binomial_class(I, I.groebner()) is None
    assert is_prime(I).reason != CHAR0


@pytest.mark.parametrize("gens", [["y^2 - x^3"], ["u*y - x^3"]])
def test_binomial_ideals_over_f_p_keep_the_lattice_reason(gens):
    I = _cascade_ideal(7, "uxy", gens)
    assert is_prime(I).reason == CHAR0


def test_the_table_reaches_every_answer_of_every_class(monkeypatch):
    """Each class of the cascade answers prime, not-prime and unknown on
    some row (a graph basis is always prime, a monomial basis always has a
    witness)."""
    answers = set()

    def recording(cls):
        def answer(I, gb):
            got = cls(I, gb)
            if got is not None:
                answers.add((cls.__name__, got.verdict))
            return got
        return answer

    monkeypatch.setattr(decomp, "_CLASSES", tuple(recording(c) for c in decomp._CLASSES))
    decomp.is_prime.cache_clear()
    for field, names, gens, *_ in CASCADE:
        is_prime(_cascade_ideal(field, names, gens))
    decomp.is_prime.cache_clear()
    every = {(cls, v) for cls in ("_binomial_class", "_principal_univariate", "_zero_dim_class")
             for v in (PRIME, NOT_PRIME, UNKNOWN)}
    assert answers == every | {("_graph_class", PRIME), ("_monomial_witness", NOT_PRIME)}
