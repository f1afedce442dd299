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
from lu.fields import GF

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
    assert [p.text() for p in v3.witness] == ["x", "-z + y"]
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


def test_radical(xy):
    assert radical(ideal(xy, "x^2", "x*y")) == ideal(xy, "x")
    assert radical(ideal(xy, "x^2", "y^2")) == ideal(xy, "x", "y")
    assert radical(ideal(xy, "y^2 - x^3")) == ideal(xy, "y^2 - x^3")
    assert radical(ideal(xy, "x^2 - y^2")) == ideal(xy, "x^2 - y^2")


def test_radical_refuses_a_binomial_part_unsaturated_at_a_variable():
    with pytest.raises(UnsupportedInstance, match="binomial part is not saturated"):
        radical(ideal(ring("x", "y", "z"), "x*y - x*z"))


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


def test_dimensions(xy, uxy):
    assert krull_dimension(ideal(xy)) == 2
    assert krull_dimension(ideal(xy, "x")) == 1
    assert krull_dimension(ideal(xy, "x", "y")) == 0
    assert krull_dimension(ideal(uxy, "u*y - x^2")) == 2
    assert local_dimension(ideal(uxy, "x", "y"), ideal(uxy, "u", "x", "y")) == 1


def test_the_node_splits_at_its_primality_witness(xy):
    """No splitter is found for (x^2 - y^2), but `is_prime` refutes it with
    a witness, and the split at that witness gives the two lines."""
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
