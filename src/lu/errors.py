"""Exception types shared across the package."""


class LuError(Exception):
    """Base class for every error this package raises on purpose."""


class PolySyntaxError(LuError):
    """Malformed polynomial or scene expression text."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class UnknownVariable(PolySyntaxError):
    """An identifier that is not a variable of the ambient ring."""


class DimensionMismatch(LuError):
    """Exponent tuple, weight row, or point of the wrong arity."""


class ExponentOverflow(LuError):
    """A monomial exponent passed the hard cap."""


class ResourceLimit(LuError):
    """A computation exceeded its reduction or term-operation budget."""


class UnsupportedInstance(LuError):
    """The input is outside the class this implementation can certify.

    Raised instead of guessing: every positive answer the package returns
    is backed by an instance check, and inputs where no such check applies
    are refused rather than answered heuristically.
    """


class CertificationError(LuError):
    """An instance check of a declared property failed on concrete data."""

    def __init__(self, check, detail=""):
        msg = check if not detail else f"{check}: {detail}"
        super().__init__(msg)
        self.check = check
        self.detail = detail


class NotMinimalPrime(CertificationError):
    """Declared support is an embedded or non-associated prime."""


class InitialIdealNotPrime(CertificationError):
    """The weight-initial ideal of the support has a zero divisor witness."""


class NotCentered(CertificationError):
    """Valuation values are inconsistent with the declared center."""


class ValueInequalityViolated(CertificationError):
    """A blowup numerator has smaller value than the denominator."""


class SupportDivision(CertificationError):
    """Attempt to divide by an element of the support (value infinity)."""


class ChartMismatch(CertificationError):
    """Two charts expected to be identified do not match variable for variable."""


class IsomorphismCheckFailed(CertificationError):
    """A claimed ring identification failed its two-sided kernel check."""


class SceneError(LuError):
    """A scene or trace that is not valid JSON or does not follow its schema."""
