"""Exception types raised by the library.

Every contract violation has a dedicated class so callers (and the CLI,
which maps them to machine-readable error JSON) can tell failure modes
apart without parsing messages.
"""


class SubdesignsError(Exception):
    """Base class for all library errors."""


class CertificateFailed(SubdesignsError, AssertionError):
    """A brute-force certificate or invariant did not hold."""


def certify(cond, msg: str) -> None:
    """Raise CertificateFailed(msg) unless cond holds; unlike assert, python -O keeps it."""
    if not cond:
        raise CertificateFailed(msg)


# --- gf -------------------------------------------------------------------

class NotPrime(SubdesignsError, ValueError):
    pass


class NotIrreducible(SubdesignsError, ValueError):
    pass


class DivisionByZero(SubdesignsError, ZeroDivisionError):
    pass


class TowerMismatch(SubdesignsError, ValueError):
    pass


class NotInBaseField(SubdesignsError, ValueError):
    pass


# --- subspace ---------------------------------------------------------------

class DimensionMismatch(SubdesignsError, ValueError):
    pass


class AmbientMismatch(SubdesignsError, ValueError):
    pass


class EnumerationCapExceeded(SubdesignsError, RuntimeError):
    pass


class ZeroSubspace(SubdesignsError, ValueError):
    pass


# --- skewpoly ---------------------------------------------------------------

class ParameterMismatch(SubdesignsError, ValueError):
    pass


class DivisionByZeroPoly(SubdesignsError, ZeroDivisionError):
    pass


class BothZero(SubdesignsError, ValueError):
    pass


class ZeroPoly(SubdesignsError, ValueError):
    pass


class ZeroTwist(SubdesignsError, ValueError):
    pass


# --- design -----------------------------------------------------------------

class NotABasis(SubdesignsError, ValueError):
    pass


class BadPartition(SubdesignsError, ValueError):
    pass


class NormClash(SubdesignsError, ValueError):
    pass


class EtaInNormGroup(SubdesignsError, ValueError):
    pass


class TooFewBlocks(SubdesignsError, ValueError):
    pass


class TooManyBlocks(SubdesignsError, ValueError):
    pass


class MixedParameters(SubdesignsError, ValueError):
    pass


class GcdViolation(SubdesignsError, ValueError):
    pass


class IncrementTooLarge(SubdesignsError, ValueError):
    pass


class DualSpanTooSmall(SubdesignsError, ValueError):
    pass


class BadExponent(SubdesignsError, ValueError):
    pass


# --- sumrank ----------------------------------------------------------------

class DegenerateCode(SubdesignsError, ValueError):
    pass


class ZeroMember(SubdesignsError, ValueError):
    pass


class ProfileNotSorted(SubdesignsError, ValueError):
    pass


class InvalidDistance(SubdesignsError, ValueError):
    pass


class DegenerateDual(SubdesignsError, ValueError):
    pass


class NotInvertible(SubdesignsError, ValueError):
    pass


class LengthProfileBroken(SubdesignsError, ValueError):
    pass


# --- hamming ----------------------------------------------------------------

class NotTwoIntersection(SubdesignsError, ValueError):
    pass


# --- strongbridge -----------------------------------------------------------

class NotEvasive(SubdesignsError, ValueError):
    pass


class SpanTooSmall(SubdesignsError, ValueError):
    pass


class NotAMultiple(SubdesignsError, ValueError):
    pass


class PlacesCollide(SubdesignsError, ValueError):
    pass


class DegreeTooLarge(SubdesignsError, ValueError):
    pass


class BadParameters(SubdesignsError, ValueError):
    pass


# --- expander ---------------------------------------------------------------

class BadDims(SubdesignsError, ValueError):
    pass


# --- formats ----------------------------------------------------------------

class FormatError(SubdesignsError, ValueError):
    pass
