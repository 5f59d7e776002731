"""Exception types shared across the package.

Every error raised by library code derives from ConefixError so callers can
catch the whole family with one except clause.  Names describe the contract
that was violated, not the internal state that tripped it.
"""

from __future__ import annotations


class ConefixError(Exception):
    """Base class for all library errors."""


class AlgebraMismatchError(ConefixError, TypeError):
    """Two elements from different algebras were combined."""


class NotInvertibleHere(ConefixError):
    """e - k was to be inverted where the spectral radius of k is not below 1."""


class NoConvergence(ConefixError):
    """An iterative computation hit its iteration cap before settling."""


class PointOutsideCarrier(ConefixError, ValueError):
    """A point handed to a space does not belong to its carrier set."""


class MemberOutsideCone(ConefixError, ValueError):
    """A sequence entry left the cone (some coordinate went negative)."""


class EmptyGrid(ConefixError, ValueError):
    """Fewer than two grid samples were supplied where an integral needs them."""


class IterateEscapedDomain(ConefixError):
    """A map iterate left the domain it was declared to preserve."""


class WitnessOutsideDomain(ConefixError, ValueError):
    """A supplied witness or challenge point is not in the required domain."""


class ConditionViolated(ConefixError):
    """A sampled hypothesis check found counter-examples."""


class DegenerateBox(ConefixError, ValueError):
    """A certification box has a non-positive half-width."""


class LeftInvariantSet(ConefixError):
    """A Picard iterate left the invariant set the certificate promised."""
