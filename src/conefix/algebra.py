"""Two-dimensional commutative Banach algebras with a componentwise cone.

Two concrete algebras are shipped and the family is closed: no registry, no
plugin point.  Both store a pair of floats (a, b) and share the same
arithmetic,

    (a1, b1) * (a2, b2) = (a1*a2, a1*b2 + a2*b1)
    norm((a, b))        = |a| + |b|
    unit                = (1, 0)

so powers satisfy (a, b)^n = (a^n, n*a^(n-1)*b).  The contraction
conditions depend only on the spectral radius of the coefficient and on
(e - k)^-1 (Liu and Xu, Fixed Point Theory Appl. 2013:320), and both have
closed forms, which the library computes directly: the spectral radius is
|a|, and for |a| < 1

    (e - (a, b))^-1 = (1/(1-a), b/(1-a)^2),

evaluated in exact rationals from the two floats and rounded upward, so it
dominates the true inverse coordinate by coordinate (outward rounding in
the sense of Rump, Acta Numerica 19, 2010).  The tests keep the power-norm
estimate and the partial sums of the Neumann series as the independent
oracle for both.

R2Elem reads the pair as a plane vector; UT2Elem reads it as the 2x2
upper triangular matrix [[a, b], [0, a]].  They never mix: any binary
operation on elements of different types raises AlgebraMismatchError.

The cone P consists of the elements with both coordinates >= 0.  Order
comparisons are exact sign tests on float differences, with no epsilon.
An epsilon here would break transitivity of the order and poison every
property test downstream; callers that need tolerance must pre-round.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TypeVar

from .errors import AlgebraMismatchError, NotInvertibleHere

__all__ = [
    "R2Elem",
    "UT2Elem",
    "ConeOrderOutcome",
    "add",
    "sub",
    "scale",
    "mul",
    "norm",
    "unit",
    "zero",
    "in_cone",
    "cone_compare",
    "spectral_radius",
    "neumann_inverse_e_minus",
]

E = TypeVar("E", bound="_Pair")


@dataclass(frozen=True, slots=True)
class _Pair:
    """Shared storage and arithmetic for the two shipped algebras.

    Subclasses add nothing but their name, which is what keeps the kinds
    apart.  Instances are frozen, hashable, and compare by exact float
    equality, and only with elements of their own kind.
    """

    first: float
    second: float

    @classmethod
    def of(cls: type[E], a: float, b: float) -> E:
        return cls(a, b)

    def _require_same_kind(self, other: "_Pair") -> None:
        if type(self) is not type(other):
            raise AlgebraMismatchError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )

    def __add__(self: E, other: E) -> E:
        self._require_same_kind(other)
        return self.of(self.first + other.first, self.second + other.second)

    def __sub__(self: E, other: E) -> E:
        self._require_same_kind(other)
        return self.of(self.first - other.first, self.second - other.second)

    def __neg__(self: E) -> E:
        return self.of(-self.first, -self.second)

    def __mul__(self: E, other: E) -> E:
        self._require_same_kind(other)
        a1, b1 = self.first, self.second
        a2, b2 = other.first, other.second
        return self.of(a1 * a2, a1 * b2 + a2 * b1)

    def scaled(self: E, t: float) -> E:
        return self.of(t * self.first, t * self.second)


class R2Elem(_Pair):
    """Element (first, second) of the plane algebra."""

    __slots__ = ()


class UT2Elem(_Pair):
    """Upper triangular matrix [[first, second], [0, first]] stored as a pair."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class ConeOrderOutcome:
    """Result of comparing two elements against the componentwise cone.

    le: the difference lies in the cone (both coordinates >= 0).
    lt: le holds and the elements differ.
    way_below: the difference lies in the cone interior (both > 0).

    way_below implies le by construction; lt is exactly (le and not equal).
    """

    le: bool
    lt: bool
    way_below: bool


def add(x: E, y: E) -> E:
    return x + y


def sub(x: E, y: E) -> E:
    return x - y


def scale(t: float, x: E) -> E:
    return x.scaled(t)


def mul(x: E, y: E) -> E:
    return x * y


def norm(x: _Pair) -> float:
    return abs(x.first) + abs(x.second)


def unit(kind: type[E]) -> E:
    return kind.of(1.0, 0.0)


def zero(kind: type[E]) -> E:
    return kind.of(0.0, 0.0)


def in_cone(x: _Pair) -> bool:
    return x.first >= 0.0 and x.second >= 0.0


def cone_compare(x: E, y: E) -> ConeOrderOutcome:
    """Compare x against y in the cone order.

    le means x precedes y (y - x in the cone), way_below means the gap is
    interior.  Signs are tested exactly; see the module docstring for why
    there is no epsilon.
    """
    x._require_same_kind(y)
    da = y.first - x.first
    db = y.second - x.second
    le = da >= 0.0 and db >= 0.0
    return ConeOrderOutcome(
        le=le,
        lt=le and not (da == 0.0 and db == 0.0),
        way_below=da > 0.0 and db > 0.0,
    )


def spectral_radius(k: _Pair) -> float:
    """Spectral radius of k: |first coordinate|, exactly."""
    return abs(k.first)


def _round_up(q: Fraction) -> float:
    """The least float >= q."""
    try:
        x = float(q)
    except OverflowError:
        return math.inf if q > 0 else -sys.float_info.max
    return math.nextafter(x, math.inf) if x < q else x


def neumann_inverse_e_minus(k: E) -> E:
    """Inverse of (unit - k), the sum of the Neumann series sum(k^i).

    Valid when the spectral radius of k is below 1, else NotInvertibleHere.
    The closed form (1/(1-a), b/(1-a)^2) is evaluated exactly and each
    coordinate rounded upward, so the result dominates the true inverse
    coordinate by coordinate; it lies in the cone whenever k does.
    """
    rho = spectral_radius(k)
    if not (rho < 1.0 and math.isfinite(k.second)):
        raise NotInvertibleHere(
            f"e - k has no inverse here: k = {k!r} needs spectral radius below 1 "
            f"and finite coordinates"
        )
    u = 1 / (1 - Fraction(k.first))
    return k.of(_round_up(u), _round_up(Fraction(k.second) * u * u))
