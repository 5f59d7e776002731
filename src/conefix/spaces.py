"""Cone metric spaces over the two shipped algebras, plus sequence probes.

A space bundles a carrier set, an algebra kind, and a distance map into the
cone of that algebra.  Distances are exact float expressions of absolute
differences and maxima; the axiom checker therefore samples points from a
dyadic lattice (steps of 2^-20 across the box) so that every difference,
scale by an integer parameter, and sum in the axiom comparisons is computed
without rounding.  Off-lattice carriers would turn one-ulp roundoff into
spurious axiom violations, which is noise, not geometry.

The convergence probe treats "gets small in the cone sense" operationally:
a sequence passes for a probe c if from some index on every member sits
strictly inside the cone below c, with a configurable tail of consecutive
passing indices required before the verdict counts at the horizon.  The
probe judge keeps each entry as its two coordinates in compact float
buffers (16 bytes per entry) and tests all entries against a probe at once
with exact IEEE comparisons a < c per coordinate, no epsilon.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    R2Elem,
    UT2Elem,
    cone_compare,
    in_cone,
    zero,
)
from .errors import MemberOutsideCone, PointOutsideCarrier

__all__ = [
    "IntervalDomain",
    "BoxDomain",
    "IntervalUT2Space",
    "PlaneR2Space",
    "BieleckiPairSpace",
    "AxiomReport",
    "check_metric_axioms",
    "CSeqProbeConfig",
    "ProbeOutcome",
    "CSeqProbeReport",
    "default_probes",
    "is_c_sequence",
]

# lattice resolution for carrier sampling; fine enough to behave like a
# uniform draw at desk scale, coarse enough that differences are exact
_LATTICE = 1 << 20
# the value range BieleckiPairSpace samples its functions from
_PAIR_VALUE_BOX = (-1.0, 1.0)


def _lattice_draw(rng: np.random.Generator, lo: float, hi: float, count: int,
                  open_lo: bool = False, open_hi: bool = False) -> np.ndarray:
    # lattice steps 0 .. _LATTICE from lo, without the step onto an open end
    j = rng.integers(int(open_lo), _LATTICE - int(open_hi), size=count, endpoint=True)
    step = (hi - lo) / _LATTICE
    return lo + j * step


@dataclass(frozen=True)
class IntervalDomain:
    """Closed interval on the line, optionally open at either end.

    A single point (lo == hi with both ends closed) is a valid degenerate
    interval; families of shrinking sub-domains start from one.  contains
    answers a point with a bool and a float64 column with one per lane.  The
    domain of a lane member (see MapFamily) may have float64 columns of
    endpoints, one entry per lane, which are checked in every lane.
    """

    lo: float
    hi: float
    open_lo: bool = False
    open_hi: bool = False

    def __post_init__(self) -> None:
        if not np.all(self.lo <= self.hi):  # NaN endpoints fail too
            raise ValueError("interval must have lo <= hi")
        if (self.open_lo or self.open_hi) and np.any(self.lo == self.hi):
            raise ValueError("a single-point interval must be closed at both ends")

    def contains(self, x):
        above = x > self.lo if self.open_lo else x >= self.lo
        below = x < self.hi if self.open_hi else x <= self.hi
        return above & below

    def sample(self, rng: np.random.Generator, count: int) -> list[float]:
        return [float(v) for v in
                _lattice_draw(rng, self.lo, self.hi, count, self.open_lo, self.open_hi)]


def _in_box(lo, hi, open_hi: bool, p):
    """Whether p = (x, y) lies in the box [lo, hi], open at the top when
    open_hi; one bool per lane when the coordinates or corners are columns."""
    x, y = p
    if open_hi:
        return (lo[0] <= x) & (x < hi[0]) & (lo[1] <= y) & (y < hi[1])
    return (lo[0] <= x) & (x <= hi[0]) & (lo[1] <= y) & (y <= hi[1])


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned rectangle in the plane, optionally open at the top.

    contains answers a point (x, y) with a bool and a pair of float64
    coordinate columns with one per lane; corners may be columns, as
    IntervalDomain's endpoints may.
    """

    lo: tuple[float, float]
    hi: tuple[float, float]
    open_hi: bool = False

    def __post_init__(self) -> None:
        if not np.all((self.lo[0] < self.hi[0]) & (self.lo[1] < self.hi[1])):
            raise ValueError("box must have lo < hi in both coordinates")

    def contains(self, p):
        return _in_box(self.lo, self.hi, self.open_hi, p)

    def sample(self, rng: np.random.Generator, count: int) -> list[tuple[float, float]]:
        xs = _lattice_draw(rng, self.lo[0], self.hi[0], count, open_hi=self.open_hi)
        ys = _lattice_draw(rng, self.lo[1], self.hi[1], count, open_hi=self.open_hi)
        return [(float(x), float(y)) for x, y in zip(xs, ys)]


@dataclass(frozen=True)
class IntervalUT2Space:
    """Points of [0, 1]; distance (|x - y|, scale * |x - y|) as a matrix pair.

    The scale parameter must be finite and >= 1.  Integer scales keep the
    axiom arithmetic exact on lattice samples.
    """

    scale_param: float = 1.0
    kind = UT2Elem

    def __post_init__(self) -> None:
        if not 1.0 <= self.scale_param < math.inf:
            raise ValueError(f"scale_param must be finite and >= 1, got {self.scale_param!r}")

    @property
    def carrier(self) -> IntervalDomain:
        return IntervalDomain(0.0, 1.0)

    def contains(self, x):
        return (0.0 <= x) & (x <= 1.0)

    def sample(self, rng: np.random.Generator, count: int) -> list[float]:
        return self.carrier.sample(rng, count)

    def distance(self, x: float, y: float) -> UT2Elem:
        if not (self.contains(x) and self.contains(y)):
            raise PointOutsideCarrier(f"point outside [0, 1]: {x!r}, {y!r}")
        m = abs(x - y)
        return UT2Elem(m, self.scale_param * m)

    def distances(self, xs: np.ndarray, ys: np.ndarray):
        """distance for arrays of points, as (first, second, outside) columns.

        Lane i of the two columns holds the coordinates distance(xs[i],
        ys[i]) would return, bit for bit; outside[i] marks the lanes where
        distance would raise PointOutsideCarrier instead.
        """
        m = np.abs(xs - ys)
        return m, self.scale_param * m, ~(self.contains(xs) & self.contains(ys))


@dataclass(frozen=True)
class PlaneR2Space:
    """Rectangle in the plane; distance is the componentwise absolute gap.

    The carrier box may be unbounded; sampling then falls back to the
    sample_box window, which must be finite and must overlap the carrier
    box in a rectangle with lo < hi in both coordinates.
    """

    lo: tuple[float, float] = (-math.inf, -math.inf)
    hi: tuple[float, float] = (math.inf, math.inf)
    open_hi: bool = False
    sample_box: tuple[tuple[float, float], tuple[float, float]] = ((-8.0, -8.0), (8.0, 8.0))
    kind = R2Elem

    def __post_init__(self) -> None:
        if not all(math.isfinite(c) for corner in self.sample_box for c in corner):
            raise ValueError(f"sample_box must be finite, got {self.sample_box!r}")
        lo, hi = self._sampling_corners()
        if not (lo[0] < hi[0] and lo[1] < hi[1]):
            raise ValueError(
                f"carrier box lo={self.lo!r}, hi={self.hi!r} does not meet "
                f"sample_box {self.sample_box!r}"
            )

    def contains(self, p):
        return _in_box(self.lo, self.hi, self.open_hi, p)

    def _sampling_corners(self):
        lo = (max(self.lo[0], self.sample_box[0][0]), max(self.lo[1], self.sample_box[0][1]))
        hi = (min(self.hi[0], self.sample_box[1][0]), min(self.hi[1], self.sample_box[1][1]))
        return lo, hi

    @property
    def carrier(self) -> BoxDomain:
        # the samplable stand-in for the carrier: the box itself when finite,
        # clipped to the sample window when unbounded
        return BoxDomain(*self._sampling_corners(), open_hi=self.open_hi)

    def sample(self, rng: np.random.Generator, count: int) -> list[tuple[float, float]]:
        return self.carrier.sample(rng, count)

    def distance(self, p: tuple[float, float], q: tuple[float, float]) -> R2Elem:
        if not (self.contains(p) and self.contains(q)):
            raise PointOutsideCarrier(f"point outside carrier box: {p!r}, {q!r}")
        return R2Elem(abs(p[0] - q[0]), abs(p[1] - q[1]))

    def distances(self, ps: tuple[np.ndarray, np.ndarray], qs: tuple[np.ndarray, np.ndarray]):
        """distance for points given as pairs of coordinate columns.

        Returns (first, second, outside): lane i of the two columns holds
        the coordinates distance((ps[0][i], ps[1][i]), (qs[0][i], qs[1][i]))
        would return, bit for bit; outside[i] marks the lanes where distance
        would raise PointOutsideCarrier instead.
        """
        inside = self.contains(ps) & self.contains(qs)
        return np.abs(ps[0] - qs[0]), np.abs(ps[1] - qs[1]), ~inside


def _weighted_max(gap: np.ndarray, w: np.ndarray) -> np.ndarray:
    """max |gap| * w over the last axis, worked in gap's own buffer: on a
    block of lanes a second temporary costs more than the arithmetic."""
    np.abs(gap, out=gap)
    gap *= w
    return gap.max(axis=-1)


@dataclass(frozen=True)
class BieleckiPairSpace:
    """Pairs of grid functions on [lo, hi] under the Bielecki norm.

    A point is a (y, z) pair of float64 value arrays of shape (grid_pts,),
    the values of two functions on this space's nodes.  The distance is the
    R2Elem of the weighted sups max |gap(t)| * w(t) of the coordinate gaps,
    w(t) = exp(-tau * |t - m|) with m = (lo + hi) / 2 (A. Bielecki, Bull.
    Acad. Polon. Sci. 4, 1956).  Every ODE row is measured in this space:
    its certificate solves on [center - h, center + h], so the weight decays
    both ways from the initial-value node m.

    The weights are rounded to 29 significand bits.  With sampled values on
    the dyadic lattice every |gap| * weight product is then exact, which
    carries the triangle inequality through the maxima without roundoff
    (the module preamble explains the same tradeoff for the point
    carriers).  The rounding changes w(x) / w(s) by at most
    (1 + 2^-29) / (1 - 2^-29), so a contraction rate certified for the
    exact weight holds here up to a factor of about 1 + 2^-28.
    """

    lo: float
    hi: float
    grid_pts: int
    tau: float
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _weight: np.ndarray = field(init=False, repr=False, compare=False)
    kind = R2Elem

    def __post_init__(self) -> None:
        if self.grid_pts < 2:
            raise ValueError("grid_pts must be >= 2")
        if not self.lo < self.hi:
            raise ValueError("interval must have lo < hi")
        if not 0.0 <= self.tau < math.inf:
            raise ValueError(f"weights need a finite tau >= 0, got {self.tau}")
        # built here, before any sweep allocates its lane blocks: made lazily
        # in the middle of a sweep they fragment the heap (a larger peak RSS)
        nodes = np.linspace(self.lo, self.hi, self.grid_pts)
        nodes.flags.writeable = False
        mant, expo = np.frexp(np.exp(-self.tau * np.abs(nodes - (self.lo + self.hi) / 2)))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_weight", np.ldexp(np.round(np.ldexp(mant, 29)), expo - 29))

    def contains(self, p: tuple[np.ndarray, np.ndarray]) -> bool:
        return isinstance(p, tuple) and len(p) == 2 and all(
            isinstance(v, np.ndarray) and v.dtype == np.float64
            and v.shape == self.nodes.shape and bool(np.isfinite(v).all())
            for v in p
        )

    def sample(self, rng: np.random.Generator, count: int
               ) -> list[tuple[np.ndarray, np.ndarray]]:
        # random piecewise-linear interpolants: a handful of lattice-valued
        # breakpoints joined linearly and read off on the grid, then snapped
        # back to the lattice (interpolation rounds off it) so that value
        # differences in the axiom comparisons stay exact
        v_lo, v_hi = _PAIR_VALUE_BOX
        step = (v_hi - v_lo) / _LATTICE
        pieces = 5
        knots = np.linspace(self.lo, self.hi, pieces)
        out = []
        for _ in range(count):
            fy = _lattice_draw(rng, v_lo, v_hi, pieces)
            fz = _lattice_draw(rng, v_lo, v_hi, pieces)
            out.append(tuple(
                v_lo + np.round((np.interp(self.nodes, knots, f) - v_lo) / step) * step
                for f in (fy, fz)))
        return out

    def distance(self, p: tuple[np.ndarray, np.ndarray],
                 q: tuple[np.ndarray, np.ndarray]) -> R2Elem:
        if not (self.contains(p) and self.contains(q)):
            raise PointOutsideCarrier(
                "pair is not two finite float64 arrays on this space's nodes")
        d1, d2, _ = self.distances(p, q)
        return R2Elem(float(d1), float(d2))

    def distances(self, ps: tuple[np.ndarray, np.ndarray], qs: tuple[np.ndarray, np.ndarray]):
        """distance for points given as pairs of value arrays on the nodes.

        Each of the four arrays has shape (..., grid_pts), one function per
        row, and the shapes broadcast.  Returns (first, second, outside):
        row i of the two columns holds the coordinates distance would
        return for the functions of row i, bit for bit; outside[i] marks
        the rows with a non-finite value, where distance would raise
        PointOutsideCarrier instead.
        """
        d1, d2 = (_weighted_max(p - q, self._weight) for p, q in zip(ps, qs))
        # only a row whose maximum is not finite can hold a non-finite value
        outside = ~(np.isfinite(d1) & np.isfinite(d2))
        if outside.any():
            finite = [np.isfinite(v).all(axis=-1) for v in (*ps, *qs)]
            outside &= ~(finite[0] & finite[1] & finite[2] & finite[3])
        return d1, d2, outside


def _points_equal(x, y) -> bool:
    if isinstance(x, tuple) and isinstance(x[0], np.ndarray):
        return bool(np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1]))
    return x == y


@dataclass(frozen=True)
class AxiomReport:
    """Violation tallies from a randomized metric axiom check."""

    samples: int
    d1_violations: int
    d2_violations: int
    d3_violations: int

    @property
    def clean(self) -> bool:
        return self.d1_violations == 0 and self.d2_violations == 0 and self.d3_violations == 0


def check_metric_axioms(space, samples: int = 10_000, seed: int = 0) -> AxiomReport:
    """Sample triples from the carrier and count metric axiom violations.

    Checked per triple (x, y, z):
      positivity and identity: d(x, y) in the cone, theta exactly when x = y,
      and d(x, x) = theta;
      symmetry: d(x, y) equals d(y, x) exactly;
      triangle: d(x, y) precedes d(x, z) + d(z, y) in the cone order.

    Comparisons are exact; see the module docstring for the sampling lattice
    that makes exactness attainable.  ValueError unless samples >= 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    rng = np.random.default_rng(seed)
    pts = space.sample(rng, 3 * samples)
    theta = zero(space.kind)
    d1 = d2 = d3 = 0
    for i in range(samples):
        x, y, z = pts[3 * i], pts[3 * i + 1], pts[3 * i + 2]
        dxy = space.distance(x, y)
        dyx = space.distance(y, x)
        dxz = space.distance(x, z)
        dzy = space.distance(z, y)
        same = _points_equal(x, y)
        if not in_cone(dxy) or (dxy == theta) != same or space.distance(x, x) != theta:
            d1 += 1
        if dxy != dyx:
            d2 += 1
        if not cone_compare(dxy, dxz + dzy).le:
            d3 += 1
    return AxiomReport(samples, d1, d2, d3)


def default_probes(kind) -> tuple:
    """Interior probes (s, s) at four scales, largest first."""
    return tuple(kind.of(s, s) for s in (1.0, 0.1, 0.01, 0.001))


@dataclass(frozen=True)
class CSeqProbeConfig:
    """Probe set and horizon for the empirical smallness check.

    tail_required is the number of consecutive passing indices demanded at
    the end of the horizon before a probe verdict counts as a pass; the
    judged window start .. horizon must hold at least that many.
    """

    probes: tuple
    horizon: int = 10_000
    tail_required: int = 16
    start: int = 1

    def __post_init__(self) -> None:
        if not self.probes:
            raise ValueError("need at least one probe")
        if not self.tail_required >= 1:
            raise ValueError(f"tail_required must be >= 1, got {self.tail_required}")
        if not self.horizon >= self.tail_required:
            raise ValueError(
                f"horizon must be >= tail_required ({self.tail_required}), got {self.horizon}"
            )
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.horizon - self.start + 1 < self.tail_required:
            raise ValueError(f"the window {self.start} .. {self.horizon} is shorter "
                             f"than tail_required ({self.tail_required})")
        for c in self.probes:
            if not (c.first > 0.0 and c.second > 0.0):
                raise ValueError("probes must lie strictly inside the cone")

    @classmethod
    def default(cls, kind, horizon: int = 10_000) -> "CSeqProbeConfig":
        return cls(default_probes(kind), horizon)


@dataclass(frozen=True)
class ProbeOutcome:
    """Per-probe result: first index from which the sequence stays below."""

    probe: tuple[float, float]
    n_found: int | None
    verdict: bool


@dataclass(frozen=True)
class CSeqProbeReport:
    outcomes: tuple[ProbeOutcome, ...]
    passed: bool


def is_c_sequence(seq, cfg: CSeqProbeConfig) -> CSeqProbeReport:
    """Probe whether a cone sequence gets eventually small, empirically.

    seq is a callable on integer indices; indices cfg.start .. cfg.horizon
    inclusive are fetched once, in order.
    Every entry must lie in the cone; MemberOutsideCone is raised at the
    first entry that does not, before any later index is fetched.

    For each probe c the report carries the least index N such that every
    evaluated entry from N on sits strictly below c in the cone interior
    sense, with N = 0 meaning no entry ever failed.  The probe verdict
    requires the final tail_required indices to pass; a sequence that only
    dips below c briefly does not pass.

    Entries are kept as two buffers of coordinates, 16 bytes per entry, and
    judged against each probe in one pass of exact IEEE comparisons a < c
    per coordinate, no epsilon.  With gradual underflow c - a > 0 holds
    exactly when a < c, infinities included, so this is the way_below test
    of cone_compare.  Entries of another kind than a probe raise
    AlgebraMismatchError, as cone_compare does.

    seq may instead be a columnar source (kind, fn), whose columns are the
    entries: fn(ns), with ns the int64 column cfg.start .. cfg.horizon,
    returns (first, second), float64 arrays of the shape of ns, lane i
    holding the coordinates of the entry at ns[i], an element of kind.
    Anything else raises TypeError, and an exception from fn propagates:
    fn raises what the sequence raises at its least failing index (see
    fixed_point._entries).  The least lane outside the cone, NaN included,
    raises MemberOutsideCone as the entry would, and a probe of another
    kind AlgebraMismatchError.  fn runs with numpy division by zero
    raising, so a lane that divides by index 0 raises FloatingPointError;
    overflow, underflow and invalid operations are left to the columns.
    """
    kinds: dict[type, object] = {}  # an entry per kind, in order of first appearance
    if type(seq) is tuple:
        kind, fn = seq
        ns = np.arange(cfg.start, cfg.horizon + 1, dtype=np.int64)
        with np.errstate(divide="raise", over="ignore", under="ignore", invalid="ignore"):
            got = fn(ns)
        if not (type(got) is tuple and len(got) == 2 and all(
                type(c) is np.ndarray and c.dtype == np.float64 and c.shape == ns.shape
                for c in got)):
            raise TypeError("a columnar source must return (first, second) float64 "
                            "columns, one entry per index")
        a, b = got
        outside = np.flatnonzero(~((a >= 0.0) & (b >= 0.0)))
        if outside.size:
            i = outside[0]
            v = kind.of(a[i].item(), b[i].item())
            raise MemberOutsideCone(f"entry at index {ns[i]} left the cone: {v!r}")
        kinds[kind] = zero(kind)
    else:
        firsts = array("d")
        seconds = array("d")
        for n in range(cfg.start, cfg.horizon + 1):
            v = seq(n)
            if not in_cone(v):
                raise MemberOutsideCone(f"entry at index {n} left the cone: {v!r}")
            kinds[type(v)] = v
            firsts.append(v.first)
            seconds.append(v.second)
        a = np.frombuffer(firsts, dtype=np.float64)
        b = np.frombuffer(seconds, dtype=np.float64)
    outcomes = []
    for c in cfg.probes:
        for v in kinds.values():
            v._require_same_kind(c)
        fails = np.flatnonzero(~((a < c.first) & (b < c.second)))
        last_fail = cfg.start + int(fails[-1]) if fails.size else None
        if last_fail is None:
            n_found: int | None = 0
            verdict = True
        elif last_fail <= cfg.horizon - cfg.tail_required:
            n_found = last_fail + 1
            verdict = True
        else:
            n_found = None
            verdict = False
        outcomes.append(ProbeOutcome((c.first, c.second), n_found, verdict))
    return CSeqProbeReport(tuple(outcomes), all(o.verdict for o in outcomes))
