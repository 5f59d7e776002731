"""Contraction maps on cone metric spaces and convergence-mode checkers.

The solver is plain Picard iteration with an a-posteriori stopping rule:
for a coefficient (a, b) with spectral radius r = |a|, iteration stops once
the step distance delta has norm(delta) + c * delta.first below
tol * (1 - r) / max(r, 1e-15), with c = |b| / (max(r, 1e-15) * (1 - r)), or
is zero.  That converts a step into a distance-to-fixed-point guarantee
(see _stop_rule); tol must be positive and finite.

The harnesses replay limit theorems for families of contractions at desk
scale.  Each harness computes, per index n, the distance between a member
fixed point and the limit fixed point together with the theorem's certified
upper bound for that distance, and reports whether the cone inequality held
and whether the distance sequence passes the smallness probe.  A harness
solves all the members it needs from the family's lane form (see MapFamily)
as numpy lanes, each stopping on its own stop rule, bit for bit as
picard_solve, and keeps them as columns (SolvedMembers); reading a member
whose lane failed raises what picard_solve raises for it.  The convergence
checkers read the same lane form, and every probe is judged from columns
that raise what the sequence raises at its least failing index (_entries).

Bounds are outward rounded: the inverse (e - k)^-1 is the closed form
rounded upward, which dominates the exact inverse, but the product
(inverse * displacement) is rounded to nearest.  Every reported bound
therefore adds a roundoff pad to both coordinates.  Without the pad,
families that meet their bound with equality would flip bound_respected on
one-ulp noise.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .algebra import (
    cone_compare,
    mul,
    neumann_inverse_e_minus,
    norm,
    scale,
    spectral_radius,
)
from .errors import IterateEscapedDomain, NoConvergence, PointOutsideCarrier, WitnessOutsideDomain
from .spaces import (
    BoxDomain,
    CSeqProbeConfig,
    CSeqProbeReport,
    IntervalDomain,
    PlaneR2Space,
    is_c_sequence,
)

__all__ = [
    "ContractionMap",
    "PlainMap",
    "MapFamily",
    "FixedPointResult",
    "SolvedMembers",
    "ContractionCheckReport",
    "BoundTable",
    "ConvergenceReport",
    "verify_contraction",
    "picard_solve",
    "check_pointwise_convergence",
    "check_uniform_convergence",
    "check_equicontinuity",
    "uniform_limit_harness",
    "pointwise_limit_harness",
    "subdomain_limit_harness",
    "fixed_point_cluster_check",
    "property_g_check",
    "property_h_check",
    "h_limit_implies_g_limit_check",
    "g_limit_uniqueness_check",
    "equicontinuous_pointwise_check",
    "dense_sample",
]

_EPS = 2.0 ** -52
# the most iterations picard_solve and the lane solver run before giving up
_MAX_ITER = 100_000


@dataclass
class ContractionMap:
    """A self map with a declared cone Lipschitz coefficient.

    At construction the coefficient must be finite, have spectral radius
    below 1 and lie in the cone P, as the fixed point theorems over Banach
    algebras require, in every lane for a lane member (see MapFamily).
    That does not prove the declared coefficient, it only sanity checks
    it; verify_contraction samples it.
    """

    map: Callable
    alpha: object
    domain: object | None = None

    def __post_init__(self) -> None:
        first, second = self.alpha.first, self.alpha.second
        rho = np.abs(first)
        if not np.all(rho < 1.0):
            raise ValueError(f"declared coefficient has spectral radius {np.max(rho)}, needs < 1")
        if not (np.all(np.isfinite(first)) and np.all(np.isfinite(second))):
            raise ValueError(f"declared coefficient must be finite, got {self.alpha!r}")
        _require_cone(self.alpha, "declared coefficient")


def _require_cone(k, what: str) -> None:
    """ValueError unless both coordinates of k, in every lane, are >= 0."""
    if not (np.all(k.first >= 0.0) and np.all(k.second >= 0.0)):
        raise ValueError(f"{what} must lie in the cone (both coordinates >= 0), got {k!r}")


@dataclass(frozen=True, slots=True)
class PlainMap:
    """A bare self map with an optional domain, no coefficient attached.

    The convergence-mode checkers only need something to apply, so families
    of non-contractions (the whole point of some counterexamples) are
    MapFamilys of PlainMaps.  Having no coefficient, a PlainMap cannot reach
    a solver or a fixed point harness.
    """

    map: Callable
    domain: object | None = None


class MapFamily:
    """An indexed family of contraction maps with a limit map.

    members is a callable n -> ContractionMap for n >= 1; member(n) memoises
    it, because the rows of two harnesses may read the same indices.  For the
    pointwise, uniform and equicontinuity checkers, members and limit may be
    PlainMaps instead; the fixed point harnesses need coefficients.
    coefficient_bound, when given, must lie in the cone and dominate every
    member coefficient in the cone order; the pointwise and subdomain
    harnesses check that it does for every member they solve.  adversarial,
    when given, maps n to extra domain points the uniform checker must
    include for that index.

    members is also the family's lane form: members(ns), with ns an int64
    index column, is one map whose map takes the points of all lanes at once
    (a float64 column on the interval space, a pair of coordinate columns
    (xs, ys) on the plane) and returns the images in the same form, and
    whose alpha coordinates and domain endpoints are float64 columns or
    scalars shared by every lane (a domain's open_lo and open_hi are shared
    by every lane); its domain's contains answers for those points, one bool
    per lane, as IntervalDomain's and BoxDomain's do.  Lane i must equal
    members(ns[i]) bit for bit, which holds when each expression is written
    once with + - * / and abs only, on floats (IEEE exact in numpy and in
    Python alike; int64 products of indices could wrap where Python ints
    grow).  Where a numpy ufunc rounds otherwise than the scalar operator
    (numpy's power against Python's float ** int), the member may apply the
    scalar operator lane by lane when its index is an array.  The map must
    not write into its input columns, which may be read-only broadcast
    views.  The fixed point harnesses solve members from the lane form
    alone: an exception from it propagates, and a map that does not return
    float64 columns of the lanes' shape, or a domain that does not answer
    one bool per lane, raises TypeError.  The convergence checkers take the
    same contract.
    """

    def __init__(
        self,
        members: Callable[[int], ContractionMap],
        limit: ContractionMap,
        coefficient_bound=None,
        adversarial: Callable[[int], list] | None = None,
    ) -> None:
        if coefficient_bound is not None:
            _require_cone(coefficient_bound, "coefficient_bound")
        self._members = members
        self.limit = limit
        self.coefficient_bound = coefficient_bound
        self.adversarial = adversarial
        self._cache: dict[int, ContractionMap] = {}

    def member(self, n: int) -> ContractionMap:
        got = self._cache.get(n)
        if got is None:
            got = self._members(n)
            self._cache[n] = got
        return got

    @property
    def bound_coefficient(self):
        return self.coefficient_bound if self.coefficient_bound is not None else self.limit.alpha


@dataclass(frozen=True)
class FixedPointResult:
    point: object
    iterations: int
    residual: object


@dataclass(frozen=True)
class ContractionCheckReport:
    samples: int
    violations: int
    worst_excess: float
    example: tuple | None

    @property
    def ok(self) -> bool:
        return self.violations == 0


def verify_contraction(
    T: ContractionMap,
    space,
    samples: int = 1000,
    seed: int = 0,
    slack: float = 1e-12,
) -> ContractionCheckReport:
    """Sample point pairs and test d(Tx, Ty) against alpha * d(x, y).

    slack is an absolute allowance added to both coordinates of the right
    side before the exact cone test; it absorbs the one-ulp noise that maps
    with additive constants produce at equality, per the pre-rounding rule
    for order comparisons.  Pass slack=0 for a literal test.
    """
    rng = np.random.default_rng(seed)
    domain = T.domain if T.domain is not None else space
    pts = domain.sample(rng, 2 * samples)
    pad = type(T.alpha).of(slack, slack)
    violations = 0
    worst = 0.0
    example = None
    for i in range(samples):
        x, y = pts[2 * i], pts[2 * i + 1]
        lhs = space.distance(T.map(x), T.map(y))
        rhs = mul(T.alpha, space.distance(x, y)) + pad
        if not cone_compare(lhs, rhs).le:
            violations += 1
            excess = max(lhs.first - rhs.first, lhs.second - rhs.second)
            if excess > worst:
                worst = excess
                example = (x, y)
    return ContractionCheckReport(samples, violations, worst, example)


def _stop_rule(tol, r, b):
    """(threshold, first_weight) of the Picard stop rule at a coefficient
    (a, b) with spectral radius r = |a|: iteration stops once a step delta
    has norm(delta) + first_weight * delta.first < threshold, or is zero.

    Both algebras multiply as dual numbers, so the a-posteriori bound
    d(x_n, x*) <= inverse(e - alpha) * alpha * delta has the norm
    r / (1 - r) * norm(delta) + |b| / (1 - r)^2 * delta.first, and the rule
    keeps it below tol.  r and b may be floats or numpy arrays of rates;
    for b = 0 the weight is 0.0 and the rule is the plain norm test.
    ValueError unless tol is positive and finite.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    r_floor = np.maximum(r, 1e-15)
    return tol * (1.0 - r) / r_floor, np.abs(b) / (r_floor * (1.0 - r))


def picard_solve(
    T: ContractionMap,
    space,
    x0,
    tol: float = 1e-10,
) -> FixedPointResult:
    """Iterate x <- T(x) until the step distance certifies tol accuracy
    (see _stop_rule).

    Raises ValueError unless tol is positive and finite,
    IterateEscapedDomain if the start or an iterate is outside the declared
    domain and NoConvergence if _MAX_ITER iterations pass first.  A start
    already at the fixed point returns after one application with residual
    theta.
    """
    threshold, first_weight = map(
        float, _stop_rule(tol, spectral_radius(T.alpha), T.alpha.second))
    domain = T.domain
    if domain is not None and not domain.contains(x0):
        raise _escaped_start(x0)
    x = x0
    for it in range(1, _MAX_ITER + 1):
        x_next = T.map(x)
        if domain is not None and not domain.contains(x_next):
            raise _escaped(it, x_next)
        delta = space.distance(x_next, x)
        step = norm(delta)
        x = x_next
        if step + first_weight * delta.first < threshold or step == 0.0:
            residual = space.distance(T.map(x), x)
            return FixedPointResult(x, it, residual)
    raise _no_fixed_point(tol)


def _escaped_start(x0) -> IterateEscapedDomain:
    return IterateEscapedDomain(f"start point {x0!r} is outside the declared domain")


def _escaped(it: int, x) -> IterateEscapedDomain:
    return IterateEscapedDomain(f"iterate {it} left the declared domain: {x!r}")


def _no_fixed_point(tol) -> NoConvergence:
    return NoConvergence(f"no fixed point within {_MAX_ITER} iterations (tol {tol})")


# ---------------------------------------------------------------------------
# convergence mode checkers


def dense_sample(domain, count: int) -> list:
    """Deterministic dense point set for sup-style checks over a domain."""
    if isinstance(domain, IntervalDomain):
        lo, hi = domain.lo, domain.hi
        pts = np.linspace(lo, hi, count)
        step = (hi - lo) / max(count - 1, 1)
        vals = list(map(float, pts))
        if domain.open_lo:
            vals[0] = lo + 0.5 * step
        if domain.open_hi:
            vals[-1] = hi - 0.5 * step
        return vals
    if isinstance(domain, BoxDomain):
        per_axis = max(2, int(math.isqrt(count)))
        xs = np.linspace(domain.lo[0], domain.hi[0], per_axis, endpoint=not domain.open_hi)
        ys = np.linspace(domain.lo[1], domain.hi[1], per_axis, endpoint=not domain.open_hi)
        return [(float(x), float(y)) for x in xs for y in ys]
    raise TypeError(f"no dense sampler for domain type {type(domain).__name__}")


@dataclass(frozen=True)
class PointwiseReport:
    reports: tuple[CSeqProbeReport, ...]
    passed: bool


def check_pointwise_convergence(
    family: MapFamily,
    space,
    points,
    cfg: CSeqProbeConfig,
) -> PointwiseReport:
    """Probe d(T_n x, T x) separately at each supplied point.

    Every index at a point is evaluated at once, from the family's lane
    form (see MapFamily) against the scalar limit image.
    """
    reports = []
    limit_map = family.limit.map
    dim = _space_dim(space)
    for x in points:
        fx = limit_map(x)

        def fn(ns, x=x, fx=fx):
            at = _constant(x, dim, ns.shape)
            return _gaps(space, _lane_images(family, ns, at, dim), fx)

        reports.append(is_c_sequence((space.kind, fn), cfg))
    return PointwiseReport(tuple(reports), all(r.passed for r in reports))


@dataclass(frozen=True)
class UniformReport:
    report: CSeqProbeReport
    grid_size: int
    passed: bool


# index x grid values per block of the columnar uniform check: bounds the
# size of its temporaries
_SUP_BLOCK = 4096


def _uniform_sups(family, space, domain, points, ns):
    """The componentwise max of d(T_n x, T x) over points and the family's
    adversarial points for n, at each index n of the int64 column ns, as
    the _entries of the lane form: at an index, an adversarial point
    outside domain raises before the distances, the grid's first."""
    dim = _space_dim(space)
    limit_map = family.limit.map
    size = len(points)
    grid = _point_columns(points, dim, size)
    limits = _point_columns(map(limit_map, points), dim, size)
    rows = max(1, _SUP_BLOCK // size)
    first, second = np.full(ns.shape, np.nan), np.full(ns.shape, np.nan)
    failed = np.zeros(ns.shape, dtype=bool)
    extra: dict[int, list] = {}  # lane -> the adversarial points of its index
    stray = None  # (lane, point) of the adversarial point outside domain

    def distances(lane_ns, at, lim):
        return space.distances(_pack(_lane_images(family, lane_ns, at, dim), dim),
                               _pack(lim, dim))

    # index x grid products in blocks of at most _SUP_BLOCK values, each
    # reduced to its componentwise max along the grid axis, into which the
    # adversarial points of the index are folded
    for i in range(0, ns.size, rows):
        block = ns[i:i + rows]
        lanes = slice(i, i + block.size)
        at = tuple(np.tile(c, block.size) for c in grid)
        lim = tuple(np.tile(c, block.size) for c in limits)
        d1, d2, out = distances(np.repeat(block, size), at, lim)
        first[lanes] = d1.reshape(block.size, size).max(axis=1)
        second[lanes] = d2.reshape(block.size, size).max(axis=1)
        failed[lanes] = out.reshape(block.size, size).any(axis=1)
        if family.adversarial is not None:
            # an index's adversarial points come before its distances, so
            # they are read up to the first index whose grid distances fail
            stop = np.flatnonzero(failed[lanes])
            owners, witnesses = [], []
            for lane in range(i, i + (int(stop[0]) + 1 if stop.size else block.size)):
                got = extra[lane] = list(family.adversarial(int(ns[lane])))
                stray = next(((lane, p) for p in got if not domain.contains(p)), None)
                if stray is not None:
                    failed[lane] = True
                    break
                owners += [lane] * len(got)
                witnesses += got
            if witnesses:
                owner = np.array(owners, dtype=np.intp)
                at = _point_columns(witnesses, dim, len(witnesses))
                lim = _point_columns(map(limit_map, witnesses), dim, len(witnesses))
                d1, d2, out = distances(ns[owner], at, lim)
                np.maximum.at(first, owner, d1)
                np.maximum.at(second, owner, d2)
                np.logical_or.at(failed, owner, out)
        if failed[lanes].any():
            break

    def error(lane):
        n = ns[lane]
        if stray is not None and stray[0] == lane:
            return WitnessOutsideDomain(
                f"adversarial point {stray[1]!r} at index {n} is outside the domain")
        pts = points + extra.get(lane, [])
        at = _point_columns(pts, dim, len(pts))
        lim = _point_columns(map(limit_map, pts), dim, len(pts))
        images = _lane_images(family, np.full(len(pts), n), at, dim)
        k = int(np.argmax(space.distances(_pack(images, dim), _pack(lim, dim))[2]))
        return _carrier_failure(space, _point_at(images, k), _point_at(lim, k))

    return _entries(first, second, failed, error)


def check_uniform_convergence(
    family: MapFamily,
    space,
    cfg: CSeqProbeConfig,
    grid_count: int = 256,
) -> UniformReport:
    """Probe the per-index sup of d(T_n x, T x) over a dense sample.

    The sup is the componentwise max, which is the least upper bound for
    the componentwise cone order of the shipped algebras.  Per index n the
    sample is the dense grid plus any adversarial points the family
    supplies for that n, so a family can be convicted by witnesses that
    travel with n.  The sample is drawn from the limit map's domain, or
    from the space's carrier when the limit declares none.  The sups are
    computed from the family's lane form over the index x grid product,
    with each index's adversarial points folded into its lane; a witness
    outside that domain raises WitnessOutsideDomain at its index (see
    _uniform_sups).  ValueError unless grid_count >= 1.
    """
    if not grid_count >= 1:
        raise ValueError(f"grid_count must be >= 1, got {grid_count!r}")
    domain = family.limit.domain if family.limit.domain is not None else space.carrier
    base_points = dense_sample(domain, grid_count)
    report = is_c_sequence(
        (space.kind, partial(_uniform_sups, family, space, domain, base_points)), cfg)
    return UniformReport(report, len(base_points), report.passed)


@dataclass(frozen=True)
class EquicontinuityReport:
    """Outcome of the shrink-until-it-works search at one point."""

    point: object
    target: tuple[float, float]
    found_scale: float | None
    scales_tried: tuple[float, ...]
    witnesses_checked: int

    @property
    def found(self) -> bool:
        return self.found_scale is not None


# the member indices and the number of sampled points y per scale that the
# equicontinuity search tests
_EQUI_INDICES = (1, 2, 4, 8, 16, 32, 64)
_EQUI_WITNESSES = 32


def check_equicontinuity(
    family: MapFamily,
    space,
    x,
    c1,
    schedule: tuple[float, ...] = tuple(0.5 ** i for i in range(13)),
) -> EquicontinuityReport:
    """Search for a ball size c2 = s * c1 that the whole family respects.

    For each scale s in the schedule, sample _EQUI_WITNESSES points y with
    d(x, y) strictly below s * c1 (seeded, so the search is reproducible)
    and require d(T_n x, T_n y) strictly below c1 at every index n in
    _EQUI_INDICES.  The first scale where all witnesses pass is reported;
    exhausting the schedule reports found_scale None.  A report, not a
    verdict: failure means the search failed at this resolution.
    """
    rng = np.random.default_rng(0)
    domain = family.limit.domain if family.limit.domain is not None else space.carrier
    checked = 0
    for s in schedule:
        c2 = scale(s, c1)
        witnesses = []
        attempts = 0
        while len(witnesses) < _EQUI_WITNESSES and attempts < 200 * _EQUI_WITNESSES:
            batch = domain.sample(rng, _EQUI_WITNESSES)
            attempts += len(batch)
            for y in batch:
                if cone_compare(space.distance(x, y), c2).way_below:
                    witnesses.append(y)
                    if len(witnesses) == _EQUI_WITNESSES:
                        break
        if not witnesses:
            continue  # ball too small to hit by sampling; try the next scale
        ok = True
        for n in _EQUI_INDICES:
            m = family.member(n).map
            tx = m(x)
            for y in witnesses:
                checked += 1
                if not cone_compare(space.distance(tx, m(y)), c1).way_below:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return EquicontinuityReport(
                x, (c1.first, c1.second), s, tuple(schedule), checked
            )
    return EquicontinuityReport(x, (c1.first, c1.second), None, tuple(schedule), checked)


# ---------------------------------------------------------------------------
# limit theorem harnesses


@dataclass(frozen=True)
class BoundTable:
    """The certificate of a limit theorem: per index n, a distance, a cone
    bound for it, and whether the bound held.

    dist and bound are cone elements stored as coordinate pairs.  This is
    the one row shape behind the harness reports and the scenario payloads.
    """

    indices: tuple[int, ...]
    dists: tuple
    bounds: tuple
    respected: tuple[bool, ...]

    def rows(self):
        return zip(self.indices, self.dists, self.bounds, self.respected)

    def json_rows(self) -> list[dict]:
        return [
            {
                "n": n,
                "dist": [d.first, d.second],
                "bound": [b.first, b.second],
                "bound_respected": ok,
            }
            for n, d, b, ok in self.rows()
        ]

    def to_csv(self) -> str:
        lines = ["n,dist_c1,dist_c2,bound_c1,bound_c2,bound_respected"]
        for n, d, b, ok in self.rows():
            lines.append(
                f"{n},{d.first!r},{d.second!r},{b.first!r},{b.second!r},{str(ok).lower()}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ConvergenceReport(BoundTable):
    """Distances, certified bounds, and probe verdicts for a map family.

    verdict is True when every row respected its bound and the distance
    sequence passed the probe.
    """

    probe: CSeqProbeReport
    verdict: bool


def _padded_bound(inv, displacement):
    """inv * displacement, outward rounded into a certified upper bound."""
    raw = mul(inv, displacement)
    pad = 16.0 * _EPS * (1.0 + norm(inv)) * (1.0 + norm(displacement))
    return raw + raw.of(pad, pad)


def _bound_report(indices, rows, probe) -> ConvergenceReport:
    """The report of (dist, bound) rows at indices, with their cone test;
    the verdict asks every bound to hold and the distance sequence to pass
    its probe."""
    dists = tuple(d for d, _ in rows)
    bounds = tuple(b for _, b in rows)
    respected = tuple(cone_compare(d, b).le for d, b in rows)
    return ConvergenceReport(tuple(indices), dists, bounds, respected,
                             probe, all(respected) and probe.passed)


def _require_inside(domain, y, what: str) -> None:
    """WitnessOutsideDomain "what: y" unless domain (None: no limit) holds y."""
    if domain is not None and not domain.contains(y):
        raise WitnessOutsideDomain(f"{what}: {y!r}")


# lanes per block of the lane solver: bounds the size of its temporaries
_LANE_BLOCK = 1024


def _inside(domain, cols, dim: int) -> np.ndarray:
    """Per lane, whether the point in the dim columns cols lies in domain
    (None: every lane does); TypeError unless domain.contains answers with
    one bool per lane, as a domain that tests single points only does not."""
    if domain is None:
        return np.ones(cols[0].shape, dtype=bool)
    try:
        ok = domain.contains(_pack(cols, dim))
    except (TypeError, ValueError):  # it refuses the columns
        ok = None
    if type(ok) is not np.ndarray or ok.dtype != bool or ok.shape != cols[0].shape:
        raise TypeError("a lane member's domain must answer one bool per lane")
    return ok


def _start_point(start, dim: int) -> tuple:
    """start as the dim floats the lanes start from; ValueError unless each
    coordinate (start, or a tuple of two on the plane) is an int, float,
    numpy integer or numpy float64 that a float holds exactly (not NaN)."""
    coords = (start,) if dim == 1 else start if type(start) is tuple and len(start) == 2 else ()
    exact = [int(c) if isinstance(c, np.integer) else c for c in coords]
    try:
        if exact and all(isinstance(c, (int, float)) and float(c) == c for c in exact):
            return tuple(map(float, exact))
    except OverflowError:
        pass
    raise ValueError(f"start must be a float, or a pair of floats, held exactly: {start!r}")


def _space_dim(space) -> int:
    return 2 if isinstance(space, PlaneR2Space) else 1


def _pack(cols, dim: int):
    """Points in the form lane functions take: one column, or a pair."""
    return cols[0] if dim == 1 else tuple(cols)


def _point_at(cols, i: int):
    """Lane i of the point columns cols as a float, or a pair of floats."""
    p = tuple(c[i].item() for c in cols)
    return p[0] if len(p) == 1 else p


def _lane_columns(points, dim: int, shape) -> tuple:
    """A lane function's points as a tuple of dim columns; TypeError unless
    each is a float64 array of the given shape, one entry per lane."""
    cols = (points,) if dim == 1 else tuple(points)
    if len(cols) != dim or any(
        type(c) is not np.ndarray or c.dtype != np.float64 or c.shape != shape for c in cols
    ):
        raise TypeError("lane functions must return float64 columns, one entry per lane")
    return cols


def _coordinates(points, dim: int):
    """The coordinates of scalar points one by one; TypeError unless each
    point is a float, or a tuple of two floats on the plane, the forms the
    lanes hold."""
    for p in points:
        if dim == 1:
            p = (p,)
        elif not (type(p) is tuple and len(p) == 2):
            raise TypeError("plane points must be pairs")
        for c in p:
            if type(c) is not float:
                raise TypeError("lane points must be floats")
            yield c


def _point_columns(points, dim: int, count: int) -> tuple:
    """count scalar points, from any iterable, as dim float64 columns,
    without an intermediate list."""
    flat = np.fromiter(_coordinates(points, dim), dtype=np.float64, count=dim * count)
    return tuple(flat.reshape(count, dim).T)


def _constant(x, dim: int, shape) -> tuple:
    """The point x in every lane, as dim read-only float64 columns that
    share one entry each."""
    return tuple(np.broadcast_to(c[0], shape) for c in _point_columns((x,), dim, 1))


def _solved_indices(indices, cfg: CSeqProbeConfig | None = None) -> np.ndarray:
    """The sorted int64 column, without repeats, of the integer indices and
    of the probe's window when cfg is given: every index a harness solves."""
    ns = np.array(sorted({operator.index(n) for n in indices}), dtype=np.int64)
    if cfg is None:
        return ns
    window = np.arange(cfg.start, cfg.horizon + 1, dtype=np.int64)
    return np.concatenate((ns[ns < cfg.start], window, ns[ns > cfg.horizon]))


def _row(ns: np.ndarray, failed: dict, n) -> int:
    """The position of the solved index n in the sorted column ns; raises
    afresh what the solve of n raised, and KeyError if n was not solved."""
    n = operator.index(n)
    if n in failed:
        raise type(failed[n])(*failed[n].args)
    i = int(np.searchsorted(ns, n))
    if i == ns.size or ns[i] != n:
        raise KeyError(n)
    return i


class SolvedMembers:
    """Member fixed points of one family, solved from one start at one tol
    (see _solve_members), as rows over the sorted solved indices: point
    coordinates, iteration count, residual coordinates, NaN where a solve
    failed.  store[n] is picard_solve(family.member(n), space, start, tol),
    or raises what it raises; pass one as fp_cache to solve members once.
    """

    def __init__(self) -> None:
        self._problem = None  # (family, space, start floats, tol)
        self._ns = np.empty(0, dtype=np.int64)
        self._cols = None
        self._failed: dict[int, Exception] = {}

    def _points(self, ns: np.ndarray) -> np.ndarray:
        """The point coordinate rows at the solved indices ns."""
        return self._cols[:-3, np.searchsorted(self._ns, ns)]

    def __getitem__(self, n) -> FixedPointResult:
        i = _row(self._ns, self._failed, n)
        iterations, r1, r2 = self._cols[-3:, i].tolist()
        return FixedPointResult(_point_at(self._cols[:-3], i), int(iterations),
                                self._problem[1].kind.of(r1, r2))


def _carrier_failure(space, p, q) -> PointOutsideCarrier:
    """What space.distance(p, q) raises, for points distances marks outside."""
    try:
        space.distance(p, q)
    except PointOutsideCarrier as exc:
        return exc
    raise TypeError("space.distances marks a lane outside that space.distance accepts")


def _entries(first, second, failed, error) -> tuple:
    """The judge's (first, second) columns of a sequence whose definition
    refuses the lanes of the failed mask: error(i), which raises or returns
    what lane i raises, is raised for the least of them, unless a lane
    before it is outside the cone (NaN included), which the judge raises
    MemberOutsideCone for, as the scalar judge would meet it first."""
    bad = np.flatnonzero(failed)
    if bad.size and ((first[:bad[0]] >= 0.0) & (second[:bad[0]] >= 0.0)).all():
        raise error(int(bad[0]))
    return first, second


def _gaps(space, at, target, failed=None, fail=None) -> tuple:
    """_entries of d(p, target), target one point, over the points p in the
    lane columns at: fail(i) at a lane i of failed, when given, else what
    space.distance raises at a lane distances marks outside."""
    dim = len(at)
    d1, d2, out = space.distances(_pack(at, dim), _pack(_constant(target, dim, at[0].shape), dim))
    return _entries(d1, d2, out if failed is None else out | failed,
                    lambda i: fail(i) if failed is not None and failed[i]
                    else _carrier_failure(space, _point_at(at, i), target))


def _lane_images(family, ns, at, dim: int) -> tuple:
    """The images of the points in the lane columns at under members(ns)."""
    return _lane_columns(family._members(ns).map(_pack(at, dim)), dim, ns.shape)


def _lane_block(family, space, dim, start, x0, tol, ns, failed) -> np.ndarray:
    """picard_solve(family.member(n), space, start, tol) for the members n
    of the int64 column ns, as numpy lanes of the lane member members(ns)
    (see MapFamily), rebuilt as lanes finish: returns the SolvedMembers
    columns of ns, and puts into failed what picard_solve raises for each
    member whose solve fails.  Each lane runs picard_solve's steps from the
    floats x0 in the same IEEE operations, so to the same bits, and leaves
    at the failure picard_solve meets first; a lane that never settles runs
    on to _MAX_ITER.  Any other exception propagates.
    """
    member = family._members(ns)
    out = np.full((dim + 3, ns.size), np.nan)  # points, iterations, residuals
    with np.errstate(all="ignore"):
        thr, wt = (np.broadcast_to(v, ns.shape) for v in _stop_rule(
            tol, np.abs(member.alpha.first), member.alpha.second))
        x = [np.full(ns.size, c) for c in x0]
        keep = _inside(member.domain, x, dim)
        for n in ns[~keep].tolist():
            failed[n] = _escaped_start(start)
        lane, idx, thr, wt = np.flatnonzero(keep), ns[keep], thr[keep], wt[keep]
        x = [c[keep] for c in x]
        built = ns.size  # the lanes member was built for
        for it in range(1, _MAX_ITER + 1):
            if not lane.size:
                break
            if idx.size != built:  # lanes only ever drop out
                member, built = family._members(idx), idx.size
            x_next = _lane_columns(member.map(_pack(x, dim)), dim, idx.shape)
            d1, d2, outside = space.distances(_pack(x_next, dim), _pack(x, dim))
            inside = _inside(member.domain, x_next, dim)
            ok = inside & ~outside
            for i in np.flatnonzero(~ok).tolist():
                p = _point_at(x_next, i)
                failed[int(idx[i])] = (_escaped(it, p) if not inside[i]
                                       else _carrier_failure(space, p, _point_at(x, i)))
            delta = np.abs(d1) + np.abs(d2)
            done = ok & ((delta + wt * d1 < thr) | (delta == 0.0))
            out[dim, lane[done]] = it
            for a in range(dim):
                out[a, lane[done]] = x_next[a][done]
            keep = ok & ~done
            lane, idx, thr, wt = lane[keep], idx[keep], thr[keep], wt[keep]
            x = [c[keep] for c in x_next]
        for n in idx.tolist():
            failed[n] = _no_fixed_point(tol)
        settled = np.flatnonzero(out[dim] > 0.0)
        if settled.size:
            at = out[:dim, settled]
            images = _lane_images(family, ns[settled], at, dim)
            out[dim + 1, settled], out[dim + 2, settled], outside = space.distances(
                _pack(images, dim), _pack(at, dim))
            for i in np.flatnonzero(outside).tolist():
                failed[int(ns[settled[i]])] = _carrier_failure(
                    space, _point_at(images, i), _point_at(at, i))
                out[:dim, settled[i]] = np.nan
    return out


def _solve_members(family, space, start, tol, store, ns) -> SolvedMembers:
    """store, or a new SolvedMembers for None, holding every member of the
    sorted int64 column ns solved from start at tol, those it lacks in
    blocks of _LANE_BLOCK lanes; ValueError for a start _start_point
    refuses, and for a store of another family, space, start or tol."""
    dim = _space_dim(space)
    problem = (family, space, _start_point(start, dim), tol)
    store = store if store is not None else SolvedMembers()
    if store._problem is None:
        store._problem, store._cols = problem, np.empty((dim + 3, 0))
    elif not (family is store._problem[0] and problem[1:] == store._problem[1:]):
        raise ValueError("fp_cache holds members solved for another family, space, start or tol")
    todo = np.setdiff1d(ns, store._ns, assume_unique=True)
    blocks = [_lane_block(family, space, dim, start, problem[2], tol,
                          todo[i:i + _LANE_BLOCK], store._failed)
              for i in range(0, todo.size, _LANE_BLOCK)]
    ns = np.concatenate((store._ns, todo))
    order = np.argsort(ns, kind="stable")
    store._ns, store._cols = ns[order], np.concatenate((store._cols, *blocks), axis=1)[:, order]
    return store


def _require_dominated(family, ns: np.ndarray, k) -> None:
    """ValueError naming the first index of ns whose member coefficient k
    does not dominate (cone_compare's le, on the lane member's columns)."""
    alpha = family._members(ns).alpha
    a, b = (np.broadcast_to(c, ns.shape) for c in (alpha.first, alpha.second))
    bad = np.flatnonzero(~((k.first - a >= 0.0) & (k.second - b >= 0.0)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"coefficient bound {k!r} does not dominate the coefficient "
                         f"({a[i].item()!r}, {b[i].item()!r}) of member {ns[i]}")


def _family_report(family, space, cfg: CSeqProbeConfig, indices, start, tol,
                   fp_cache, target, bound, dominating=None) -> ConvergenceReport:
    """The skeleton of the fixed point harnesses.

    Checks that dominating, when given, dominates every member the rows and
    the probe need, solves them from start (see _solve_members), then the
    limit point x_star = target(); per index n the row is (d(x_n, x_star),
    bound(n, x_n, x_star)) with x_n the member fixed point; last comes the
    probe of n -> d(x_n, x_star), judged from the store's point columns.  A
    failed member raises at its row, else at its index in the probe.
    """
    indices = tuple(indices)
    ns = _solved_indices(indices, cfg)
    if dominating is not None:
        _require_dominated(family, ns, dominating)
    store = _solve_members(family, space, start, tol, fp_cache, ns)
    x_star = target()
    rows = []
    for n in indices:
        x_n = store[n].point
        rows.append((space.distance(x_n, x_star), bound(n, x_n, x_star)))

    def fn(ns):
        points = tuple(store._points(ns))
        return _gaps(space, points, x_star, np.isnan(points[0]), lambda i: store[ns[i]])

    return _bound_report(indices, rows, is_c_sequence((space.kind, fn), cfg))


def uniform_limit_harness(
    family: MapFamily,
    space,
    cfg: CSeqProbeConfig,
    indices,
    start,
    tol: float = 1e-12,
) -> ConvergenceReport:
    """Distance of member fixed points to the limit fixed point, with the
    bound driven by the limit map's displacement at each member's point.

    Per index n the certified bound is

        inverse(e - alpha) * d(T_n x_n, T x_n)

    with alpha the limit coefficient.  Every member and the limit map are
    solved from the one point start, which must lie in every member domain
    and in the limit domain; members are solved on lanes, the limit by
    picard_solve (see _family_report).
    """
    limit = family.limit
    inv = neumann_inverse_e_minus(limit.alpha)

    def bound(n, x_n, x_star):
        return _padded_bound(inv, space.distance(family.member(n).map(x_n), limit.map(x_n)))

    return _family_report(
        family, space, cfg, indices, start, tol, None,
        lambda: picard_solve(limit, space, start, tol).point, bound,
    )


def pointwise_limit_harness(
    family: MapFamily,
    space,
    cfg: CSeqProbeConfig,
    indices,
    start,
    tol: float = 1e-12,
) -> ConvergenceReport:
    """Same distances as the uniform-limit harness, every member and the
    limit solved from start as there, but the bound is driven by the
    members' displacement at the limit fixed point,

        inverse(e - M) * d(T_n x_star, T x_star)

    where M dominates every member coefficient (family.coefficient_bound,
    falling back to the limit coefficient for families with a shared one).
    ValueError names the first member it does not dominate.
    """
    inv = neumann_inverse_e_minus(family.bound_coefficient)
    limit = family.limit

    def bound(n, x_n, x_star):
        return _padded_bound(
            inv, space.distance(family.member(n).map(x_star), limit.map(x_star)))

    return _family_report(
        family, space, cfg, indices, start, tol, None,
        lambda: picard_solve(limit, space, start, tol).point, bound,
        dominating=family.bound_coefficient,
    )


def subdomain_limit_harness(
    family: MapFamily,
    space,
    cfg: CSeqProbeConfig,
    indices,
    start,
    x_inf,
    witness: Callable[[int], object] | None = None,
    responder: Callable[[int], object] | None = None,
    tol: float = 1e-12,
    fp_cache: SolvedMembers | None = None,
) -> ConvergenceReport:
    """Fixed point convergence bounds for members living on moving
    sub-domains, measured against the limit fixed point x_inf.  Every
    member is solved from start, which must lie in every member domain,
    into fp_cache when it is given (a SolvedMembers).  Exactly one of
    witness and responder is given, and it picks the form of the bound.

    Witness form: per index n, with y_n = witness(n) a point of the member
    domain,

        bound = inverse(e - k) * (k * d(y_n, x_inf) + d(T_n y_n, T x_inf))

    Responder form: with x_n the member fixed point (the challenge) and
    y_n = responder(n) a point of the limit domain,

        bound = inverse(e - k) * (d(T_n x_n, T y_n) + k * d(y_n, x_n))

    k is the dominating coefficient (family.coefficient_bound, else the
    limit coefficient); ValueError names the first member k does not
    dominate.
    """
    if (witness is None) == (responder is None):
        raise ValueError("pass exactly one of witness and responder")
    k = family.bound_coefficient
    inv = neumann_inverse_e_minus(k)
    limit = family.limit

    def bound(n, x_n, x_star):
        member = family.member(n)
        if witness is not None:
            y_n = witness(n)
            _require_inside(member.domain, y_n,
                            f"witness at index {n} is outside the member domain")
            displacement = mul(k, space.distance(y_n, x_star)) + space.distance(
                member.map(y_n), limit.map(x_star))
        else:
            y_n = responder(n)
            _require_inside(limit.domain, y_n,
                            f"responder point at index {n} is outside the limit domain")
            displacement = space.distance(member.map(x_n), limit.map(y_n)) + mul(
                k, space.distance(y_n, x_n))
        return _padded_bound(inv, displacement)

    return _family_report(
        family, space, cfg, indices, start, tol, fp_cache, lambda: x_inf, bound,
        dominating=k,
    )


@dataclass(frozen=True)
class ClusterCheckReport:
    """Existence-of-limit check for a sequence of member fixed points."""

    converged: bool
    cluster_point: object | None
    cluster_radius: float
    fixed_point_residual: object | None
    residual_ok: bool
    conclusion: str


# the tolerance the cluster check solves members to, and the most limit map
# applications it polishes a cluster point with
_CLUSTER_SOLVER_TOL = 1e-12
_POLISH_CAP = 5000


def fixed_point_cluster_check(
    family: MapFamily,
    space,
    indices,
    start,
    tol: float = 1e-4,
    fp_cache: SolvedMembers | None = None,
) -> ClusterCheckReport:
    """Test whether member fixed points settle, and if so whether the
    settling value is fixed by the limit map.

    Members are solved on lanes to _CLUSTER_SOLVER_TOL from start, which
    must lie in every member domain, into fp_cache when it is given (a
    SolvedMembers).  The last quarter of the solved fixed points must sit inside
    a ball of radius 10 * tol around their final value; otherwise the
    report says not convergent and draws no conclusion.  On a cluster, the
    candidate is polished by iterating the limit map until the float
    iteration reaches an exact fixed point or _POLISH_CAP applications
    pass, and the residual d(y, T y) at the polished point is reported,
    acceptable when its norm is at most 10 * tol.
    """
    indices = tuple(indices)
    store = _solve_members(family, space, start, _CLUSTER_SOLVER_TOL, fp_cache,
                           _solved_indices(indices))
    points = [store[n].point for n in indices]
    quarter = points[-max(1, len(points) // 4):]
    anchor = quarter[-1]
    radius = max(norm(space.distance(p, anchor)) for p in quarter)
    if radius > 10.0 * tol:
        return ClusterCheckReport(
            False, None, radius, None, False, "not convergent, no conclusion"
        )
    y = anchor
    limit_map = family.limit.map
    for _ in range(_POLISH_CAP):
        y_next = limit_map(y)
        if y_next == y:
            break
        y = y_next
    residual = space.distance(y, limit_map(y))
    ok = norm(residual) <= 10.0 * tol
    conclusion = (
        "convergent, limit is a fixed point of the limit map"
        if ok
        else "convergent, but the limit map moves the cluster point"
    )
    return ClusterCheckReport(True, y, radius, residual, ok, conclusion)


# ---------------------------------------------------------------------------
# approximation property checks


@dataclass(frozen=True)
class ApproxPropertyReport:
    """Per-point outcomes for an approximation property of a family."""

    point_reports: tuple
    passed: bool


def property_g_check(
    family: MapFamily,
    space,
    witness: Callable[[object], Callable],
    cfg: CSeqProbeConfig,
    points,
) -> ApproxPropertyReport:
    """Approach-from-inside property: every limit-domain point admits a
    sequence through the member domains whose positions and images both
    get small against the probes.

    witness(x) is the sequence n -> x_n for the point x on numpy lanes: it
    maps an int64 index column ns to the points x_n, n in ns, in the form a
    lane member's map takes (see MapFamily), and each x_n must lie in the
    member domain for its index.  Both probes at a point are evaluated
    from the family's lane form, whose domain tests every witness point at
    once.  At the least failing index, a witness outside its member domain
    raises WitnessOutsideDomain before a point outside the carrier raises
    PointOutsideCarrier.
    """
    limit_map = family.limit.map
    dim = _space_dim(space)
    reports = []
    for x in points:
        seq = witness(x)
        fx = limit_map(x)

        def fn(ns, image, seq=seq, x=x, fx=fx):
            member = family._members(ns)
            ys = _lane_columns(seq(ns), dim, ns.shape)
            at = _lane_columns(member.map(_pack(ys, dim)), dim, ns.shape) if image else ys
            return _gaps(space, at, fx if image else x, ~_inside(member.domain, ys, dim),
                         lambda i: WitnessOutsideDomain(
                             f"witness at index {ns[i]} is outside the member domain: "
                             f"{_point_at(ys, i)!r}"))

        reports.append(tuple(is_c_sequence((space.kind, partial(fn, image=image)), cfg)
                             for image in (False, True)))
    passed = all(a.passed and b.passed for a, b in reports)
    return ApproxPropertyReport(tuple(reports), passed)


def property_h_check(
    family: MapFamily,
    space,
    challenge: Callable[[int], object],
    responder: Callable[[Callable[[int], object]], Callable[[int], object]],
    cfg: CSeqProbeConfig,
) -> ApproxPropertyReport:
    """Answer-from-inside property: for a challenge sequence through the
    member domains, the responder must produce limit-domain points that
    track the challenge and whose limit-map images track the member images.
    """

    def checked_challenge(n: int):
        x = challenge(n)
        _require_inside(family.member(n).domain, x,
                        f"challenge at index {n} is outside the member domain")
        return x

    answer = responder(checked_challenge)

    def checked_answer(n: int):
        y = answer(n)
        _require_inside(family.limit.domain, y,
                        f"responder point at index {n} is outside the limit domain")
        return y

    limit_map = family.limit.map
    dist_rep = is_c_sequence(
        lambda n: space.distance(checked_challenge(n), checked_answer(n)), cfg
    )
    image_rep = is_c_sequence(
        lambda n: space.distance(
            family.member(n).map(checked_challenge(n)), limit_map(checked_answer(n))
        ),
        cfg,
    )
    passed = dist_rep.passed and image_rep.passed
    return ApproxPropertyReport(((dist_rep, image_rep),), passed)


@dataclass(frozen=True)
class CompositeCheckReport:
    """Hypothesis-by-hypothesis outcomes plus the implied conclusion."""

    hypotheses: dict
    conclusion_passed: bool
    detail: object | None


def h_limit_implies_g_limit_check(
    family: MapFamily,
    space,
    witness: Callable[[object], Callable],
    responder,
    cfg: CSeqProbeConfig,
    points,
) -> CompositeCheckReport:
    """Sampled replay of: answer-from-inside plus approachable domains plus
    a sequentially continuous limit map give the approach-from-inside
    property.

    Hypotheses checked empirically: (a) for each sampled point the witness
    sequence approaches it; (b) the limit map is sequentially continuous
    along those witness sequences, mapped one point at a time; (c) the
    family answers the challenge of the first point's witness sequence.
    witness is the lane form property_g_check takes, and the conclusion
    re-runs that check with it.
    """
    limit_map = family.limit.map
    dim = _space_dim(space)
    approach_ok = True
    continuity_ok = True
    for x in points:
        seq = witness(x)
        fx = limit_map(x)

        def approach(ns, seq=seq, x=x):
            return _gaps(space, _lane_columns(seq(ns), dim, ns.shape), x)

        def continuity(ns, seq=seq, fx=fx):
            ys = _lane_columns(seq(ns), dim, ns.shape)
            images = (limit_map(_point_at(ys, i)) for i in range(ns.size))
            return _gaps(space, _point_columns(images, dim, ns.size), fx)

        rep = is_c_sequence((space.kind, approach), cfg)
        approach_ok = approach_ok and rep.passed
        rep2 = is_c_sequence((space.kind, continuity), cfg)
        continuity_ok = continuity_ok and rep2.passed
    first = witness(points[0])
    challenge = lambda n: _point_at(
        _lane_columns(first(np.array([n], dtype=np.int64)), dim, (1,)), 0)
    h_rep = property_h_check(family, space, challenge, responder, cfg)
    g_rep = property_g_check(family, space, witness, cfg, points)
    return CompositeCheckReport(
        {
            "domains_approachable": approach_ok,
            "limit_map_sequentially_continuous": continuity_ok,
            "answers_challenges": h_rep.passed,
        },
        g_rep.passed,
        g_rep,
    )


def g_limit_uniqueness_check(
    family: MapFamily,
    space,
    other_limit: ContractionMap,
    points,
) -> CompositeCheckReport:
    """Two candidate limit maps of the same family must agree: report the
    worst distance between their images over sampled points.  They are
    said to agree when its norm is at most 1e-9, a heuristic: the cut is
    not derived from the maps or their rounding."""
    worst = 0.0
    for x in points:
        worst = max(worst, norm(space.distance(family.limit.map(x), other_limit.map(x))))
    agree = worst <= 1e-9
    return CompositeCheckReport(
        {"worst_image_gap_norm": worst}, agree, None
    )


def equicontinuous_pointwise_check(
    family: MapFamily,
    space,
    witness,
    cfg: CSeqProbeConfig,
    points,
    c1,
) -> CompositeCheckReport:
    """Sampled replay of: approach-from-inside plus equicontinuity at each
    point give plain pointwise convergence of the member images."""
    equi_ok = True
    for x in points:
        rep = check_equicontinuity(family, space, x, c1)
        equi_ok = equi_ok and rep.found
    g_rep = property_g_check(family, space, witness, cfg, points)
    pw = check_pointwise_convergence(family, space, points, cfg)
    return CompositeCheckReport(
        {"equicontinuous_at_points": equi_ok, "approach_property": g_rep.passed},
        pw.passed,
        pw,
    )
