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
and whether the distance sequence passes the smallness probe.  A family that
declares lanes (see MapFamily) has all the members a harness needs solved
together as numpy lanes, each lane stopping on its own stop rule, with fixed
points, iteration counts and residuals bit for bit those of picard_solve.

Bounds are outward rounded: the inverse (e - k)^-1 is the closed form
rounded upward, which dominates the exact inverse, but the product
(inverse * displacement) is rounded to nearest.  Every reported bound
therefore adds a roundoff pad to both coordinates.  Without the pad,
families that meet their bound with equality would flip bound_respected on
one-ulp noise.
"""

from __future__ import annotations

import math
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
from .errors import IterateEscapedDomain, NoConvergence, WitnessOutsideDomain
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

    members is a callable n -> ContractionMap for n >= 1; lookups are
    memoised because harnesses and probes revisit the same indices.  For
    the pointwise, uniform and equicontinuity checkers, members and limit
    may be PlainMaps instead; the fixed point harnesses need coefficients.
    coefficient_bound, when given, must lie in the cone and dominate every
    member coefficient in the cone order (used by the pointwise-limit
    bound).  adversarial, when given, maps n to extra domain points the
    uniform checker must include for that index.

    lanes=True declares that members is also the family's lane form:
    members(ns), with ns an int64 index column, is one map whose map takes
    the points of all lanes at once (a float64 column on the interval space,
    a pair of coordinate columns (xs, ys) on the plane) and returns the
    images in the same form, and whose alpha coordinates and domain
    endpoints are float64 columns or scalars shared by every lane (a
    domain's open_lo and open_hi are shared by every lane); its domain's
    contains answers for those points, one bool per lane, as
    IntervalDomain's and BoxDomain's do.  Lane i must equal members(ns[i])
    bit for bit, which holds when each expression is written once with
    + - * / and abs only, on floats (IEEE exact in numpy and in Python alike;
    int64 products of indices could wrap where Python ints grow).  Where a
    numpy ufunc rounds otherwise than the scalar operator (numpy's power
    against Python's float ** int), the member may apply the scalar operator
    lane by lane when its index is an array.  The map must not write into
    its input columns, which may be read-only broadcast views.  With lanes
    the harnesses solve the members they need together as numpy lanes, and
    the convergence checkers and harness probes hand the probe judge whole
    columns of distances.  A lane member that fails to build sends its block
    or checker back to member(n), index by index.
    """

    def __init__(
        self,
        members: Callable[[int], ContractionMap],
        limit: ContractionMap,
        coefficient_bound=None,
        adversarial: Callable[[int], list] | None = None,
        lanes: bool = False,
    ) -> None:
        if coefficient_bound is not None:
            _require_cone(coefficient_bound, "coefficient_bound")
        self._members = members
        self.limit = limit
        self.coefficient_bound = coefficient_bound
        self.adversarial = adversarial
        self.lanes = lanes
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
        raise IterateEscapedDomain(f"start point {x0!r} is outside the declared domain")
    x = x0
    for it in range(1, _MAX_ITER + 1):
        x_next = T.map(x)
        if domain is not None and not domain.contains(x_next):
            raise IterateEscapedDomain(
                f"iterate {it} left the declared domain: {x_next!r}"
            )
        delta = space.distance(x_next, x)
        step = norm(delta)
        x = x_next
        if step + first_weight * delta.first < threshold or step == 0.0:
            residual = space.distance(T.map(x), x)
            return FixedPointResult(x, it, residual)
    raise NoConvergence(f"no fixed point within {_MAX_ITER} iterations (tol {tol})")


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

    A family with lanes has every index at a point evaluated at once, as
    numpy lanes against the scalar limit image.
    """
    reports = []
    limit_map = family.limit.map
    member = _lane_member(family, space, _probe_column(cfg))
    dim = _space_dim(space)
    for x in points:
        fx = limit_map(x)
        columns = None
        if member is not None:
            def fn(ns, x=x, fx=fx):
                at = _pack(_constant(x, dim, ns.shape), dim)
                images = _lane_columns(member.map(at), dim, ns.shape)
                limits = _constant(fx, dim, ns.shape)
                return space.distances(_pack(images, dim), _pack(limits, dim))

            columns = (space.kind, fn)
        report = is_c_sequence(
            lambda n: space.distance(family.member(n).map(x), fx), cfg, columns
        )
        reports.append(report)
    return PointwiseReport(tuple(reports), all(r.passed for r in reports))


@dataclass(frozen=True)
class UniformReport:
    report: CSeqProbeReport
    grid_size: int
    passed: bool


# index x grid values per block of the columnar uniform check: bounds the
# size of its temporaries
_SUP_BLOCK = 4096


def _adversarial_points(family, domain, n: int) -> list:
    """The family's adversarial points for n, each of which must lie in
    domain; none for a family without them."""
    if family.adversarial is None:
        return []
    extra = family.adversarial(n)
    for p in extra:
        if not domain.contains(p):
            raise WitnessOutsideDomain(
                f"adversarial point {p!r} at index {n} is outside the domain"
            )
    return list(extra)


def _uniform_sup(family, space, domain, points, n: int):
    """The componentwise max of d(T_n x, T x) over points and the family's
    adversarial points for n."""
    member_map, limit_map = family.member(n).map, family.limit.map
    points = points + _adversarial_points(family, domain, n)
    values = [space.distance(member_map(x), limit_map(x)) for x in points]
    return space.kind.of(max(v.first for v in values), max(v.second for v in values))


def _uniform_sups(family, space, domain, points, ns):
    """_uniform_sup at each index of the int64 column ns, from the family's
    lane form (see MapFamily), as the (first, second, bad) columns of
    space.distances: bad[i] marks an index whose scalar sup would raise.
    An adversarial point outside domain raises here, at its index."""
    dim = _space_dim(space)
    limit_map = family.limit.map

    def distances(lane_ns, at, lim):
        images = _lane_columns(family._members(lane_ns).map(_pack(at, dim)), dim,
                               lane_ns.shape)
        return space.distances(_pack(images, dim), _pack(lim, dim))

    # index x grid products in blocks of at most _SUP_BLOCK values, each
    # reduced to its componentwise max along the grid axis; a NaN image
    # makes a NaN sup, which the judge rejects, so max folds in the
    # adversarial points exactly as the scalar max does
    size = len(points)
    grid = _point_columns(points, dim, size)
    limits = _point_columns(map(limit_map, points), dim, size)
    rows = max(1, _SUP_BLOCK // size)
    first, second = np.empty(ns.shape), np.empty(ns.shape)
    bad = np.empty(ns.shape, dtype=bool)
    for i in range(0, ns.size, rows):
        block = ns[i:i + rows]
        at = tuple(np.tile(c, block.size) for c in grid)
        lim = tuple(np.tile(c, block.size) for c in limits)
        d1, d2, out = distances(np.repeat(block, size), at, lim)
        first[i:i + rows] = d1.reshape(block.size, size).max(axis=1)
        second[i:i + rows] = d2.reshape(block.size, size).max(axis=1)
        bad[i:i + rows] = out.reshape(block.size, size).any(axis=1)
        owners, extra = [], []
        for lane, n in enumerate(block.tolist(), start=i):
            witnesses = _adversarial_points(family, domain, n)
            owners += [lane] * len(witnesses)
            extra += witnesses
        if extra:
            owner = np.array(owners, dtype=np.intp)
            at = _point_columns(extra, dim, len(extra))
            lim = _point_columns(map(limit_map, extra), dim, len(extra))
            d1, d2, out = distances(ns[owner], at, lim)
            np.maximum.at(first, owner, d1)
            np.maximum.at(second, owner, d2)
            np.logical_or.at(bad, owner, out)
    return first, second, bad


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
    from the space's carrier when the limit declares none.  A family with
    lanes has its sups computed as numpy lanes over the index x grid
    product, with each index's adversarial points folded into its lane; a
    witness outside that domain sends the judge back to the scalar sup,
    which raises WitnessOutsideDomain at its index.  ValueError unless
    grid_count >= 1.
    """
    if not grid_count >= 1:
        raise ValueError(f"grid_count must be >= 1, got {grid_count!r}")
    domain = family.limit.domain if family.limit.domain is not None else space.carrier
    base_points = dense_sample(domain, grid_count)
    columns = None
    if _lane_member(family, space, _probe_column(cfg)) is not None:
        columns = (space.kind, partial(_uniform_sups, family, space, domain, base_points))
    report = is_c_sequence(partial(_uniform_sup, family, space, domain, base_points),
                           cfg, columns)
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
# a lane whose step has not shrunk over this many iterations is left to
# picard_solve; one lane that never settles would otherwise keep its whole
# block iterating up to _MAX_ITER, at numpy's per-call cost per iteration
_LANE_STALL = 64


def _inside(domain, cols, dim: int) -> np.ndarray:
    """Per lane, whether the point in the dim columns cols lies in domain
    (None: every lane does); TypeError unless domain.contains answers with
    one bool per lane, as a domain that tests single points only does not."""
    if domain is None:
        return np.ones(cols[0].shape, dtype=bool)
    ok = domain.contains(_pack(cols, dim))
    if type(ok) is not np.ndarray or ok.dtype != bool or ok.shape != cols[0].shape:
        raise TypeError("a lane member's domain must answer one bool per lane")
    return ok


def _lane_start(x0, dim: int):
    """The start as a tuple of dim floats, or None unless each coordinate is
    a float, a numpy float64, or an int or numpy integer that converts to
    float exactly (a NaN start, which no lane would keep, gives None too)."""
    coords = (x0,) if dim == 1 else x0 if type(x0) is tuple and len(x0) == 2 else ()
    exact = tuple(int(c) if isinstance(c, np.integer) else c for c in coords)
    if not exact or not all(type(c) in (float, np.float64) or isinstance(c, int) for c in exact):
        return None
    try:
        floats = tuple(map(float, exact))
    except OverflowError:
        return None
    return floats if floats == exact else None


def _space_dim(space) -> int:
    return 2 if isinstance(space, PlaneR2Space) else 1


def _pack(cols, dim: int):
    """Points in the form lane functions take: one column, or a pair."""
    return cols[0] if dim == 1 else tuple(cols)


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


def _probe_column(cfg: CSeqProbeConfig) -> np.ndarray:
    """The int64 index column the probe judge hands a columnar source."""
    return np.arange(cfg.start, cfg.horizon + 1, dtype=np.int64)


def _lane_member(family, space, ns):
    """family's members callable applied to the index column ns, the map
    whose lanes are the members at ns (see MapFamily); None without lanes,
    without a batch distances on space, or when the build raises: the
    caller then fetches member by member, which raises at its index."""
    if not (family.lanes and hasattr(space, "distances")):
        return None
    try:
        return family._members(ns)
    except Exception:
        return None


def _lane_block(family, space, dim, x0, tol, block, cache) -> None:
    """picard_solve from the point x0, a tuple of dim floats, for the
    members in block, as numpy lanes.

    Each lane runs picard_solve's steps on float64 columns: its own stop
    rule, picard_solve's formulas in the same IEEE operations and so the
    same bits, then per iteration the domain test, the carrier test and the
    stop rule.  The start and each iterate are tested by the contains of the
    lane member's domain, and rate and b are columns of the lane member; it
    is rebuilt as lanes finish.  A lane that would raise in picard_solve (an
    escape from the domain or the carrier, no convergence within _MAX_ITER)
    is left out of the cache, as is the whole block if its lane member
    cannot be built or applied, its domain does not answer for lanes (see
    _inside) or the stop rule refuses tol, so that the lazy scalar solve
    raises exactly what picard_solve raises.  So is a lane whose step stalls
    for _LANE_STALL iterations, which picard_solve then settles or gives up
    on at scalar cost.
    """
    ns = np.asarray(block, dtype=np.int64)
    member = _lane_member(family, space, ns)
    if member is None:
        return
    try:
        with np.errstate(all="ignore"):
            thr, wt = (np.broadcast_to(v, ns.shape) for v in _stop_rule(
                tol, np.abs(member.alpha.first), member.alpha.second))
            x = [np.full(ns.size, c) for c in x0]
            keep = _inside(member.domain, x, dim)
            lane, idx, thr, wt = np.flatnonzero(keep), ns[keep], thr[keep], wt[keep]
            x = [c[keep] for c in x]
            built = ns.size  # the lanes member was built for
            stall_ref = np.full(lane.size, np.inf)  # step at the last stall check
            done_lane, done_iter = [], []
            done_x: list[list[np.ndarray]] = [[] for _ in range(dim)]
            for it in range(1, _MAX_ITER + 1):
                if not lane.size:
                    break
                if idx.size != built:  # lanes only ever drop out
                    member, built = family._members(idx), idx.size
                x_next = _lane_columns(member.map(_pack(x, dim)), dim, idx.shape)
                d1, d2, outside = space.distances(_pack(x_next, dim), _pack(x, dim))
                delta = np.abs(d1) + np.abs(d2)
                ok = _inside(member.domain, x_next, dim) & ~outside
                done = ok & ((delta + wt * d1 < thr) | (delta == 0.0))
                done_lane.append(lane[done])
                done_iter.append(np.full(int(done.sum()), it))
                for a in range(dim):
                    done_x[a].append(x_next[a][done])
                keep = ok & ~done
                if it % _LANE_STALL == 0:
                    keep &= delta < stall_ref
                    stall_ref = delta
                lane, idx, thr, wt = lane[keep], idx[keep], thr[keep], wt[keep]
                stall_ref = stall_ref[keep]
                x = [c[keep] for c in x_next]
            if not done_lane:
                return
            lane = np.concatenate(done_lane)
            x = [np.concatenate(c) for c in done_x]
            images = _lane_columns(family._members(ns[lane]).map(_pack(x, dim)), dim,
                                   lane.shape)
            r1, r2, outside = space.distances(_pack(images, dim), _pack(x, dim))
    except Exception:
        return
    kind = space.kind
    points = x[0].tolist() if dim == 1 else list(zip(x[0].tolist(), x[1].tolist()))
    for i, it, p, a, b, out in zip(
        lane.tolist(), np.concatenate(done_iter).tolist(),
        points, r1.tolist(), r2.tolist(), outside.tolist(),
    ):
        if not out:
            cache[block[i]] = FixedPointResult(p, it, kind.of(a, b))


def _solve_members(
    family: MapFamily,
    space,
    start,
    tol: float,
    cache: dict | None,
    want=(),
):
    """A memoised n -> picard_solve(family.member(n), space, start, tol),
    returned with its cache of results.

    want names the indices the caller will fetch.  When the family has
    lanes, the space a batch distances and start a lane form (_lane_start),
    they are solved up front as numpy lanes, with results bit for bit those
    of picard_solve; anything the lanes leave out is solved lazily by
    picard_solve itself.
    """
    cache = cache if cache is not None else {}
    dim = _space_dim(space)
    x0 = _lane_start(start, dim)
    if family.lanes and x0 is not None and isinstance(tol, float):
        todo = list(dict.fromkeys(n for n in want if type(n) is int and n not in cache))
        for i in range(0, len(todo), _LANE_BLOCK):
            _lane_block(family, space, dim, x0, tol, todo[i:i + _LANE_BLOCK], cache)

    def solved(n: int) -> FixedPointResult:
        got = cache.get(n)
        if got is None:
            got = picard_solve(family.member(n), space, start, tol)
            cache[n] = got
        return got

    return solved, cache


def _family_report(family, space, cfg: CSeqProbeConfig, indices, start,
                   tol, fp_cache, target, bound) -> ConvergenceReport:
    """The skeleton of the fixed point harnesses.

    Solves the members the rows and the probe need from start, then the
    limit point x_star = target(); per index n the row is (d(x_n, x_star),
    bound(n, x_n, x_star)) with x_n the member fixed point; last comes the
    probe of n -> d(x_n, x_star).  With lanes the probe reads its entries
    as columns from the cache of solved members; an index missing from it
    sends the judge to the scalar fetch, which solves that member and
    raises what picard_solve raises.
    """
    indices = tuple(indices)
    solved, cache = _solve_members(family, space, start, tol, fp_cache,
                                   (*indices, *range(cfg.start, cfg.horizon + 1)))
    x_star = target()
    rows = []
    for n in indices:
        x_n = solved(n).point
        rows.append((space.distance(x_n, x_star), bound(n, x_n, x_star)))
    columns = None
    if family.lanes:
        dim = _space_dim(space)

        def fn(ns):
            points = _point_columns((cache[n].point for n in map(int, ns)), dim, ns.size)
            targets = _constant(x_star, dim, ns.shape)
            return space.distances(_pack(points, dim), _pack(targets, dim))

        columns = (space.kind, fn)
    probe = is_c_sequence(lambda n: space.distance(solved(n).point, x_star), cfg, columns)
    return _bound_report(indices, rows, probe)


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
    and in the limit domain; picard_solve raises IterateEscapedDomain where
    it does not.
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
    """
    inv = neumann_inverse_e_minus(family.bound_coefficient)
    limit = family.limit

    def bound(n, x_n, x_star):
        return _padded_bound(
            inv, space.distance(family.member(n).map(x_star), limit.map(x_star)))

    return _family_report(
        family, space, cfg, indices, start, tol, None,
        lambda: picard_solve(limit, space, start, tol).point, bound,
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
    fp_cache: dict | None = None,
) -> ConvergenceReport:
    """Fixed point convergence bounds for members living on moving
    sub-domains, measured against the limit fixed point x_inf.  Every
    member is solved from start, which must lie in every member domain;
    picard_solve raises IterateEscapedDomain where it does not.  Exactly one
    of witness and responder is given, and it picks the form of the bound.

    Witness form: per index n, with y_n = witness(n) a point of the member
    domain,

        bound = inverse(e - k) * (k * d(y_n, x_inf) + d(T_n y_n, T x_inf))

    Responder form: with x_n the member fixed point (the challenge) and
    y_n = responder(n) a point of the limit domain,

        bound = inverse(e - k) * (d(T_n x_n, T y_n) + k * d(y_n, x_n))

    k is the dominating coefficient (family.coefficient_bound, else the
    limit coefficient).
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
    fp_cache: dict | None = None,
) -> ClusterCheckReport:
    """Test whether member fixed points settle, and if so whether the
    settling value is fixed by the limit map.

    Members are solved to _CLUSTER_SOLVER_TOL from start, which must lie in
    every member domain; picard_solve raises IterateEscapedDomain where it
    does not.  The last quarter of the solved fixed points must sit inside
    a ball of radius 10 * tol around their final value; otherwise the
    report says not convergent and draws no conclusion.  On a cluster, the
    candidate is polished by iterating the limit map until the float
    iteration reaches an exact fixed point or _POLISH_CAP applications
    pass, and the residual d(y, T y) at the polished point is reported,
    acceptable when its norm is at most 10 * tol.
    """
    indices = tuple(indices)
    solved, _ = _solve_members(family, space, start, _CLUSTER_SOLVER_TOL, fp_cache, indices)
    points = [solved(n).point for n in indices]
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
    witness: Callable[[object], Callable[[int], object]],
    cfg: CSeqProbeConfig,
    points,
    lane_witness: Callable[[object], Callable] | None = None,
) -> ApproxPropertyReport:
    """Approach-from-inside property: every limit-domain point admits a
    sequence through the member domains whose positions and images both
    get small against the probes.

    witness(x) returns the sequence n -> x_n for the point x; each x_n must
    lie in the member domain for its index (WitnessOutsideDomain if not).

    lane_witness, when given, is the witness on numpy lanes: lane_witness(x)
    maps an int64 index column ns to the points witness(x)(n), n in ns, bit
    for bit, in the form a lane member's map takes.  With it and a family
    with lanes both probes at a point are evaluated as lanes: one lane
    member is built per call, and its domain's contains tests every
    witness point at once.  A domain that does not answer for lanes (see
    _inside) sends both probes to the scalar fetch.
    """
    limit_map = family.limit.map
    dim = _space_dim(space)
    ns = _probe_column(cfg)
    member = _lane_member(family, space, ns) if lane_witness is not None else None
    reports = []
    for x in points:
        seq = witness(x)

        def checked_seq(n: int, seq=seq):
            y = seq(n)
            _require_inside(family.member(n).domain, y,
                            f"witness at index {n} is outside the member domain")
            return y

        fx = limit_map(x)
        dist_columns = image_columns = None
        if member is not None:
            def lanes(ns, image, x=x, fx=fx):
                ys = _lane_columns(lane_witness(x)(ns), dim, ns.shape)
                at, target = ys, x
                if image:
                    at = _lane_columns(member.map(_pack(ys, dim)), dim, ns.shape)
                    target = fx
                targets = _constant(target, dim, ns.shape)
                d1, d2, out = space.distances(_pack(at, dim), _pack(targets, dim))
                return d1, d2, out | ~_inside(member.domain, ys, dim)

            dist_columns = (space.kind, partial(lanes, image=False))
            image_columns = (space.kind, partial(lanes, image=True))
        dist_rep = is_c_sequence(
            lambda n: space.distance(checked_seq(n), x), cfg, dist_columns
        )
        image_rep = is_c_sequence(
            lambda n: space.distance(family.member(n).map(checked_seq(n)), fx), cfg,
            image_columns,
        )
        reports.append((dist_rep, image_rep))
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
    witness: Callable[[object], Callable[[int], object]],
    responder,
    cfg: CSeqProbeConfig,
    points,
) -> CompositeCheckReport:
    """Sampled replay of: answer-from-inside plus approachable domains plus
    a sequentially continuous limit map give the approach-from-inside
    property.

    Hypotheses checked empirically: (a) for each sampled point the witness
    sequence approaches it; (b) the limit map is sequentially continuous
    along those witness sequences; (c) the family answers challenges.  The
    conclusion re-runs the approach property with the same witness.
    """
    limit_map = family.limit.map
    approach_ok = True
    continuity_ok = True
    for x in points:
        seq = witness(x)
        rep = is_c_sequence(lambda n: space.distance(seq(n), x), cfg)
        approach_ok = approach_ok and rep.passed
        fx = limit_map(x)
        rep2 = is_c_sequence(lambda n: space.distance(limit_map(seq(n)), fx), cfg)
        continuity_ok = continuity_ok and rep2.passed
    h_rep = property_h_check(family, space, lambda n: witness(points[0])(n), responder, cfg)
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
    worst distance between their images over sampled points."""
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
