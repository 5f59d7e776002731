"""Coupled scalar systems and initial value problem pairs solved by
certified Picard iteration.

Two application shapes live here.  The first turns a pair of scalar
equations F(x, y) = 0, G(x, y) = 0 into the self map
(x, y) -> (x + F(x, y), y + G(x, y)) and solves it as a contraction on the
plane with the coordinatewise absolute-difference distance.  The declared
contraction condition perturbs one variable at a time, so systems whose
cross dependence matters need the condition check disabled and carry no
certificate; see coupled_solve.

The second builds a weighted-norm certificate for a pair of decoupled
initial value problems y' = f(x, y), z' = g(x, z) on a shared interval and
solves both by integral Picard iteration on a fixed grid.  The solve
interval half-width comes from an inflated bound on |f| and |g| so the
iterates stay inside the stated tube, and the one weight rate tau is chosen
so the iteration contracts with factor at most one half.  Every step, row
distance and displacement is measured in the certificate's
BieleckiPairSpace, through its distances; the tube test is a plain max.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import R2Elem, neumann_inverse_e_minus, norm, spectral_radius
from .errors import (
    ConditionViolated,
    DegenerateBox,
    LeftInvariantSet,
    NoConvergence,
)
from .fixed_point import (
    ContractionMap,
    ConvergenceReport,
    MapFamily,
    _bound_report,
    _entries,
    _padded_bound,
    _row,
    _solved_indices,
    _stop_rule,
    picard_solve,
    pointwise_limit_harness,
)
from .grid import cumulative_trapezoid_from
from .spaces import (
    BieleckiPairSpace,
    BoxDomain,
    CSeqProbeConfig,
    PlaneR2Space,
    is_c_sequence,
)

__all__ = [
    "CoupledSystem",
    "CouplingCheckReport",
    "CoupledRoot",
    "verify_condition",
    "coupled_solve",
    "coupled_sequence_harness",
    "OdeProblem",
    "OdeCertificate",
    "OdeSolution",
    "ode_certify",
    "ode_solve",
    "ode_sequence_harness",
]


@dataclass(frozen=True)
class CoupledSystem:
    """Pair of scalar equations F(x, y) = 0, G(x, y) = 0 with a declared
    one-variable-at-a-time dissipation rate lip < 1:

        |F(x1, y) - F(x2, y) + (x1 - x2)| <= lip * |x1 - x2|
        |G(x, y1) - G(x, y2) + (y1 - y2)| <= lip * |y1 - y2|

    In a family's lane form (see coupled_sequence_harness) lip may be a
    float64 column, one rate per lane, each checked.
    """

    f: Callable[[float, float], float]
    g: Callable[[float, float], float]
    lip: float

    def __post_init__(self) -> None:
        if not np.all((0.0 <= self.lip) & (self.lip < 1.0)):  # NaN fails too
            raise ValueError(f"lip must be in [0, 1), got {self.lip}")

    def operator(self, p):
        x, y = p
        return (x + self.f(x, y), y + self.g(x, y))

    def as_contraction(self) -> ContractionMap:
        return ContractionMap(self.operator, R2Elem(self.lip, 0.0))


@dataclass(frozen=True)
class CouplingCheckReport:
    samples: int
    violations: int
    worst_excess: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


_DEFAULT_BOX = BoxDomain((-8.0, -8.0), (8.0, 8.0))
# the triples of points verify_condition samples
_CONDITION_SAMPLES = 2000


def verify_condition(
    system: CoupledSystem,
    box: BoxDomain | None = None,
    seed: int = 0,
) -> CouplingCheckReport:
    """Sample the declared dissipation condition over a box, at
    _CONDITION_SAMPLES point triples.

    Each sample perturbs one coordinate while holding the other, matching
    the condition as stated; cross dependence between the equations is
    invisible to this check by construction.  Each right side carries an
    absolute allowance of 1e-12 for roundoff at equality.
    """
    box = box if box is not None else _DEFAULT_BOX
    rng = np.random.default_rng(seed)
    samples = _CONDITION_SAMPLES
    pts = box.sample(rng, 3 * samples)
    violations = 0
    worst = 0.0
    for i in range(samples):
        (x1, y1), (x2, y2), (x3, y3) = pts[3 * i], pts[3 * i + 1], pts[3 * i + 2]
        lhs_f = abs(system.f(x1, y1) - system.f(x2, y1) + (x1 - x2))
        rhs_f = system.lip * abs(x1 - x2) + 1e-12
        lhs_g = abs(system.g(x3, y1) - system.g(x3, y2) + (y1 - y2))
        rhs_g = system.lip * abs(y1 - y2) + 1e-12
        excess = max(lhs_f - rhs_f, lhs_g - rhs_g)
        if excess > 0.0:
            violations += 1
            worst = max(worst, excess)
    return CouplingCheckReport(samples, violations, worst)


@dataclass(frozen=True)
class CoupledRoot:
    x: float
    y: float
    iterations: int
    residual: R2Elem


def coupled_solve(
    system: CoupledSystem,
    tol: float = 1e-10,
    check_condition: bool = True,
    box: BoxDomain | None = None,
    seed: int = 0,
) -> CoupledRoot:
    """Solve F = G = 0 by iterating the induced self map from the origin.

    With check_condition the declared dissipation condition is sampled
    first and a failure raises ConditionViolated.  Disabling the check
    permits systems with cross dependence; the stopping rule then treats
    the declared lip as a plain heuristic rate and the only guarantee left
    is the final residual test, which requires
    |F| + |G| < tol * (1 + lip) / (1 - lip) at the returned point.
    """
    if check_condition:
        report = verify_condition(system, box, seed=seed)
        if not report.ok:
            raise ConditionViolated(
                f"dissipation condition failed on {report.violations} of "
                f"{report.samples} samples (worst excess {report.worst_excess:.3e})"
            )
    space = PlaneR2Space()
    result = picard_solve(system.as_contraction(), space, (0.0, 0.0), tol)
    x, y = result.point
    residual = R2Elem(abs(system.f(x, y)), abs(system.g(x, y)))
    allowed = tol * (1.0 + system.lip) / (1.0 - system.lip)
    if norm(residual) >= allowed:
        raise NoConvergence(
            f"root residual {norm(residual):.3e} exceeds {allowed:.3e}; "
            "the declared rate does not describe this system"
        )
    return CoupledRoot(x, y, result.iterations, residual)


def coupled_sequence_harness(
    members: Callable[[int], CoupledSystem],
    limit: CoupledSystem,
    indices,
    cfg: CSeqProbeConfig,
    tol: float = 1e-12,
) -> ConvergenceReport:
    """Roots of a system family against the limit system's root, every
    system solved from the origin, with the varying-coefficient fixed point
    bound driven by the members' displacement at the limit root.  The
    coefficient bound is the largest lip of the limit and of every member
    the rows and the probe read, so it dominates each of their coefficients.

    members, called with an int64 index column, is also the family's lane
    form under MapFamily's contract, with lip a float or a float64 column;
    the lane member is members(ns).as_contraction().
    """
    indices = tuple(indices)
    lip = float(np.max(members(_solved_indices(indices, cfg)).lip))
    family = MapFamily(
        lambda n: members(n).as_contraction(),
        limit.as_contraction(),
        coefficient_bound=R2Elem(max(limit.lip, lip), 0.0),
    )
    return pointwise_limit_harness(
        family, PlaneR2Space(), cfg, indices, (0.0, 0.0), tol=tol
    )


# ---------------------------------------------------------------------------
# initial value problem pairs


@dataclass(frozen=True)
class OdeProblem:
    """Decoupled pair y' = f(x, y), z' = g(x, z) with y(center) = y_init,
    z(center) = z_init, studied on the box |x - center| <= x_radius,
    |y - y_init| <= y_radius, |z - z_init| <= z_radius.

    f and g must accept numpy arrays (evaluated on whole grids at once).
    lip_f and lip_g are Lipschitz constants in the second variable:
    |f(x, u) - f(x, v)| <= lip_f |u - v| on the box, likewise for g.
    """

    f: Callable
    g: Callable
    center: float
    y_init: float
    z_init: float
    x_radius: float
    y_radius: float
    z_radius: float
    lip_f: float
    lip_g: float


@dataclass(frozen=True)
class OdeCertificate:
    """Solve-interval and contraction data derived from an OdeProblem.

    sampled_max_f and sampled_max_g are the box maxima of |f| and |g| on
    the sample mesh; max_f and max_g inflate them by five percent, so the
    interval half-width h = min(h1, h2) is slightly conservative and the
    tube invariance survives quadrature and roundoff error.  tau is the
    weight rate of the BieleckiPairSpace on [lo, hi] = [center - h,
    center + h] that every ODE distance is measured in; its weight is
    exp(-tau * |x - center|), centered because integration runs both ways
    from the initial condition (a weight anchored at one end would not
    contract on the other side).  alpha is the contraction coefficient of
    the integral operator pair under the exact weight.  The space rounds
    its weights to 29 significand bits, which changes w(x) / w(s) by at
    most (1 + 2^-29) / (1 - 2^-29), so in the rounded metric alpha holds up
    to a factor of about 1 + 2^-28.
    """

    h1: float
    h2: float
    sampled_max_f: float
    sampled_max_g: float
    tau: float
    alpha: R2Elem
    center: float

    @property
    def max_f(self) -> float:
        return _INFLATION * self.sampled_max_f

    @property
    def max_g(self) -> float:
        return _INFLATION * self.sampled_max_g

    @property
    def h(self) -> float:
        return min(self.h1, self.h2)

    @property
    def lo(self) -> float:
        return self.center - self.h

    @property
    def hi(self) -> float:
        return self.center + self.h


_INFLATION = 1.05
# per-axis points of the mesh ode_certify samples the box on
_SAMPLE_PTS = 33


def _check_sampled_lipschitz(label: str, fn, xs, us, lip: float, width: float) -> None:
    # all value pairs at every x of the mesh; u differences are exact
    # (linspace steps are dyadic here only by luck, so keep a product-
    # rounding allowance on the right side)
    vals = fn(*np.meshgrid(xs, us, indexing="ij"))
    if not np.isfinite(vals).all():
        raise ConditionViolated(f"{label} is not finite on the sample mesh")
    lhs = np.abs(vals[:, :, None] - vals[:, None, :])
    rhs = lip * np.abs(us[None, :, None] - us[None, None, :])
    slack = 1e-12 * (1.0 + abs(lip) * (1.0 + width))
    worst = float(np.max(lhs - rhs))
    if not worst <= slack:  # a NaN rate fails too
        raise ConditionViolated(
            f"declared rate for {label} fails on the sample mesh "
            f"(worst excess {worst:.3e} over slack {slack:.3e})"
        )


def ode_certify(problem: OdeProblem) -> OdeCertificate:
    """Derive the solve interval and contraction coefficient.

    |f| and |g| are sampled on an endpoint-including mesh of the box, with
    _SAMPLE_PTS points per axis, and inflated by five percent.  max_f and
    max_g are therefore sampled maxima, not enclosures: a slope that peaks
    between mesh points by more than five percent gives an interval the
    tube test in ode_solve may then refuse (LeftInvariantSet).
    h1 = min(x_radius, y_radius / max_f) and h2 likewise for g, with a
    vanishing right side meaning no constraint (identically zero slope
    keeps any tube).  The declared Lipschitz constants are sampled on the
    same mesh; a slope that is not finite there, or breaks its rate, raises
    ConditionViolated.  The weight rate is tau = 2 * max(lip_f, lip_g, 1/2),
    making the coefficient's first coordinate lip/tau <= 1/2.
    """
    if not (problem.x_radius > 0.0 and problem.y_radius > 0.0 and problem.z_radius > 0.0):
        raise DegenerateBox(
            "box half-widths must be positive, got "
            f"({problem.x_radius}, {problem.y_radius}, {problem.z_radius})"
        )
    xs = np.linspace(problem.center - problem.x_radius,
                     problem.center + problem.x_radius, _SAMPLE_PTS)
    ys = np.linspace(problem.y_init - problem.y_radius,
                     problem.y_init + problem.y_radius, _SAMPLE_PTS)
    zs = np.linspace(problem.z_init - problem.z_radius,
                     problem.z_init + problem.z_radius, _SAMPLE_PTS)
    _check_sampled_lipschitz("f", problem.f, xs, ys, problem.lip_f, 2.0 * problem.y_radius)
    _check_sampled_lipschitz("g", problem.g, xs, zs, problem.lip_g, 2.0 * problem.z_radius)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    sampled_f = float(np.max(np.abs(problem.f(xg, yg))))
    xg, zg = np.meshgrid(xs, zs, indexing="ij")
    sampled_g = float(np.max(np.abs(problem.g(xg, zg))))
    max_f = _INFLATION * sampled_f
    max_g = _INFLATION * sampled_g
    h1 = problem.x_radius if max_f == 0.0 else min(problem.x_radius, problem.y_radius / max_f)
    h2 = problem.x_radius if max_g == 0.0 else min(problem.x_radius, problem.z_radius / max_g)
    tau = 2.0 * max(problem.lip_f, problem.lip_g, 0.5)
    alpha = R2Elem(max(problem.lip_f / tau, problem.lip_g / tau), 0.0)
    return OdeCertificate(h1, h2, sampled_f, sampled_g, tau, alpha, problem.center)


@dataclass(frozen=True)
class OdeSolution:
    """Values of y and z on the grid nodes (y and z read-only), with the
    weighted step of every sweep."""

    nodes: np.ndarray
    y: np.ndarray
    z: np.ndarray
    iterations: int
    delta_history: tuple


# the most sweeps ode_solve and the lane solver run before giving up
_MAX_SWEEPS = 200


def _tube_slack(radius):
    return 1e-9 * (1.0 + radius)


def _tube_excess(values, init, radius):
    """max |values - init| - radius over the grid axis, one per row.

    Read off each row's extremes: rounding is monotone, so the larger of
    max - init and init - min is exactly the largest rounded |values - init|,
    and no temporary of a lane block's size is made."""
    top = values.max(axis=-1, keepdims=True) - init
    low = init - values.min(axis=-1, keepdims=True)
    return np.maximum(top, low)[..., 0] - radius


@dataclass(frozen=True)
class _OdeGrid:
    """What every sweep under one certificate shares: the space the sweeps
    are measured in (its nodes are the grid), the node spacing, the center
    node the initial condition sits on, and the stop rule at tol."""

    space: BieleckiPairSpace
    spacing: float
    mid: int
    tol: float
    threshold: float
    first_weight: float

    def integral(self, values, out=None):
        """Running trapezoid integral from the center node, row by row,
        into out when it is given (see cumulative_trapezoid_from)."""
        return cumulative_trapezoid_from(values, self.spacing, self.mid, out=out)


def _ode_grid(cert: OdeCertificate, grid_pts: int, tol: float) -> _OdeGrid:
    if grid_pts < 3 or grid_pts % 2 == 0:
        raise ValueError(f"grid_pts must be odd and at least 3, got {grid_pts}")
    space = BieleckiPairSpace(cert.lo, cert.hi, grid_pts, cert.tau)
    threshold, first_weight = map(
        float, _stop_rule(tol, spectral_radius(cert.alpha), cert.alpha.second))
    return _OdeGrid(
        space, (cert.hi - cert.lo) / (grid_pts - 1), (grid_pts - 1) // 2,
        tol, threshold, first_weight,
    )


def _left_tube(it: int, y_exc, z_exc) -> LeftInvariantSet:
    return LeftInvariantSet(
        f"iterate {it} left the certified tube "
        f"(y excess {max(y_exc, 0.0):.3e}, z excess {max(z_exc, 0.0):.3e})"
    )


def _unsettled(tol) -> NoConvergence:
    return NoConvergence(f"no settled solution within {_MAX_SWEEPS} sweeps (tol {tol})")


def ode_solve(
    problem: OdeProblem,
    grid_pts: int = 257,
    tol: float = 1e-10,
    certificate: OdeCertificate | None = None,
) -> OdeSolution:
    """Integral Picard iteration for both equations on a shared grid.

    grid_pts must be odd so the initial condition sits on the center node;
    each sweep rebuilds y and z from the running integral of the slopes,
    anchored there.  Every iterate is checked against the certified tube
    (LeftInvariantSet on escape, and on a value that is not finite).
    Iteration stops when the weighted step distance certifies tol accuracy
    at the contraction rate (see _stop_rule), and raises NoConvergence
    after _MAX_SWEEPS sweeps.
    """
    cert = certificate if certificate is not None else ode_certify(problem)
    grid = _ode_grid(cert, grid_pts, tol)
    nodes = grid.space.nodes
    y = np.full(grid_pts, float(problem.y_init))
    z = np.full(grid_pts, float(problem.z_init))
    deltas: list[R2Elem] = []
    for it in range(1, _MAX_SWEEPS + 1):
        y_next = problem.y_init + grid.integral(problem.f(nodes, y))
        z_next = problem.z_init + grid.integral(problem.g(nodes, z))
        y_exc = _tube_excess(y_next, problem.y_init, problem.y_radius)
        z_exc = _tube_excess(z_next, problem.z_init, problem.z_radius)
        # written so that a NaN excess, from a value that is not finite, fails
        if not (y_exc <= _tube_slack(problem.y_radius)
                and z_exc <= _tube_slack(problem.z_radius)):
            raise _left_tube(it, y_exc, z_exc)
        d1, d2, _ = grid.space.distances((y_next, z_next), (y, z))
        delta = R2Elem(float(d1), float(d2))
        deltas.append(delta)
        y, z = y_next, z_next
        step = norm(delta)
        if step + grid.first_weight * delta.first < grid.threshold or step == 0.0:
            y.flags.writeable = False
            z.flags.writeable = False
            return OdeSolution(nodes, y, z, it, tuple(deltas))
    raise _unsettled(tol)


# float64 entries per (lanes x grid) block of the lane solver, so 128 lanes
# at grid 257 and 16 at grid 2049.  Medians of five in-process runs of
# ode_sequence at grids 257 and 2049 (2-vCPU shared host, Python 3.11,
# numpy 2.4): 1 << 14 took 0.040 and 0.329 s, 1 << 15 0.035 and 0.247 s,
# 1 << 16 0.035 and 0.227 s, within the host's spread at twice the buffers
_ODE_BLOCK = 1 << 15

# the slope, initial value and radius fields of OdeProblem, per equation
_EQUATIONS = (("f", "y_init", "y_radius"), ("g", "z_init", "z_radius"))


def _shared(p, limit: OdeProblem, fields) -> bool:
    """Whether the lane member p poses this equation as the limit does: with
    the limit's own slope object, from one initial value in one radius, both
    equal to the limit's.  Every lane then sweeps the same row."""
    slope, *scalars = fields
    return getattr(p, slope) is getattr(limit, slope) and all(
        np.ndim(getattr(p, k)) == 0 and getattr(p, k) == getattr(limit, k) for k in scalars)


def _ode_lane_block(members, limit: OdeProblem, grid: _OdeGrid, ns, u, buffers,
                    failed: dict) -> np.ndarray:
    """ode_solve for the members of the int64 index column ns, as numpy
    lanes of the lane member members(idx) (see ode_sequence_harness), with
    idx the (lanes, 1) column of ns; it is rebuilt as lanes finish.
    Returns the (2, lanes) weighted distances of the lanes to the limit
    solution u = (u_y, u_z), NaN where a solve failed, and puts into failed
    what ode_solve raises for each member whose solve fails.

    Each lane is one row of (lanes x grid) float64 arrays and runs
    ode_solve's sweep in the same IEEE operations, so to the same bits: the
    slopes, the row-wise trapezoid integral, the tube test against the
    lane's own initial values and radii, the weighted step and the shared
    stop rule.  Any other exception propagates, and initial values, radii
    or slopes that are not float64 of the lanes' shape raise TypeError.

    buffers is a float64 array of shape (2, equations, rows, grid_pts), rows
    at least the block's lanes, made once by the caller and reused by every
    block: per equation, the current and the next values, lane i on row i.
    They swap after a sweep, and when lanes drop out the rows that go on
    are packed into the leading rows.  The slopes get views of these rows,
    overwritten on the next sweep.  An equation the lane member poses as the
    limit does (see _shared; checked again at every rebuild, and never
    regained once lost) is swept as one row, and its tube test, step and
    distance to the limit are read by every lane: each lane would compute
    that row from the same inputs in the same operations.
    """
    nodes = grid.space.nodes
    idx = ns[:, None]
    gaps = np.full((2, ns.size), np.nan)
    with np.errstate(all="ignore"):
        p, built = members(idx), idx.size  # built: the lanes p is for
        cols = [[np.broadcast_to(np.asarray(getattr(p, k)), idx.shape) for k in fields[1:]]
                for fields in _EQUATIONS]
        if any(c.dtype != np.float64 for pair in cols for c in pair):
            raise TypeError("a lane member's initial values and radii must be float64")
        init = [v0 for v0, _ in cols]
        radius = [r[:, 0] for _, r in cols]
        shared = [_shared(p, limit, fields) for fields in _EQUATIONS]
        cur, nxt = (list(b) for b in buffers)
        for v, v0 in zip(cur, init):
            v[:idx.size] = v0
        lane = np.arange(idx.size)
        for it in range(1, _MAX_SWEEPS + 1):
            m = lane.size
            if not m:
                break
            if m != built:  # lanes only ever drop out
                p, built = members(idx), m
                for e, fields in enumerate(_EQUATIONS):
                    if shared[e] and not _shared(p, limit, fields):
                        shared[e] = False
                        cur[e][1:m] = cur[e][0]
            now, new, excess = [], [], []
            inside = np.ones(m, dtype=bool)
            for e, (slope, *_) in enumerate(_EQUATIONS):
                k = 1 if shared[e] else m
                v, v1, v0, r = cur[e][:k], nxt[e][:k], init[e][:k], radius[e][:k]
                s = getattr(p, slope)(nodes, v)
                if not (isinstance(s, np.ndarray) and s.dtype == np.float64
                        and s.shape == v.shape):
                    raise TypeError("lane slopes must be float64 arrays of "
                                    "the shape of the values they are given")
                # v0 + integral as in ode_solve, in place: IEEE addition commutes
                grid.integral(s, out=v1)
                v1 += v0
                excess.append(np.broadcast_to(_tube_excess(v1, v0, r), (m,)))
                inside &= excess[-1] <= _tube_slack(r)
                now.append(v)
                new.append(v1)
            for i in np.flatnonzero(~inside).tolist():
                failed[int(idx[i, 0])] = _left_tube(it, excess[0][i].item(), excess[1][i].item())
            d1, d2, _ = grid.space.distances(new, now)
            step = np.abs(d1) + np.abs(d2)
            done = inside & ((step + grid.first_weight * d1 < grid.threshold)
                             | (step == 0.0))
            if done.any():
                ends = [v if s else v[done] for v, s in zip(new, shared)]
                g1, g2, _ = grid.space.distances(ends, u)
                gaps[0, lane[done]], gaps[1, lane[done]] = g1, g2
            keep = inside & ~done
            kept = int(np.count_nonzero(keep))
            for e, s in enumerate(shared):
                if s or kept == m:
                    cur[e], nxt[e] = nxt[e], cur[e]
                else:
                    np.compress(keep, new[e], axis=0, out=cur[e][:kept])
            if kept < m:
                lane, idx = lane[keep], idx[keep]
                init = [v0[keep] for v0 in init]
                radius = [r[keep] for r in radius]
    for n in idx[:, 0].tolist():
        failed[n] = _unsettled(grid.tol)
    return gaps


def _family_certificate(
    member_cert: OdeCertificate, limit_cert: OdeCertificate, center: float
) -> OdeCertificate:
    """Shared certificate: the tighter interval with the larger rates, so
    one grid and one weight serve every solve in the family."""
    m, lim = member_cert, limit_cert
    return OdeCertificate(
        min(m.h1, lim.h1),
        min(m.h2, lim.h2),
        max(m.sampled_max_f, lim.sampled_max_f),
        max(m.sampled_max_g, lim.sampled_max_g),
        max(m.tau, lim.tau),
        R2Elem(max(m.alpha.first, lim.alpha.first), max(m.alpha.second, lim.alpha.second)),
        center,
    )


def _require_certified_rates(members, ns: np.ndarray, cert: OdeCertificate) -> None:
    """ValueError naming the first index of ns whose lane member declares
    max(lip_f, lip_g) / cert.tau above cert.alpha.first (or NaN)."""
    p = members(ns[:, None])
    rate = np.broadcast_to(np.maximum(p.lip_f, p.lip_g) / cert.tau, (ns.size, 1))[:, 0]
    bad = ~(rate <= cert.alpha.first)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"member {ns[i]} declares rate max(lip_f, lip_g) / tau = "
                         f"{rate[i].item()!r}, above the family certificate's "
                         f"{cert.alpha.first!r}")


def ode_sequence_harness(
    members: Callable[[int], OdeProblem],
    limit: OdeProblem,
    indices,
    cfg: CSeqProbeConfig,
    grid_pts: int = 257,
    tol: float = 1e-10,
    distance_log: dict | None = None,
) -> ConvergenceReport:
    """Solutions of a problem family against the limit problem's solution.

    All solves share one certificate (tighter interval, larger rates, built
    from the first member and the limit) so distances compare functions on
    a common grid under a common weight; ValueError names the first member
    whose declared rates exceed its alpha.  Per index n the distance is the
    weighted-norm pair between the member and limit solutions, and the
    certified bound is

        inverse(e - alpha) * d(S_n u, S u) + (2 tol, 2 tol)

    where u is the limit solution and S_n, S are one sweep of the member
    and limit integral operators, both applied literally to u.  The first
    term bounds the gap between the exact solutions; the additive term
    covers the two solver stops, each certified within tol of its exact
    fixed point in every weighted component.

    members, called with an int64 index column of shape (lanes, 1), is also
    the family's lane form under MapFamily's contract: its f and g map the
    nodes and (lanes x grid_pts) arrays of values, one row per member, to
    slopes of that shape, and its initial values and radii are float64
    columns or shared scalars.  The limit is solved by ode_solve, every
    member from the lane form alone (see _ode_lane_block), and only two
    distance columns are kept, which the probe reads; a member whose solve
    failed raises what ode_solve raises for it at its row, else at its
    index in the probe.  The lane slopes are given views of value buffers
    that the next sweep overwrites, so a slope must neither keep nor write
    its inputs.  An equation the lane member poses with the limit's own
    slope object (members(n).g is limit.g, say) and with a scalar initial
    value and radius equal to the limit's is swept once per block, as one
    row that every lane reads.

    When a distance_log dict is supplied, every index the rows and the
    probe read is recorded there as n -> distance element.
    """
    indices = tuple(indices)
    first = members(1)
    if first.center != limit.center:
        raise ValueError("family members and limit must share the expansion center")
    cert = _family_certificate(ode_certify(first), ode_certify(limit), limit.center)
    grid = _ode_grid(cert, grid_pts, tol)
    inv = neumann_inverse_e_minus(cert.alpha)
    ns = _solved_indices(indices, cfg)
    _require_certified_rates(members, ns, cert)

    limit_sol = ode_solve(limit, grid_pts, tol, cert)
    u_y, u_z = limit_sol.y, limit_sol.z

    lanes = max(1, _ODE_BLOCK // (grid_pts - 1))
    # one allocation for every block: freed and made again per block, the
    # buffers leave the heap to be trimmed and faulted back in
    buffers = np.empty((2, len(_EQUATIONS), min(lanes, ns.size), grid_pts))
    failed: dict = {}
    gaps = np.concatenate([
        _ode_lane_block(members, limit, grid, ns[i:i + lanes], (u_y, u_z), buffers, failed)
        for i in range(0, ns.size, lanes)
    ], axis=1)

    def distance_to_limit(n) -> R2Elem:
        i = _row(ns, failed, n)
        return R2Elem(gaps[0, i].item(), gaps[1, i].item())

    def columns(probe_ns):
        d1, d2 = gaps[:, np.searchsorted(ns, probe_ns)]
        return _entries(d1, d2, np.isnan(d1), lambda i: _row(ns, failed, probe_ns[i]))

    def sweep(problem: OdeProblem):
        sy = problem.y_init + grid.integral(problem.f(grid.space.nodes, u_y))
        sz = problem.z_init + grid.integral(problem.g(grid.space.nodes, u_z))
        return sy, sz

    limit_sweep_y, limit_sweep_z = sweep(limit)
    solver_slack = R2Elem(2.0 * tol, 2.0 * tol)
    rows = []
    for n in indices:
        dist = distance_to_limit(n)
        member_sweep_y, member_sweep_z = sweep(members(n))
        d1, d2, _ = grid.space.distances((member_sweep_y, member_sweep_z),
                                         (limit_sweep_y, limit_sweep_z))
        displacement = R2Elem(float(d1), float(d2))
        rows.append((dist, _padded_bound(inv, displacement) + solver_slack))
    probe = is_c_sequence((R2Elem, columns), cfg)
    if distance_log is not None:
        for n in (*indices, *range(cfg.start, cfg.horizon + 1)):
            distance_log[n] = distance_to_limit(n)
    return _bound_report(indices, rows, probe)
