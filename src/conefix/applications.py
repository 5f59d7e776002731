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
    _padded_bound,
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
    lanes: bool = False,
) -> ConvergenceReport:
    """Roots of a system family against the limit system's root, every
    system solved from the origin, with the varying-coefficient fixed point
    bound driven by the members' displacement at the limit root.  The
    coefficient bound is the largest lip of the limit and of the members at
    indices, so it dominates the coefficient of every member a row reads.

    lanes=True declares that members, called with an int64 index column,
    is the family's lane form under MapFamily's contract; the lane member
    is then members(ns).as_contraction().
    """
    indices = tuple(indices)
    family = MapFamily(
        lambda n: members(n).as_contraction(),
        limit.as_contraction(),
        coefficient_bound=R2Elem(max([limit.lip, *(members(n).lip for n in indices)]), 0.0),
        lanes=lanes,
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
    node the initial condition sits on, and the stop rule (see _stop_rule)."""

    space: BieleckiPairSpace
    spacing: float
    mid: int
    threshold: float
    first_weight: float

    def integral(self, values):
        """Running trapezoid integral from the center node, row by row."""
        return cumulative_trapezoid_from(values, self.spacing, self.mid)


def _ode_grid(cert: OdeCertificate, grid_pts: int, tol: float) -> _OdeGrid:
    if grid_pts < 3 or grid_pts % 2 == 0:
        raise ValueError(f"grid_pts must be odd and at least 3, got {grid_pts}")
    space = BieleckiPairSpace(cert.lo, cert.hi, grid_pts, cert.tau)
    threshold, first_weight = map(
        float, _stop_rule(tol, spectral_radius(cert.alpha), cert.alpha.second))
    return _OdeGrid(
        space, (cert.hi - cert.lo) / (grid_pts - 1), (grid_pts - 1) // 2,
        threshold, first_weight,
    )


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
            raise LeftInvariantSet(
                f"iterate {it} left the certified tube "
                f"(y excess {max(y_exc, 0.0):.3e}, z excess {max(z_exc, 0.0):.3e})"
            )
        d1, d2, _ = grid.space.distances((y_next, z_next), (y, z))
        delta = R2Elem(float(d1), float(d2))
        deltas.append(delta)
        y, z = y_next, z_next
        step = norm(delta)
        if step + grid.first_weight * delta.first < grid.threshold or step == 0.0:
            y.flags.writeable = False
            z.flags.writeable = False
            return OdeSolution(nodes, y, z, it, tuple(deltas))
    raise NoConvergence(f"no settled solution within {_MAX_SWEEPS} sweeps (tol {tol})")


# float64 entries per (lanes x grid) block of the lane solver, so 128 lanes
# at grid 257 and 16 at grid 2049: larger blocks push the sweep temporaries
# out of the processor caches and lose more than the numpy calls they save
_ODE_BLOCK = 1 << 15


def _ode_lane_block(members, grid: _OdeGrid, block, u_y, u_z, dists: dict) -> None:
    """ode_solve for the members in block, as numpy lanes of the lane
    member members(idx) (see ode_sequence_harness), with idx the (lanes, 1)
    column of block's indices; it is rebuilt as lanes finish.

    Each lane is one row of (lanes x grid) float64 arrays and runs
    ode_solve's sweep in the same IEEE operations, so to the same bits: the
    slopes, the row-wise trapezoid integral, the tube test against the
    lane's own initial values and radii, the weighted step and the shared
    stop rule.  A finished lane puts its weighted distance to the limit
    solution (u_y, u_z) into dists.  A lane that ode_solve would raise on
    (an escape from the tube or a value that is not finite, no convergence
    within _MAX_SWEEPS) is left out, and so is the whole block if its lane
    member cannot be built, has initial values or radii that are not
    float64, or slopes that are not two float64 arrays of the lanes' shape.
    The lazy ode_solve then raises exactly what it raises.
    """
    nodes = grid.space.nodes
    idx = np.asarray(block, dtype=np.int64)[:, None]
    try:
        with np.errstate(all="ignore"):
            p, built = members(idx), idx.size  # built: the lanes p is for
            y0, z0, ry, rz = cols = [np.broadcast_to(np.asarray(v), idx.shape)
                                     for v in (p.y_init, p.z_init, p.y_radius, p.z_radius)]
            if any(c.dtype != np.float64 for c in cols):
                return
            ry, rz = ry[:, 0], rz[:, 0]
            lane = np.arange(idx.size)
            y = np.repeat(y0, nodes.size, axis=1)
            z = np.repeat(z0, nodes.size, axis=1)
            done_lane, done_d1, done_d2 = [], [], []
            for _ in range(_MAX_SWEEPS):
                if not lane.size:
                    break
                if idx.size != built:  # lanes only ever drop out
                    p, built = members(idx), idx.size
                fy, gz = p.f(nodes, y), p.g(nodes, z)
                if not all(isinstance(v, np.ndarray) and v.dtype == np.float64
                           and v.shape == y.shape for v in (fy, gz)):
                    raise TypeError("lane slopes must be two float64 arrays "
                                    "of shape (lanes, grid_pts)")
                # y0 + integral as in ode_solve, in place: IEEE addition commutes
                y_next = grid.integral(fy)
                y_next += y0
                z_next = grid.integral(gz)
                z_next += z0
                y_exc = _tube_excess(y_next, y0, ry)
                z_exc = _tube_excess(z_next, z0, rz)
                inside = (y_exc <= _tube_slack(ry)) & (z_exc <= _tube_slack(rz))
                d1, d2, _ = grid.space.distances((y_next, z_next), (y, z))
                step = np.abs(d1) + np.abs(d2)
                done = inside & ((step + grid.first_weight * d1 < grid.threshold)
                                 | (step == 0.0))
                if done.any():
                    done_lane.append(lane[done])
                    g1, g2, _ = grid.space.distances((y_next[done], z_next[done]), (u_y, u_z))
                    done_d1.append(g1)
                    done_d2.append(g2)
                keep = inside & ~done
                lane, idx, y0, z0, ry, rz = (a[keep] for a in (lane, idx, y0, z0, ry, rz))
                y, z = y_next[keep], z_next[keep]
    except Exception:
        return
    if not done_lane:
        return
    lanes = np.concatenate(done_lane).tolist()
    gaps = zip(np.concatenate(done_d1).tolist(), np.concatenate(done_d2).tolist())
    for i, (a, b) in zip(lanes, gaps):
        dists[block[i]] = R2Elem(a, b)


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


def ode_sequence_harness(
    members: Callable[[int], OdeProblem],
    limit: OdeProblem,
    indices,
    cfg: CSeqProbeConfig,
    grid_pts: int = 257,
    tol: float = 1e-10,
    distance_log: dict | None = None,
    lanes: bool = False,
) -> ConvergenceReport:
    """Solutions of a problem family against the limit problem's solution.

    All solves share one certificate (tighter interval, larger rates, built
    from the first member and the limit) so distances compare functions on
    a common grid under a common weight.  Per index n the distance is the
    weighted-norm pair between the member and limit solutions, and the
    certified bound is

        inverse(e - alpha) * d(S_n u, S u) + (2 tol, 2 tol)

    where u is the limit solution and S_n, S are one sweep of the member
    and limit integral operators, both applied literally to u.  The first
    term bounds the gap between the exact solutions; the additive term
    covers the two solver stops, each certified within tol of its exact
    fixed point in every weighted component.

    lanes=True declares that members, called with an int64 index column
    of shape (lanes, 1), is the family's lane form under MapFamily's
    contract: its f and g map the nodes and (lanes x grid_pts) arrays of
    values, one row per member, to slopes of that shape, and its initial
    values and radii are float64 columns or shared scalars.  Every member
    the rows and the probe fetch is then solved up front in blocks of
    lanes, bit for bit as ode_solve solves it; a member the lanes cannot
    settle is left to ode_solve, which raises as before.

    Only distances are kept per index.  When a distance_log dict is
    supplied, every index the probe or the rows touch is recorded there as
    n -> distance element, so callers can study the full decay profile
    without re-solving anything.
    """
    indices = tuple(indices)
    first = members(1)
    if first.center != limit.center:
        raise ValueError("family members and limit must share the expansion center")
    cert = _family_certificate(ode_certify(first), ode_certify(limit), limit.center)
    grid = _ode_grid(cert, grid_pts, tol)
    inv = neumann_inverse_e_minus(cert.alpha)

    limit_sol = ode_solve(limit, grid_pts, tol, cert)
    u_y, u_z = limit_sol.y, limit_sol.z

    memo: dict = {}  # n -> distance to the limit solution
    if lanes:
        want = (*indices, *range(cfg.start, cfg.horizon + 1))
        todo = [n for n in dict.fromkeys(want) if type(n) is int]
        rows = max(1, _ODE_BLOCK // (grid_pts - 1))
        for i in range(0, len(todo), rows):
            _ode_lane_block(members, grid, todo[i:i + rows], u_y, u_z, memo)

    def distance_to_limit(n: int) -> R2Elem:
        d = memo.get(n)
        if d is None:
            sol = ode_solve(members(n), grid_pts, tol, cert)
            d1, d2, _ = grid.space.distances((sol.y, sol.z), (u_y, u_z))
            d = memo[n] = R2Elem(float(d1), float(d2))
        if distance_log is not None:
            distance_log[n] = d
        return d

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
    probe = is_c_sequence(distance_to_limit, cfg)
    return _bound_report(indices, rows, probe)
