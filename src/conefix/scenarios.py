"""Named desk-scale scenarios behind the command line tool.

Each scenario wires library pieces into one reproducible run: it builds a
space and a family, runs the relevant checkers and harnesses, and reduces
everything to a row table (index, distance pair, bound pair, flag) plus a
single verdict.  The anchor string on each scenario is a stable external
identifier for cross-referencing runs; treat it as an opaque label.

Determinism contract: for a fixed scenario, knob set, and seed, the JSON
and CSV payloads are byte identical across runs.  Nothing here reads the
clock or ambient state; all randomness flows from the seed knob.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .algebra import R2Elem, UT2Elem, cone_compare, norm, scale
from .applications import (
    CoupledSystem,
    OdeProblem,
    coupled_sequence_harness,
    coupled_solve,
    ode_certify,
    ode_sequence_harness,
    ode_solve,
)
from .fixed_point import (
    BoundTable,
    ContractionMap,
    MapFamily,
    PlainMap,
    SolvedMembers,
    _uniform_sups,
    check_pointwise_convergence,
    check_uniform_convergence,
    dense_sample,
    fixed_point_cluster_check,
    pointwise_limit_harness,
    property_g_check,
    subdomain_limit_harness,
    uniform_limit_harness,
)
from .spaces import (
    BoxDomain,
    CSeqProbeConfig,
    IntervalDomain,
    IntervalUT2Space,
    PlaneR2Space,
    default_probes,
    is_c_sequence,
)

__all__ = [
    "ScenarioConfig",
    "ScenarioRun",
    "Scenario",
    "SCENARIOS",
    "KNOB_CAPS",
    "run_scenario",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """User-facing knobs; None means take the scenario's default."""

    tol: float | None = None
    horizon: int | None = None
    grid_pts: int | None = None
    seed: int = 0

    def declared_by(self, scenario: Scenario) -> ScenarioConfig:
        """This config without the knobs scenario does not declare."""
        return dataclasses.replace(self, **{
            key: None for key in ("tol", "horizon", "grid_pts") if key not in scenario.defaults
        })


@dataclass(frozen=True)
class ScenarioRun:
    """One finished scenario: row table, verdict, and human notes.

    The notes are commentary for a terminal; only name, anchor, config,
    table rows, and verdict enter the serialized payloads.
    """

    name: str
    anchor: str
    config: dict
    table: BoundTable
    verdict: bool
    notes: tuple[str, ...]

    def to_json_doc(self) -> dict:
        return {
            "scenario": self.name,
            "anchor": self.anchor,
            "config": self.config,
            "rows": self.table.json_rows(),
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_doc(), sort_keys=True, indent=2) + "\n"

    # defined here rather than inherited: the benchmark's per-layer trace
    # (perfbench/layers.py) patches to_json and to_csv in this class body
    def to_csv(self) -> str:
        return self.table.to_csv()


@dataclass(frozen=True)
class Scenario:
    name: str
    anchor: str
    summary: str
    defaults: dict
    runner: Callable[[dict], tuple]


_DISPLAY_BASE = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 50, 100, 200, 500,
                 1000, 2000, 5000, 10_000)


def _display_indices(limit: int) -> tuple[int, ...]:
    picked = [n for n in _DISPLAY_BASE if n <= limit]
    if picked[-1] != limit:
        picked.append(limit)
    return tuple(picked)


# ---------------------------------------------------------------------------
# scenario: probe thresholds at exact float boundaries


def _threshold_index(k: int, probe_scale: float) -> int:
    # boundary in exact rationals: the sequence k/n stays strictly below the
    # probe from floor(k/probe) + 1 on, with equality (a failure) exactly at
    # the integer boundary; Fraction(str(.)) recovers the decimal the float
    # literal was written as
    return int(Fraction(k) / Fraction(str(probe_scale))) + 1


def _run_example_2_6(knobs: dict):
    horizon = knobs["horizon"]
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=horizon)
    notes = []
    verdict = True
    display_space = IntervalUT2Space(1.0)
    for k in (1, 2, 5):
        # maps x -> x/n against the zero map, measured where the gap is
        # largest; the distance pair at x = 1 is (1/n, k/n)
        space = IntervalUT2Space(float(k))
        report = is_c_sequence(
            (UT2Elem, lambda ns, s=space: s.distances(1.0 / ns, np.zeros(ns.shape))[:2]), cfg)
        verdict = verdict and report.passed
        for probe, out in zip(cfg.probes, report.outcomes):
            expected = _threshold_index(k, probe.first)
            hit = out.n_found == expected
            verdict = verdict and hit
            notes.append(
                f"k={k} probe={probe.first}: N={out.n_found} expected={expected}"
                + ("" if hit else " MISMATCH")
            )
    small = cfg.probes[-1]
    indices = _display_indices(horizon)
    dists = tuple(display_space.distance(1.0 / n, 0.0) for n in indices)
    respected = tuple(cone_compare(d, small).way_below for d in dists)
    table = BoundTable(indices, dists, tuple(small for _ in indices), respected)
    return table, verdict, notes


# ---------------------------------------------------------------------------
# scenario: pointwise convergence without uniform convergence


# lanes per list handed to Python's pow in _power: bounds the temporaries
# of a long column
_POW_CHUNK = 4096

# x ** e, for 0 < x and e >= 1, is +0.0 when e * ln(x) < _POW_ZERO_LOG: the
# true power is then below e^-800 < 2^-1154, a factor of about e^55 under
# 2^-1075 (about e^-745.13), half the least subnormal, a margin no error of
# log or of a pow that rounds to nearest can bridge
_POW_ZERO_LOG = -800.0


def _power(n, p):
    """(x ** (n * n), y ** n) at p = (x, y), with Python's own float ** int,
    lane by lane when n is an index column and p a pair of coordinate
    columns: numpy's power rounds differently from it in a few per cent of
    these values.  A lane with base x > 0 and exponent e whose
    e * ln(x) < -800 is written +0.0 without the call: its power is below
    2^-1154, about e^55 under half the least subnormal, and pow rounds it to
    +0.0 (glibc's through its underflow path, which CPython's float ** int
    keeps).  Zero, negative, NaN, infinite and >= 1 bases always go to **."""
    if not isinstance(n, np.ndarray):
        # a numpy integer would power with numpy's own scalar pow
        n = operator.index(n)
        return (p[0] ** (n * n), p[1] ** n)
    xs, ys = p
    first, second = np.zeros(n.shape), np.zeros(n.shape)
    for i in range(0, n.size, _POW_CHUNK):
        chunk = slice(i, i + _POW_CHUNK)
        ns, x_chunk, y_chunk = n[chunk], xs[chunk], ys[chunk]
        # n * n in float64, where it cannot wrap
        live = _pow_live(x_chunk, ns.astype(np.float64) ** 2)
        first[chunk][live] = [x ** (m * m) for m, x in zip(ns[live].tolist(),
                                                           x_chunk[live].tolist())]
        live = _pow_live(y_chunk, ns)
        second[chunk][live] = [y ** m for m, y in zip(ns[live].tolist(),
                                                      y_chunk[live].tolist())]
    return first, second


def _pow_live(bases, exponents):
    """The lanes of _power whose base ** exponent Python must compute: all but
    a positive base with exponents * ln(base) < _POW_ZERO_LOG.  log(0) and
    log of a negative base are ignored here, so that the judge's
    divide="raise" never sees them."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return ~((bases > 0.0) & (exponents * np.log(bases) < _POW_ZERO_LOG))


def _power_family() -> tuple[PlaneR2Space, MapFamily]:
    """(space, family) of example_2_8: (x, y) -> (x ** (n n), y ** n) on the
    half-open unit square, against the zero map on it."""
    box = BoxDomain((0.0, 0.0), (1.0, 1.0), open_hi=True)
    space = PlaneR2Space((0.0, 0.0), (1.0, 1.0), open_hi=True,
                         sample_box=((0.05, 0.05), (0.95, 0.95)))
    family = MapFamily(
        lambda n: PlainMap(lambda p: _power(n, p), box),
        PlainMap(lambda p: (0.0, 0.0), box),
        adversarial=lambda n: [(5.0 ** (-1.0 / (n * n)), 3.0 ** (-1.0 / n))],
    )
    return space, family


def _run_example_2_8(knobs: dict):
    horizon, grid_pts, seed = knobs["horizon"], knobs["grid_pts"], knobs["seed"]
    space, family = _power_family()
    box = family.limit.domain
    rng = np.random.default_rng(seed)
    points = space.sample(rng, 12) + [(0.5, 0.5), (0.9, 0.9)]
    pw = check_pointwise_convergence(
        family, space, points, CSeqProbeConfig.default(R2Elem, horizon=horizon)
    )
    # the travelling witness keeps the sup pinned at (1/5, 1/3) for every n,
    # so the failure needs no long horizon to show itself
    uni_horizon = min(horizon, 300)
    pinned = R2Elem(1.0 / 11.0, 1.0 / 8.0)
    uni_cfg = CSeqProbeConfig(default_probes(R2Elem) + (pinned,), horizon=uni_horizon)
    uni = check_uniform_convergence(family, space, uni_cfg, grid_count=grid_pts)
    verdict = pw.passed and not uni.passed
    notes = [
        f"pointwise: passed={pw.passed} over {len(points)} points",
        f"uniform: passed={uni.passed} on grid of {uni.grid_size} plus witness",
        f"witness image distance stays at ({1/5!r}, {1/3!r})",
    ]
    base_points = dense_sample(box, grid_pts)
    indices = _display_indices(uni_horizon)
    first, second = _uniform_sups(family, space, box, base_points,
                                  np.array(indices, dtype=np.int64))
    dists = tuple(map(R2Elem, first.tolist(), second.tolist()))
    respected = tuple(cone_compare(d, pinned).way_below for d in dists)
    table = BoundTable(indices, dists, tuple(pinned for _ in indices), respected)
    return table, verdict, notes


# ---------------------------------------------------------------------------
# scenarios: fixed point limits under uniform / pointwise map convergence


def _interval_ut2_family(member_shift: Callable[[int], float],
                         member_rate: Callable[[int], float],
                         coefficient_bound=None) -> MapFamily:
    # the member is written once, array-safe with + - * / only, so the same
    # expressions serve one member on floats and many as numpy lanes
    dom = IntervalDomain(0.0, 1.0)
    members = lambda n: ContractionMap(
        lambda x: member_rate(n) * x + member_shift(n), UT2Elem(member_rate(n), 0.0), dom
    )
    limit = ContractionMap(lambda x: 0.5 * x, UT2Elem(0.5, 0.0), dom)
    return MapFamily(members, limit, coefficient_bound)


def _run_thm_2_9(knobs: dict):
    tol, horizon, grid_pts = knobs["tol"], knobs["horizon"], knobs["grid_pts"]
    space = IntervalUT2Space(2.0)
    family = _interval_ut2_family(lambda n: 1.0 / (n + 2.0), lambda n: 0.5)
    premise_cfg = CSeqProbeConfig(
        tuple(UT2Elem(s, s) for s in (1.0, 0.1, 0.01)),
        horizon=min(horizon, 500),
    )
    premise = check_uniform_convergence(family, space, premise_cfg, grid_count=grid_pts)
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=horizon)
    indices = _display_indices(min(horizon, 1000))
    report = uniform_limit_harness(family, space, cfg, indices, start=0.0, tol=tol)
    verdict = premise.passed and report.verdict
    notes = [
        f"uniform map convergence premise: passed={premise.passed}",
        f"bound rows respected: {sum(report.respected)}/{len(report.respected)}",
        f"fixed point distances pass probes: {report.probe.passed}",
    ]
    return report, verdict, notes


def _run_thm_2_10(knobs: dict):
    tol, horizon = knobs["tol"], knobs["horizon"]
    space = IntervalUT2Space(2.0)
    family = _interval_ut2_family(
        lambda n: 1.0 / (n + 2.0), lambda n: 0.5 - 1.0 / (n + 3.0),
        coefficient_bound=UT2Elem(0.5, 0.0),
    )
    rng = np.random.default_rng(knobs["seed"])
    points = space.sample(rng, 8) + [0.0, 1.0]
    # the map gap at x = 0 is 1/(n+2), so the finest probe resolves just
    # under n = 2000; leave room past it for the tail requirement
    premise = check_pointwise_convergence(
        family, space, points, CSeqProbeConfig.default(UT2Elem, horizon=min(horizon, 4000))
    )
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=horizon)
    indices = _display_indices(min(horizon, 1000))
    report = pointwise_limit_harness(family, space, cfg, indices, start=0.0, tol=tol)
    verdict = premise.passed and report.verdict
    notes = [
        f"pointwise map convergence premise: passed={premise.passed} "
        f"over {len(points)} points (member rates vary with n)",
        f"bound rows respected: {sum(report.respected)}/{len(report.respected)}",
        f"fixed point distances pass probes: {report.probe.passed}",
    ]
    return report, verdict, notes


def _subinterval_family() -> MapFamily:
    # member n lives on [1/n, 1] with fixed point exactly 1/n: halving in
    # binary commutes with rounding, so 0.5 * (1/n) + 1/(2n) lands on the
    # stored 1/n bit for bit and the lower edge is never crossed; the member
    # is written once, array-safe, for floats and numpy lanes alike
    members = lambda n: ContractionMap(
        lambda x: 0.5 * x + 1.0 / (2.0 * n), UT2Elem(0.5, 0.0), IntervalDomain(1.0 / n, 1.0)
    )
    limit = ContractionMap(
        lambda x: 0.5 * x, UT2Elem(0.5, 0.0), IntervalDomain(0.0, 1.0)
    )
    return MapFamily(members, limit)


def _run_thm_3_6(knobs: dict):
    tol, horizon = knobs["tol"], knobs["horizon"]
    space = IntervalUT2Space(2.0)
    family = _subinterval_family()
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=horizon)
    rng = np.random.default_rng(knobs["seed"])
    g_points = space.sample(rng, 4) + [0.0, 1.0]
    g_premise = property_g_check(
        family, space,
        lambda x: (lambda ns, x=x: np.maximum(x, 1.0 / ns)),
        cfg, g_points,
    )
    indices = _display_indices(min(horizon, 1000))
    edge = lambda n: 1.0 / n
    fp_cache = SolvedMembers()
    report = subdomain_limit_harness(
        family, space, cfg, indices, start=1.0, x_inf=0.0, witness=edge,
        tol=tol, fp_cache=fp_cache,
    )
    echoed = subdomain_limit_harness(
        family, space, cfg, indices, start=1.0, x_inf=0.0, responder=edge,
        tol=tol, fp_cache=fp_cache,
    )
    verdict = g_premise.passed and report.verdict and echoed.verdict
    notes = [
        f"approach-from-inside premise: passed={g_premise.passed} "
        f"over {len(g_points)} points (member domains grow toward the full interval)",
        f"witness-form rows respected: {sum(report.respected)}/{len(report.respected)}",
        f"responder-form rows respected: {sum(echoed.respected)}/{len(echoed.respected)}",
        f"fixed point distances pass probes: {report.probe.passed}",
    ]
    return report, verdict, notes


def _run_thm_3_10(knobs: dict):
    tol = knobs["tol"]
    space = IntervalUT2Space(2.0)
    settling = _subinterval_family()
    indices = tuple(range(1, 401))
    fp_cache = SolvedMembers()
    settled = fixed_point_cluster_check(
        settling, space, indices, start=1.0, tol=tol, fp_cache=fp_cache
    )

    # the shift is 0.1 at odd n and 0.4 at even n, written array-safe so
    # that the members solve as lanes: 1 * 0.1 + 0 * 0.4 is exactly 0.1
    dom = IntervalDomain(0.0, 1.0)
    swing_members = lambda n: ContractionMap(
        lambda x: 0.5 * x + ((n % 2) * 0.1 + (1 - n % 2) * 0.4),
        UT2Elem(0.5, 0.0),
        dom,
    )
    swinging = MapFamily(swing_members, settling.limit)
    swung = fixed_point_cluster_check(
        swinging, space, tuple(range(1, 101)), start=0.0, tol=tol
    )
    verdict = (
        settled.converged
        and settled.residual_ok
        and settled.cluster_point == 0.0
        and not swung.converged
    )
    notes = [
        f"settling family: {settled.conclusion} "
        f"(cluster point {settled.cluster_point!r}, radius {settled.cluster_radius:.3e})",
        f"swinging family: {swung.conclusion} (radius {swung.cluster_radius:.3e})",
    ]
    ball = UT2Elem(10.0 * tol, 10.0 * tol)
    display = _display_indices(400)
    reference = (
        settled.cluster_point if settled.cluster_point is not None
        else fp_cache[display[-1]].point
    )
    dists = tuple(space.distance(fp_cache[n].point, reference) for n in display)
    respected = tuple(cone_compare(d, ball).le for d in dists)
    table = BoundTable(display, dists, tuple(ball for _ in display), respected)
    return table, verdict, notes


# ---------------------------------------------------------------------------
# scenario: coupled scalar systems


def _system_family():
    # the equations are array-safe with + - * / only, so members(ns) for an
    # index column is the whole family on numpy lanes
    members = lambda n: CoupledSystem(
        lambda x, y: -0.5 * x + 0.25 + 1.0 / n,
        lambda x, y: -0.5 * y + 0.125,
        lip=0.5,
    )
    limit = CoupledSystem(
        lambda x, y: -0.5 * x + 0.25, lambda x, y: -0.5 * y + 0.125, lip=0.5
    )
    return members, limit


def _run_thm_4_1(knobs: dict):
    tol, horizon = knobs["tol"], knobs["horizon"]
    seed = knobs["seed"]
    box = BoxDomain((-4.0, -4.0), (4.0, 4.0))

    aligned = CoupledSystem(
        lambda x, y: -0.5 * x + 1.0, lambda x, y: -0.5 * y + 0.5, lip=0.5
    )
    root_a = coupled_solve(aligned, tol=tol, box=box, seed=seed)
    aligned_ok = abs(root_a.x - 2.0) < 1e-8 and abs(root_a.y - 1.0) < 1e-8

    # cross terms: each equation leans on the other unknown, which the
    # one-variable-at-a-time condition cannot certify, and no element of
    # this plane algebra dominates the true coupling; solved on the
    # declared-rate heuristic with the residual test as the only guarantee
    crossed = CoupledSystem(
        lambda x, y: -0.5 * x + 0.125 * y + 1.0,
        lambda x, y: 0.125 * x - 0.5 * y + 1.0,
        lip=0.625,
    )
    root_b = coupled_solve(crossed, tol=tol, check_condition=False)
    cross_ok = abs(root_b.x - 8.0 / 3.0) < 1e-8 and abs(root_b.y - 8.0 / 3.0) < 1e-8

    members, limit = _system_family()
    cfg = CSeqProbeConfig.default(R2Elem, horizon=horizon)
    indices = _display_indices(min(horizon, 1000))
    report = coupled_sequence_harness(members, limit, indices, cfg, tol=tol)
    verdict = aligned_ok and cross_ok and report.verdict
    notes = [
        f"aligned system root ({root_a.x!r}, {root_a.y!r}) in {root_a.iterations} steps",
        f"cross-terms system root ({root_b.x!r}, {root_b.y!r}) "
        f"accepted by residual only (no cone certificate)",
        f"system family: rows respected {sum(report.respected)}/{len(report.respected)}, "
        f"root distances pass probes: {report.probe.passed}",
    ]
    return report, verdict, notes


# ---------------------------------------------------------------------------
# scenarios: initial value problem pairs


_SAMPLED_SUP_NOTE = (
    "the solve interval rests on sup|f| and sup|g| sampled on a mesh of the box "
    "and inflated by 5%: a heuristic, not an enclosure"
)


def _linear_ivp() -> OdeProblem:
    return OdeProblem(
        f=lambda x, y: -y,
        g=lambda x, z: -2.0 * z,
        center=0.0, y_init=1.0, z_init=1.0,
        x_radius=0.5, y_radius=1.0, z_radius=1.0,
        lip_f=1.0, lip_g=2.0,
    )


def _run_ode_linear(knobs: dict):
    tol, grid_pts = knobs["tol"], knobs["grid_pts"]
    problem = _linear_ivp()
    cert = ode_certify(problem)
    cert_ok = (
        cert.sampled_max_f == 2.0
        and cert.sampled_max_g == 4.0
        and cert.tau == 4.0
        and cert.alpha.first == 0.5
    )
    sol = ode_solve(problem, grid_pts, tol, certificate=cert)
    err_y = float(np.max(np.abs(sol.y - np.exp(-sol.nodes))))
    err_z = float(np.max(np.abs(sol.z - np.exp(-2.0 * sol.nodes))))
    accurate = err_y < 1e-6 and err_z < 1e-6

    rate = cert.alpha.first
    first = sol.delta_history[0]
    pad = 1e-13 * (1.0 + norm(first))
    indices = tuple(range(1, sol.iterations + 1))
    dists = tuple(sol.delta_history)
    bounds = tuple(
        scale(rate ** (k - 1), first) + R2Elem(pad, pad) for k in indices
    )
    respected = tuple(cone_compare(d, b).le for d, b in zip(dists, bounds))
    table = BoundTable(indices, dists, bounds, respected)
    verdict = cert_ok and accurate and all(respected)
    notes = [
        f"certificate: h={cert.h!r} (h1={cert.h1!r}, h2={cert.h2!r}), "
        f"tau={cert.tau!r}, contraction first coordinate {cert.alpha.first!r}",
        f"settled in {sol.iterations} sweeps; sweep gaps shrink at factor <= {rate}",
        f"gap to slope-field antiderivatives: y {err_y:.3e}, z {err_z:.3e}",
        f"sup|f|={cert.max_f!r}, sup|g|={cert.max_g!r}; " + _SAMPLED_SUP_NOTE,
    ]
    return table, verdict, notes


def _damped_ivp_family():
    """(members, limit) of ode_sequence: y' = -(1 + 1/n) y against the
    linear pair, the second equation shared."""
    limit = _linear_ivp()
    # the member is written once, array-safe with + - * / only, so the same
    # expressions serve one member and an int64 column of them as lanes
    members = lambda n: OdeProblem(
        f=lambda x, y: -(1.0 + 1.0 / n) * y,
        g=limit.g,
        center=0.0, y_init=1.0, z_init=1.0,
        x_radius=0.5, y_radius=1.0, z_radius=1.0,
        lip_f=1.0 + 1.0 / n, lip_g=2.0,
    )
    return members, limit


def _run_ode_sequence(knobs: dict):
    tol, horizon, grid_pts = knobs["tol"], knobs["horizon"], knobs["grid_pts"]
    members, limit = _damped_ivp_family()
    cfg = CSeqProbeConfig.default(R2Elem, horizon=horizon)
    indices = _display_indices(min(horizon, 1000))
    log: dict[int, R2Elem] = {}
    report = ode_sequence_harness(
        members, limit, indices, cfg, grid_pts=grid_pts, tol=tol, distance_log=log,
    )
    lo_n, hi_n = 10, min(horizon, 1000)
    monotone = all(
        cone_compare(log[n + 1], log[n]).le for n in range(lo_n, hi_n)
    )
    final = log[hi_n]
    small_enough = final.first < 1e-3 and final.second < 1e-3
    z_pinned = all(log[n].second == 0.0 for n in range(lo_n, hi_n + 1))
    verdict = report.verdict and monotone and small_enough and z_pinned
    notes = [
        f"rows respected {sum(report.respected)}/{len(report.respected)}, "
        f"probes passed: {report.probe.passed}",
        f"distances nonincreasing on [{lo_n}, {hi_n}]: {monotone}",
        f"distance at n={hi_n}: ({final.first!r}, {final.second!r})",
        f"second equation identical across the family, gap exactly zero: {z_pinned}",
        _SAMPLED_SUP_NOTE,
    ]
    return report, verdict, notes


# ---------------------------------------------------------------------------
# registry


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "example_2_6", "Example 2.6",
            "probe thresholds of k/n sequences land exactly past the rational boundary",
            {"horizon": 10_000},
            _run_example_2_6,
        ),
        Scenario(
            "example_2_8", "Example 2.8",
            "power maps converge pointwise but a travelling witness defeats the sup",
            {"horizon": 2000, "grid_pts": 256},
            _run_example_2_8,
        ),
        Scenario(
            "thm_2_9", "Theorem 2.9",
            "uniformly convergent contractions drag their fixed points along, with bounds",
            {"tol": 1e-12, "horizon": 10_000, "grid_pts": 128},
            _run_thm_2_9,
        ),
        Scenario(
            "thm_2_10", "Theorem 2.10",
            "pointwise convergence with varying rates still bounds fixed point drift",
            {"tol": 1e-12, "horizon": 10_000},
            _run_thm_2_10,
        ),
        Scenario(
            "thm_3_6", "Theorem 3.6",
            "fixed points on moving sub-domains, bounded through edge witnesses",
            {"tol": 1e-12, "horizon": 10_000},
            _run_thm_3_6,
        ),
        Scenario(
            "thm_3_10", "Theorem 3.10",
            "settling fixed points land on a fixed point of the limit map; swinging ones prove nothing",
            {"tol": 1e-3},
            _run_thm_3_10,
        ),
        Scenario(
            "thm_4_1", "Theorem 4.1",
            "coupled scalar systems: certified roots, a residual-only root, and a family",
            {"tol": 1e-14, "horizon": 10_000},
            _run_thm_4_1,
        ),
        Scenario(
            "ode_linear", "Theorem 4.2",
            "certified interval and geometric sweep decay for a linear slope pair",
            {"tol": 1e-11, "grid_pts": 257},
            _run_ode_linear,
        ),
        Scenario(
            "ode_sequence", "Theorem 4.3",
            "solution drift of a slope family shrinks monotonically with certified bounds",
            {"tol": 1e-10, "horizon": 1000, "grid_pts": 257},
            _run_ode_sequence,
        ),
    )
}


# upper limits on the size knobs, checked before anything is allocated: the
# probe judge keeps 16 bytes per index and the family harnesses one result
# per index, and sweeps and sup checks hold arrays or point lists of grid_pts
KNOB_CAPS = {"horizon": 1_000_000, "grid_pts": 100_001}


def run_scenario(name: str, config: ScenarioConfig | None = None) -> ScenarioRun:
    """Resolve knobs against the scenario's defaults and run it.

    A knob value is checked first; a valid value for a knob the scenario
    does not declare (in its defaults) is then refused as well, since the
    payload would echo a setting that had no effect.
    """
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; choices: {', '.join(SCENARIOS)}")
    scenario = SCENARIOS[name]
    config = config if config is not None else ScenarioConfig()
    knobs = {"seed": config.seed}
    for key in ("tol", "horizon", "grid_pts"):
        given = getattr(config, key)
        if given is not None:
            knobs[key] = given
        elif key in scenario.defaults:
            knobs[key] = scenario.defaults[key]
    for key, value in knobs.items():
        if key in KNOB_CAPS and value is not None:
            if value < 1:
                raise ValueError(f"{key} must be positive, got {value}")
            if value > KNOB_CAPS[key]:
                raise ValueError(f"{key} must be at most {KNOB_CAPS[key]}, got {value}")
        if key == "tol" and value is not None and not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"tol must be positive and finite, got {value}")
        if key == "seed" and value < 0:
            raise ValueError(f"seed must be >= 0, got {value}")
    for key in knobs:
        if key != "seed" and key not in scenario.defaults:
            raise ValueError(
                f"{name} has no {key} knob; its knobs are "
                f"{', '.join((*scenario.defaults, 'seed'))}"
            )
    table, verdict, notes = scenario.runner(knobs)
    return ScenarioRun(name, scenario.anchor, dict(sorted(knobs.items())), table,
                       bool(verdict), tuple(notes))
