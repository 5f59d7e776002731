"""Coupled functional equations and the certified ODE-pair solver."""

import dataclasses

import numpy as np
import pytest

import conefix.applications as applications
import conefix.fixed_point as fixed_point
from conefix.algebra import R2Elem, UT2Elem, norm, zero
from conefix.applications import (
    CoupledSystem,
    OdeProblem,
    _family_certificate,
    _tube_excess,
    coupled_sequence_harness,
    coupled_solve,
    ode_certify,
    ode_sequence_harness,
    ode_solve,
    verify_condition,
)
from conefix.errors import (
    ConditionViolated,
    DegenerateBox,
    LeftInvariantSet,
    NoConvergence,
)
from conefix.fixed_point import ContractionMap, MapFamily, picard_solve, uniform_limit_harness
from conefix.scenarios import ScenarioConfig, _damped_ivp_family, run_scenario
from conefix.spaces import (
    BieleckiPairSpace,
    CSeqProbeConfig,
    IntervalUT2Space,
    default_probes,
    is_c_sequence,
)
from picard_reference import picard_members

TWO_PROBES = (R2Elem(1.0, 1.0), R2Elem(0.05, 0.05))


def _aligned_system() -> CoupledSystem:
    return CoupledSystem(
        lambda x, y: -0.5 * x + 0.25,
        lambda x, y: -0.5 * y + 0.125,
        0.5,
    )


def _crossed_system() -> CoupledSystem:
    return CoupledSystem(
        lambda x, y: -0.5 * x + 0.125 * y + 1.0,
        lambda x, y: 0.125 * x - 0.5 * y + 1.0,
        0.625,
    )


def _linear_ivp() -> OdeProblem:
    return OdeProblem(
        f=lambda x, y: -y,
        g=lambda x, z: -2.0 * z,
        center=0.0,
        y_init=1.0,
        z_init=1.0,
        x_radius=0.5,
        y_radius=1.0,
        z_radius=1.0,
        lip_f=1.0,
        lip_g=2.0,
    )


# ---------------------------------------------------------------- coupled


def test_coupled_solve_aligned_literal():
    root = coupled_solve(_aligned_system(), tol=1e-12)
    assert abs(root.x - 0.5) < 1e-10
    assert abs(root.y - 0.25) < 1e-10
    # both equations are satisfied to solver accuracy at the root
    assert root.residual.first < 1e-11 and root.residual.second < 1e-11


def test_coupled_solve_zeroing_system_stops_at_origin():
    system = CoupledSystem(lambda x, y: -x, lambda x, y: -y, 0.0)
    root = coupled_solve(system)
    assert (root.x, root.y) == (0.0, 0.0)
    assert root.iterations == 1
    assert root.residual == zero(R2Elem)


def test_coupled_solve_crossed_matches_linear_oracle():
    oracle = np.linalg.solve(
        np.array([[0.5, -0.125], [-0.125, 0.5]]), np.array([1.0, 1.0])
    )
    assert oracle[0] == pytest.approx(8.0 / 3.0, rel=1e-12)
    root = coupled_solve(_crossed_system(), tol=1e-12)
    assert abs(root.x - oracle[0]) < 1e-8
    assert abs(root.y - oracle[1]) < 1e-8


def test_coupled_condition_gate(monkeypatch):
    steep = CoupledSystem(lambda x, y: -2.0 * x + 1.0, lambda x, y: -0.5 * y, 0.5)
    monkeypatch.setattr(applications, "_CONDITION_SAMPLES", 200)
    report = verify_condition(steep, seed=3)
    assert report.samples == 200 and report.violations > 0
    with pytest.raises(ConditionViolated):
        coupled_solve(steep)
    # bypassing the gate just exposes the oscillation to the iteration cap
    monkeypatch.setattr(fixed_point, "_MAX_ITER", 50)
    with pytest.raises(NoConvergence, match=r"^no fixed point within 50 iterations"):
        coupled_solve(steep, check_condition=False)
    assert verify_condition(_crossed_system()).violations == 0


def test_coupled_solve_rejects_sloppy_stop():
    """An understated coefficient loosens the stop rule; the final residual
    check must refuse the result instead of returning it."""
    hasty = CoupledSystem(lambda x, y: -0.5 * x + 1.0, lambda x, y: -0.5 * y, 0.01)
    with pytest.raises(NoConvergence):
        coupled_solve(hasty, check_condition=False)


def test_coupled_system_validation():
    with pytest.raises(ValueError):
        CoupledSystem(lambda x, y: 0.0, lambda x, y: 0.0, 1.0)
    with pytest.raises(ValueError):
        CoupledSystem(lambda x, y: 0.0, lambda x, y: 0.0, -0.1)
    assert _aligned_system().as_contraction().alpha == R2Elem(0.5, 0.0)


def test_coupled_sequence_harness_family():
    members = lambda n: CoupledSystem(
        lambda x, y, n=n: -0.5 * x + 0.25 + 1.0 / n,
        lambda x, y: -0.5 * y + 0.125,
        0.5,
    )
    cfg = CSeqProbeConfig(probes=TWO_PROBES, horizon=300)
    # solve tightly: member and limit share the y equation, and a loose stop
    # leaves a solver gap there bigger than the bound pad
    report = coupled_sequence_harness(
        members, _aligned_system(), range(1, 41), cfg, tol=1e-14
    )
    assert report.verdict and all(report.respected)
    # the roots sit at (0.5 + 2 / n, 0.25) and (0.5, 0.25)
    for n, dist in zip(range(1, 41), report.dists):
        assert abs(dist.first - 2.0 / n) < 1e-8
        assert dist.second < 1e-8
    # the default coefficient bound is the shared lip, so the first bound
    # is about twice the first member's equation gap at the limit root
    assert report.bounds[0].first == pytest.approx(2.0, rel=1e-9)


def test_coupled_sequence_harness_frozen_family():
    cfg = CSeqProbeConfig(probes=TWO_PROBES, horizon=60)
    report = coupled_sequence_harness(
        lambda n: _aligned_system(), _aligned_system(), range(1, 11), cfg
    )
    assert report.verdict
    assert all(d == zero(R2Elem) for d in report.dists)
    assert all(o.n_found == 0 for o in report.probe.outcomes)


def test_coupled_sequence_harness_bounds_members_with_a_larger_rate():
    # member 1 declares rate 0.1 and every later member 0.9 (each contracts
    # at 0.5 in truth); the limit declares 0.1.  A coefficient taken from
    # member 1 and the limit alone makes the row bounds about half the
    # distances, so the rows must read the rates of the members they show.
    def members(n):
        lip = _where(n == 1, 0.1, 0.9)
        pull = _where(n == 1, 0.9, 0.5)
        return CoupledSystem(lambda x, y: -pull * (x - 10.0 / n), lambda x, y: -pull * y, lip)

    limit = CoupledSystem(lambda x, y: -0.9 * x, lambda x, y: -0.9 * y, 0.1)
    cfg = CSeqProbeConfig(probes=TWO_PROBES, horizon=50)
    report = coupled_sequence_harness(members, limit, (2, 5, 10, 50), cfg)
    assert [d.first for d in report.dists] == pytest.approx([5.0, 2.0, 1.0, 0.2])
    assert report.respected == (True, True, True, True)


def test_coupled_lanes_keep_a_lip_that_varies_with_n(monkeypatch):
    # the lane member's lip is the column 0.5 - 0.1 / ns, checked in every
    # lane; the report is the one of members solved by picard_solve one by
    # one, and only the limit reaches picard_solve
    members = lambda n: CoupledSystem(
        lambda x, y: -(0.5 + 0.1 / n) * x + 0.25 + 1.0 / n,
        lambda x, y: -0.5 * y + 0.125,
        0.5 - 0.1 / n,
    )
    cfg = CSeqProbeConfig(probes=TWO_PROBES, horizon=2000)
    real, calls = fixed_point.picard_solve, []

    def counting(T, *args, **kwargs):
        calls.append(T)
        return real(T, *args, **kwargs)

    monkeypatch.setattr(fixed_point, "picard_solve", counting)
    run = lambda: coupled_sequence_harness(members, _aligned_system(), (1, 2, 10, 2000), cfg)
    got = run()
    assert len(calls) == 1
    with picard_members():
        assert got == run()


# ------------------------------------------------------------ certificates


def test_ode_certificate_linear_ivp_fields():
    cert = ode_certify(_linear_ivp())
    assert cert.sampled_max_f == 2.0 and cert.sampled_max_g == 4.0
    assert cert.max_f == 2.1 and cert.max_g == 4.2
    assert cert.max_f == 1.05 * cert.sampled_max_f
    assert cert.max_g == 1.05 * cert.sampled_max_g
    assert cert.h1 == 1.0 / 2.1
    assert cert.h2 == 1.0 / 4.2
    assert cert.h == min(cert.h1, cert.h2) == cert.h2
    assert cert.tau == 4.0
    assert cert.alpha == R2Elem(0.5, 0.0)
    assert cert.lo == cert.center - cert.h and cert.hi == cert.center + cert.h
    assert cert.lo == -cert.h and cert.hi == cert.h
    assert cert.center == 0.0


def test_ode_certificate_narrow_z_budget():
    problem = dataclasses.replace(_linear_ivp(), z_radius=0.1)
    cert = ode_certify(problem)
    assert cert.h2 == 0.1 / cert.max_g
    assert cert.h == min(cert.h1, cert.h2)


def test_ode_certificate_zero_slopes():
    flat = OdeProblem(
        f=lambda x, y: 0.0 * y, g=lambda x, z: 0.0 * z,
        center=0.0, y_init=1.0, z_init=-1.0,
        x_radius=0.5, y_radius=1.0, z_radius=1.0,
        lip_f=0.0, lip_g=0.0,
    )
    cert = ode_certify(flat)
    assert cert.max_f == 0.0 and cert.max_g == 0.0
    assert cert.h1 == cert.h2 == cert.h == 0.5
    assert cert.tau == 1.0 and cert.alpha == R2Elem(0.0, 0.0)
    sol = ode_solve(flat, grid_pts=65)
    assert sol.iterations == 1
    assert np.all(sol.y == 1.0) and np.all(sol.z == -1.0)


def test_ode_certificate_validation():
    for field in ("x_radius", "y_radius", "z_radius"):
        for bad in (0.0, np.nan):
            with pytest.raises(DegenerateBox):
                ode_certify(dataclasses.replace(_linear_ivp(), **{field: bad}))
    # a NaN or infinite rate used to pass: its NaN excess compared false
    for lip_f in (0.5, np.nan, np.inf):
        with pytest.raises(ConditionViolated), np.errstate(invalid="ignore"):
            ode_certify(dataclasses.replace(_linear_ivp(), lip_f=lip_f))


def _nan_right_of(x0: float):
    """The linear pair's y slope, NaN right of x0."""
    return lambda x, y: -y + np.where(x > x0, np.nan, 0.0)


def test_ode_certify_refuses_a_slope_that_is_not_finite():
    # a NaN slope passed the sampled rate check and came out as
    # sampled_max_f = nan, which no interval follows from
    with pytest.raises(ConditionViolated, match="not finite"):
        ode_certify(dataclasses.replace(_linear_ivp(), f=_nan_right_of(0.2)))
    with pytest.raises(ConditionViolated, match="not finite"):
        ode_certify(dataclasses.replace(
            _linear_ivp(), g=lambda x, z: -2.0 * z + np.where(x < 0.0, -np.inf, 0.0)))


# ----------------------------------------------------------------- solving


def test_ode_solve_linear_ivp_against_exponentials():
    sol = ode_solve(_linear_ivp(), grid_pts=257, tol=1e-11)
    nodes = sol.nodes
    assert float(np.max(np.abs(sol.y - np.exp(-nodes)))) < 1e-6
    assert float(np.max(np.abs(sol.z - np.exp(-2.0 * nodes)))) < 1e-6
    # observed contraction never outruns the certified coefficient by much
    norms = [norm(d) for d in sol.delta_history]
    assert len(norms) == sol.iterations
    assert all(b <= (0.5 + 0.05) * a for a, b in zip(norms, norms[1:]))
    # iterates keep the solution inside the certified tube
    assert float(np.max(np.abs(sol.y - 1.0))) <= 1.0 + 1e-9
    assert float(np.max(np.abs(sol.z - 1.0))) <= 1.0 + 1e-9
    # the solution's values are shared, so they reject writes
    for values in (sol.y, sol.z):
        with pytest.raises(ValueError):
            values[0] = 99.0


def test_ode_solve_quadrature_only_problem():
    kickless = OdeProblem(
        f=lambda x, y: np.cos(x) + 0.0 * y, g=lambda x, z: 0.0 * z,
        center=0.0, y_init=0.0, z_init=0.0,
        x_radius=0.5, y_radius=1.0, z_radius=1.0,
        lip_f=0.0, lip_g=0.0,
    )
    sol = ode_solve(kickless, grid_pts=257)
    assert float(np.max(np.abs(sol.y - np.sin(sol.nodes)))) < 1e-5
    assert np.all(sol.z == 0.0)


def test_ode_solve_halving_the_spacing_quarters_the_error():
    problem = _linear_ivp()
    errs = []
    for pts in (501, 1001):
        sol = ode_solve(problem, grid_pts=pts, tol=1e-11)
        errs.append(float(np.max(np.abs(sol.y - np.exp(-sol.nodes)))))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_ode_solve_grid_validation():
    problem = _linear_ivp()
    for bad in (2, 4, 256):
        with pytest.raises(ValueError):
            ode_solve(problem, grid_pts=bad)


def test_ode_solve_refuses_leaky_tube():
    problem = _linear_ivp()
    # certificate doctored to cover a window wider than the safe one; the
    # z component then drifts past its radius and the solver must notice
    wide = dataclasses.replace(ode_certify(problem), h1=1.0, h2=1.0)
    assert (wide.h, wide.lo, wide.hi) == (1.0, -1.0, 1.0)
    with pytest.raises(LeftInvariantSet):
        ode_solve(problem, grid_pts=257, certificate=wide)


def test_ode_solve_refuses_a_sweep_that_is_not_finite():
    # the NaN comes in through a slope the certificate never sampled; the
    # tube test used to read it as inside and ran on to NoConvergence
    problem = dataclasses.replace(_linear_ivp(), f=_nan_right_of(0.2))
    with pytest.raises(LeftInvariantSet, match="iterate 1 "):
        ode_solve(problem, grid_pts=257, certificate=ode_certify(_linear_ivp()))
    # a NaN radius used to switch its tube test off
    problem = dataclasses.replace(_linear_ivp(), z_radius=np.nan)
    with pytest.raises(LeftInvariantSet, match="iterate 1 "):
        ode_solve(problem, grid_pts=257, certificate=ode_certify(_linear_ivp()))


def test_ode_solve_iteration_budget(monkeypatch):
    monkeypatch.setattr(applications, "_MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence, match=r"^no settled solution within 1 sweeps"):
        ode_solve(_linear_ivp(), grid_pts=65)


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
def test_solvers_refuse_a_tol_that_is_not_positive_and_finite(tol):
    # the stop rule certifies nothing at such a tol: a NaN one is never met,
    # so the loops ran on to a zero step, and an infinite one is met at once
    refused = pytest.raises(ValueError, match="tol must be positive and finite")
    family = MapFamily(
        lambda n: ContractionMap(lambda x: 0.5 * x + 0.25 / n, UT2Elem(0.5, 0.0)),
        ContractionMap(lambda x: 0.5 * x, UT2Elem(0.5, 0.0)))
    with refused:
        picard_solve(family.limit, IntervalUT2Space(1.0), 0.0, tol)
    with refused:  # the lane solver refuses it before any step
        uniform_limit_harness(family, IntervalUT2Space(1.0),
                              CSeqProbeConfig(default_probes(UT2Elem), horizon=30),
                              (1, 2), 0.0, tol=tol)
    with refused:
        ode_solve(_linear_ivp(), 65, tol)
    members, limit = _damped_ivp_family()
    with refused:
        ode_sequence_harness(members, limit, (1, 2), CSeqProbeConfig(TWO_PROBES, horizon=30),
                             grid_pts=65, tol=tol)


# ----------------------------------------------------------- ODE families


def test_ode_sequence_harness_damping_family():
    members = lambda n: dataclasses.replace(
        _linear_ivp(),
        f=lambda x, y, n=n: -(1.0 + 1.0 / n) * y,
        lip_f=1.0 + 1.0 / n,
    )
    cfg = CSeqProbeConfig(probes=TWO_PROBES, horizon=60)
    log: dict = {}
    report = ode_sequence_harness(
        members, _linear_ivp(), (1, 2, 5, 10, 20), cfg, distance_log=log
    )
    assert report.verdict and all(report.respected)
    # the z equation is shared, and for every member past the first the
    # sweep counts agree, so the z gap vanishes bitwise
    assert log[1].second > 0.0
    assert all(log[n].second == 0.0 for n in (2, 5, 10, 20))


def test_ode_sequence_harness_forcing_family_decays_linearly():
    limit = _linear_ivp()
    members = lambda n: dataclasses.replace(
        limit, f=lambda x, y, n=n: -y + np.cos(x) / n
    )
    cfg = CSeqProbeConfig(probes=TWO_PROBES, horizon=60)
    log: dict = {}
    report = ode_sequence_harness(members, limit, (8, 16), cfg, distance_log=log)
    assert report.verdict
    # variation of constants: the gap to the limit solution scales as 1/n
    assert 1.8 <= log[8].first / log[16].first <= 2.2
    n = 8
    cert = _family_certificate(ode_certify(members(1)), ode_certify(limit), limit.center)
    sol = ode_solve(members(n), certificate=cert)
    u = ode_solve(limit, certificate=cert)
    space = BieleckiPairSpace(cert.lo, cert.hi, 257, cert.tau)
    assert space.distance((sol.y, sol.z), (u.y, u.z)) == log[n]
    nodes = sol.nodes
    oracle = np.exp(-nodes) + (np.cos(nodes) + np.sin(nodes) - np.exp(-nodes)) / (2.0 * n)
    assert float(np.max(np.abs(sol.y - oracle))) < 1e-5


def test_ode_sequence_harness_center_mismatch():
    limit = _linear_ivp()
    members = lambda n: dataclasses.replace(limit, center=0.1)
    cfg = CSeqProbeConfig(probes=TWO_PROBES, horizon=30)
    with pytest.raises(ValueError):
        ode_sequence_harness(members, limit, (1, 2), cfg)


def test_ode_sequence_harness_generator_indices():
    limit = _linear_ivp()
    cfg = CSeqProbeConfig(probes=TWO_PROBES, horizon=30)
    report = ode_sequence_harness(
        (lambda n: limit), limit, (n for n in (1, 3)), cfg
    )
    assert report.indices == (1, 3)
    assert all(d == zero(R2Elem) for d in report.dists)


@pytest.mark.parametrize("shared_g", [False, True])
def test_ode_sequence_rows_are_measured_in_the_exported_space(shared_g):
    # with the limit's own g the lanes sweep z once per block, with a g of
    # their own once per lane: both read the same distances
    members, limit = _damped_ivp_family()
    if not shared_g:
        members = _own_g(members)
    grid_pts, tol = 65, 1e-10
    cfg = CSeqProbeConfig.default(R2Elem, horizon=200)
    log: dict = {}
    report = ode_sequence_harness(
        members, limit, (1, 2, 5, 10, 50, 200), cfg, grid_pts=grid_pts, tol=tol,
        distance_log=log)
    cert = _family_certificate(ode_certify(members(1)), ode_certify(limit), limit.center)
    space = BieleckiPairSpace(cert.lo, cert.hi, grid_pts, cert.tau)
    u = ode_solve(limit, grid_pts, tol, certificate=cert)
    want = {}
    for n in range(1, 201):
        sol = ode_solve(members(n), grid_pts, tol, certificate=cert)
        want[n] = space.distance((sol.y, sol.z), (u.y, u.z))
    assert sorted(log) == list(range(1, 201))
    for n, d in zip(report.indices, report.dists):
        assert _bits((d.first, d.second)) == _bits((want[n].first, want[n].second)), n
    for n, d in log.items():
        assert _bits((d.first, d.second)) == _bits((want[n].first, want[n].second)), n


def _own_g(members):
    """members, each with a g of its own that computes the limit's values."""
    return lambda n: dataclasses.replace(members(n), g=lambda x, z: -2.0 * z)


def test_tube_excess_equals_the_plain_max_of_the_gaps():
    # the tube test reads row extremes; it must equal max |values - init|
    # computed the plain way, rows of lanes and a single grid alike
    rng = np.random.default_rng(0)
    values = rng.normal(size=(40, 33)) * 10.0 ** rng.integers(-300, 300, size=(40, 1))
    init = rng.normal(size=(40, 1))
    values[1, 5], values[2, 7], values[3], values[4, 9] = np.inf, -np.inf, -0.0, np.nan
    values[5], init[5] = -1.5e308, 1.5e308  # the gap overflows
    radius = rng.uniform(0.5, 2.0, size=40)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.abs(values - init).max(axis=-1) - radius
        np.testing.assert_array_equal(_tube_excess(values, init, radius), want)
        for row, y0, r, w in zip(values, init[:, 0], radius, want):
            np.testing.assert_array_equal(_tube_excess(row, float(y0), float(r)), w)


# ------------------------------------------------- ODE families as numpy lanes


def _bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _counting_ode_solve(monkeypatch) -> list:
    calls = []
    original = applications.ode_solve

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(applications, "ode_solve", counted)
    return calls


def _ode_solve_distances(members, limit, ns, grid_pts, tol=1e-10) -> dict:
    """n -> distance of ode_solve(members(n)) to the limit solution, under
    the family certificate: the reference of the lanes."""
    cert = _family_certificate(ode_certify(members(1)), ode_certify(limit), limit.center)
    space = BieleckiPairSpace(cert.lo, cert.hi, grid_pts, cert.tau)
    u = ode_solve(limit, grid_pts, tol, cert)
    out = {}
    for n in ns:
        sol = ode_solve(members(n), grid_pts, tol, cert)
        out[n] = space.distance((sol.y, sol.z), (u.y, u.z))
    return out


def _assert_is_ode_solve(report, log, want, cfg) -> None:
    """The rows, the probe and the distance log of a harness run against the
    distances want of ode_solve, bit for bit."""
    assert sorted(log) == sorted(want)
    for n, got in log.items():
        assert type(got) is R2Elem
        assert _bits((got.first, got.second)) == _bits((want[n].first, want[n].second)), n
    assert report.dists == tuple(want[n] for n in report.indices)
    assert report.probe == is_c_sequence(want.__getitem__, cfg)


@pytest.mark.parametrize("grid_pts", [257, 2049])
def test_ode_lanes_match_ode_solve_for_every_member(grid_pts, monkeypatch):
    members, limit = _damped_ivp_family()
    cfg = CSeqProbeConfig.default(R2Elem, horizon=1000)
    indices = (1, 2, 10, 1000)
    calls = _counting_ode_solve(monkeypatch)
    log: dict = {}
    report = ode_sequence_harness(members, limit, indices, cfg, grid_pts=grid_pts,
                                  distance_log=log)
    assert calls == [limit]  # every member came from the lanes
    want = _ode_solve_distances(members, limit, range(1, 1001), grid_pts)
    _assert_is_ode_solve(report, log, want, cfg)


def _raised(fn):
    with pytest.raises(Exception) as exc:
        fn()
    return type(exc.value), str(exc.value)


def _where(cond, a, b):
    """np.where, with a Python float where every operand is a scalar, so
    that a member written with it has the same form on one index as
    before and is its own lane form on an index column."""
    out = np.where(cond, a, b)
    return out.item() if out.ndim == 0 else out


def _leaky_member_family(k: int):
    # member k keeps the family's slopes but a tube too narrow for them;
    # its lane builds, and the lanes meet the escape
    members, limit = _damped_ivp_family()
    narrowed = lambda n: dataclasses.replace(members(n), y_radius=_where(n == k, 0.05, 1.0))
    return narrowed, limit


def _nan_member_family(k: int):
    # member k's y slope is NaN right of 0.2, on one index and in its lane;
    # the certificate samples only member 1 and the limit
    members, limit = _damped_ivp_family()

    def poisoned(n):
        base = members(n)
        return dataclasses.replace(
            base, f=lambda x, y: base.f(x, y) + np.where((n == k) & (x > 0.2), np.nan, 0.0))

    return poisoned, limit


def _restless_member_family(k: int):
    # the limit and every member but k have zero slopes and settle in one
    # sweep; member k needs more, so a cap of one sweep stops it
    flat = dataclasses.replace(_linear_ivp(), f=lambda x, y: 0.0 * y,
                               g=lambda x, z: 0.0 * z)
    members = lambda n: dataclasses.replace(flat, f=lambda x, y: -1.0 * (n == k) * y)
    return members, flat


@pytest.mark.parametrize("k", [3, 7])
@pytest.mark.parametrize("make, sweeps, error", [
    (_leaky_member_family, 200, LeftInvariantSet),
    (_nan_member_family, 200, LeftInvariantSet),
    (_restless_member_family, 1, NoConvergence),
])
def test_ode_lanes_leave_failing_members_to_ode_solve(k, make, sweeps, error, monkeypatch):
    # the lanes record the failure of member k, and the probe, the first
    # to read it, raises what ode_solve raises for member k; ode_solve
    # itself sees the limit only
    monkeypatch.setattr(applications, "_MAX_SWEEPS", sweeps)
    members, limit = make(k)
    cfg = CSeqProbeConfig(probes=TWO_PROBES, horizon=30)
    cert = _family_certificate(ode_certify(members(1)), ode_certify(limit), limit.center)
    want = _raised(lambda: ode_solve(members(k), 65, 1e-10, cert))
    assert want[0] is error
    calls = _counting_ode_solve(monkeypatch)
    assert _raised(lambda: ode_sequence_harness(
        members, limit, (1, 2, 5, 10), cfg, grid_pts=65)) == want
    assert calls == [limit]


def test_ode_lane_build_errors_propagate(monkeypatch):
    # no lane member that holds a member from 7 on can be built: the
    # harness raises that error before it solves anything, though member
    # 2 would leave its tube
    members, limit = _leaky_member_family(2)

    def faulty(n):
        if np.any(n >= 7):
            raise ValueError("a member from 7 on cannot be built")
        return members(n)

    cfg = CSeqProbeConfig(probes=TWO_PROBES, horizon=60)
    calls = _counting_ode_solve(monkeypatch)
    with pytest.raises(ValueError, match="^a member from 7 on cannot be built$"):
        ode_sequence_harness(faulty, limit, (1, 2, 5, 10), cfg, grid_pts=2049)
    assert calls == []


def test_ode_lanes_stop_rule_edges(monkeypatch):
    # the family's rate is 1/2, so the stop threshold is tol itself: a step
    # equal to tol must not stop, and a tol whose threshold underflows to 0
    # stops only on an exactly zero step
    members, limit = _restless_member_family(2)
    cfg = CSeqProbeConfig(probes=TWO_PROBES, horizon=30)
    cert = _family_certificate(ode_certify(members(1)), ode_certify(limit), limit.center)
    step = ode_solve(members(2), 65, 1.0, certificate=cert).delta_history[0]
    assert step.second == 0.0
    for tol in (step.first, 5e-324):
        assert ode_solve(members(2), 65, tol, certificate=cert).iterations == (
            2 if tol == step.first else 16)
        want = _ode_solve_distances(members, limit, range(1, 31), 65, tol)
        calls = _counting_ode_solve(monkeypatch)
        got: dict = {}
        report = ode_sequence_harness(members, limit, (2,), cfg, grid_pts=65, tol=tol,
                                      distance_log=got)
        monkeypatch.undo()
        assert calls == [limit]
        _assert_is_ode_solve(report, got, want, cfg)


# each breaks the slopes of a lane member, and of no member on one index
@pytest.mark.parametrize("broken, raised", [
    (lambda p: dataclasses.replace(p, f=lambda x, y: 1 / 0), ZeroDivisionError),
    (lambda p: dataclasses.replace(p, f=lambda x, y: p.f(x, y)[:, :-1]), TypeError),
    (lambda p: dataclasses.replace(p, f=lambda x, y: p.f(x, y).astype(np.float32)), TypeError),
    (lambda p: dataclasses.replace(p, g=lambda x, z: 0.0), TypeError),
], ids=["<lambda>0", "<lambda>1", "<lambda>2", "<lambda>3"])
def test_ode_lanes_drop_a_block_whose_slopes_fail(broken, raised, monkeypatch):
    # lane slopes that raise, or are not float64 arrays of the shape of the
    # values they were given, stop the harness before its first row: only
    # the limit was solved, and no member reaches ode_solve
    members, limit = _damped_ivp_family()
    faulty = lambda n: broken(members(n)) if isinstance(n, np.ndarray) else members(n)
    cfg = CSeqProbeConfig(probes=TWO_PROBES, horizon=60)
    calls = _counting_ode_solve(monkeypatch)
    with pytest.raises(raised):
        ode_sequence_harness(faulty, limit, (1, 5, 60), cfg, grid_pts=65)
    assert calls == [limit]


def _noting_rows(fn, rows: list):
    """fn, noting how many rows of values each 2-D call hands it; only the
    lanes make such calls on the grid (ode_certify's mesh is 33 wide)."""

    def slope(x, v):
        if np.ndim(v) == 2 and np.shape(v)[1] != 33:
            rows.append(np.shape(v)[0])
        return fn(x, v)

    return slope


def _sharing_family(kind: str, y_rows: list, z_rows: list):
    """(members, limit) whose lane member poses the equations as kind says;
    every slope notes the rows of its 2-D calls in y_rows or z_rows."""
    limit = dataclasses.replace(
        _linear_ivp(), f=_noting_rows(lambda x, y: -y, y_rows),
        g=_noting_rows(lambda x, z: -2.0 * z, z_rows))
    damped = lambda n: _noting_rows(lambda x, y: -(1.0 + 1.0 / n) * y, y_rows)
    if kind == "shares f":  # the limit's f, a g that varies with n
        return (lambda n: dataclasses.replace(
            limit, g=_noting_rows(lambda x, z: -(2.0 + 1.0 / n) * z, z_rows),
            lip_g=2.0 + 1.0 / n)), limit
    if kind == "shares neither":  # a new slope lambda per member, same values
        return (lambda n: dataclasses.replace(
            limit, f=damped(n), g=_noting_rows(lambda x, z: -2.0 * z, z_rows),
            lip_f=1.0 + 1.0 / n)), limit
    # the limit's g, but from an initial value that is a column on lanes
    return (lambda n: dataclasses.replace(
        limit, f=damped(n), z_init=1.0 - 0.5 / (n + 1.0), lip_f=1.0 + 1.0 / n)), limit


@pytest.mark.parametrize("grid_pts", [65, 2049])
@pytest.mark.parametrize("kind, y_shared, z_shared", [
    ("shares f", True, False),
    ("shares neither", False, False),
    ("shares g, z_init a column", False, False),
])
def test_ode_lanes_sweep_an_equation_shared_with_the_limit_once(
        grid_pts, kind, y_shared, z_shared, monkeypatch):
    y_rows, z_rows = [], []
    members, limit = _sharing_family(kind, y_rows, z_rows)
    cfg = CSeqProbeConfig(probes=TWO_PROBES, horizon=40)
    calls = _counting_ode_solve(monkeypatch)
    log: dict = {}
    report = ode_sequence_harness(members, limit, (1, 2, 5, 10), cfg, grid_pts=grid_pts,
                                  distance_log=log)
    assert calls == [limit]  # every member came from the lanes
    # a shared equation is swept as one row per block, any other per lane
    for rows, shared in ((y_rows, y_shared), (z_rows, z_shared)):
        assert rows
        assert (set(rows) == {1}) if shared else (max(rows) > 1), (kind, rows)
    monkeypatch.undo()
    want = _ode_solve_distances(members, limit, range(1, 41), grid_pts)
    _assert_is_ode_solve(report, log, want, cfg)


def test_ode_lanes_keep_the_bits_of_a_shared_equation_whose_sharing_ends(monkeypatch):
    # members 1, 2, 5 and 7 damp y twice as hard and take one sweep more;
    # the lane member rebuilt for those four alone has its own g, so the
    # one shared z row must go on in four rows, bit for bit
    slow = (1, 2, 5, 7)
    members, limit = _damped_ivp_family()
    own_g = lambda x, z: -2.0 * z
    parted = lambda n: dataclasses.replace(
        members(n), f=lambda x, y: -_where(np.isin(n, slow), 2.0, 1.0) * y, lip_f=2.0,
        g=own_g if np.size(n) == len(slow) else limit.g)
    cfg = CSeqProbeConfig(probes=TWO_PROBES, horizon=30)
    sweeps = {n: ode_solve(parted(n), 65, 1e-10, _family_certificate(
        ode_certify(parted(1)), ode_certify(limit), limit.center)).iterations
        for n in (1, 3)}
    assert sweeps[1] > sweeps[3]
    calls = _counting_ode_solve(monkeypatch)
    log: dict = {}
    report = ode_sequence_harness(parted, limit, (1, 2, 5, 10), cfg, grid_pts=65,
                                  distance_log=log)
    assert calls == [limit]
    _assert_is_ode_solve(report, log, _ode_solve_distances(parted, limit, range(1, 31), 65),
                         cfg)


def test_ode_sequence_scenario_solves_only_the_limit_through_ode_solve(monkeypatch):
    calls = _counting_ode_solve(monkeypatch)
    run = run_scenario("ode_sequence", ScenarioConfig(horizon=1000))
    assert run.verdict
    assert len(calls) == 1


def test_ode_member_rates_above_the_family_certificate_are_refused(monkeypatch):
    # the certificate reads member 1 (rate 2 / 4 = 0.5) and the limit; member
    # 7 declares lip_f = 2.9, a rate of 0.725 under tau = 4, so its stop rule
    # and bound would rest on a rate it does not have
    members, limit = _damped_ivp_family()
    steep = lambda n: dataclasses.replace(members(n), lip_f=_where(n == 7, 2.9, 1.0 + 1.0 / n))
    cfg = CSeqProbeConfig(probes=TWO_PROBES, horizon=30)
    calls = _counting_ode_solve(monkeypatch)
    with pytest.raises(ValueError, match=r"^member 7 declares rate max\(lip_f, lip_g\) / tau = "
                                         r"0\.725, above the family certificate's 0\.5$"):
        ode_sequence_harness(steep, limit, (1, 2, 5, 10), cfg, grid_pts=65)
    assert calls == []  # refused before the limit is solved
