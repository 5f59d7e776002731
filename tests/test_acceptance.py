"""Desk-scale acceptance battery: eleven numbered end-to-end checks.

Each check exercises one promised behaviour at its stated scale and
tolerance and prints a single summary line on success.  Budgets are wall
clock seconds measured around the computational core, generous enough for
a loaded machine but tight enough to catch accidental quadratic blowups.
"""

import time
from fractions import Fraction

import numpy as np

from conefix.algebra import (
    R2Elem,
    UT2Elem,
    add,
    cone_compare,
    in_cone,
    mul,
    neumann_inverse_e_minus,
    norm,
    scale,
    spectral_radius,
    sub,
    unit,
    zero,
)
from conefix.applications import (
    CoupledSystem,
    OdeProblem,
    coupled_sequence_harness,
    ode_certify,
    ode_sequence_harness,
    ode_solve,
)
from conefix.fixed_point import (
    ContractionMap,
    MapFamily,
    PlainMap,
    SolvedMembers,
    check_pointwise_convergence,
    check_uniform_convergence,
    fixed_point_cluster_check,
    picard_solve,
    pointwise_limit_harness,
    subdomain_limit_harness,
    uniform_limit_harness,
)
from conefix.scenarios import SCENARIOS, ScenarioConfig, _power, run_scenario
from conefix.spaces import (
    BoxDomain,
    CSeqProbeConfig,
    IntervalDomain,
    IntervalUT2Space,
    PlaneR2Space,
    is_c_sequence,
)

BOTH_KINDS = (R2Elem, UT2Elem)


def _elapsed(t0: float) -> float:
    return time.perf_counter() - t0


def test_criterion_01_algebra_laws():
    t0 = time.perf_counter()
    count = 10_000
    violations = 0
    for seed, kind in enumerate(BOTH_KINDS, start=11):
        rng = np.random.default_rng(seed)
        xa, xb = rng.uniform(-2, 2, count), rng.uniform(-2, 2, count)
        ya, yb = rng.uniform(-2, 2, count), rng.uniform(-2, 2, count)
        ua, ub = rng.uniform(0, 2, count), rng.uniform(0, 2, count)
        va, vb = rng.uniform(0, 2, count), rng.uniform(0, 2, count)
        wa, wb = rng.uniform(0.001, 2, count), rng.uniform(0.001, 2, count)
        lam = rng.uniform(0, 2, count)
        theta = zero(kind)
        for i in range(count):
            x, y = kind.of(xa[i], xb[i]), kind.of(ya[i], yb[i])
            u, v = kind.of(ua[i], ub[i]), kind.of(va[i], vb[i])
            w = kind.of(wa[i], wb[i])
            # norm is submultiplicative, up to product roundoff
            if norm(mul(x, y)) > norm(x) * norm(y) + 1e-12:
                violations += 1
            # cone closed under addition and nonnegative scaling
            if not in_cone(add(u, v)):
                violations += 1
            if not in_cone(scale(lam[i], u)):
                violations += 1
            # pointed: nothing but the origin sits in both halves
            if u != theta and in_cone(-u):
                violations += 1
            # solid: strictly positive pairs are interior
            if not cone_compare(theta, w).way_below:
                violations += 1
            # precedence into an interior gap stays interior, both ways
            yy, zz = add(x, u), add(add(x, u), w)
            if (
                cone_compare(x, yy).le
                and cone_compare(yy, zz).way_below
                and not cone_compare(x, zz).way_below
            ):
                violations += 1
            y2, z2 = add(x, w), add(add(x, w), u)
            if (
                cone_compare(x, y2).way_below
                and cone_compare(y2, z2).le
                and not cone_compare(x, z2).way_below
            ):
                violations += 1
    took = _elapsed(t0)
    assert violations == 0
    assert took < 1.0
    print(f"criterion 01 pass: algebra laws, 0/{2 * count} draws violated ({took:.2f}s)")


def test_criterion_02_spectral_radius_matches_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for seed, kind in enumerate(BOTH_KINDS, start=21):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-2, 2, 1000)
        b = rng.uniform(-5, 5, 1000)
        for i in range(1000):
            est = spectral_radius(kind.of(a[i], b[i]))
            worst = max(worst, abs(est - abs(a[i])))
    took = _elapsed(t0)
    assert worst <= 1e-3
    assert took < 1.0
    print(f"criterion 02 pass: radius vs |first coordinate|, worst gap {worst:.2e} ({took:.2f}s)")


def test_criterion_03_neumann_series_inverses():
    t0 = time.perf_counter()
    worst = 0.0
    for seed, kind in enumerate(BOTH_KINDS, start=31):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 0.9, 1000)
        b = rng.uniform(0.0, 3.0, 1000)
        e = unit(kind)
        for i in range(1000):
            k = kind.of(a[i], b[i])
            s = neumann_inverse_e_minus(k)
            worst = max(worst, norm(sub(mul(sub(e, k), s), e)))
    assert worst < 1e-11
    s = neumann_inverse_e_minus(R2Elem(0.5, 1.0))
    assert abs(s.first - 2.0) < 1e-10 and abs(s.second - 4.0) < 1e-10
    assert mul(R2Elem(0.5, -1.0), R2Elem(2.0, 4.0)) == R2Elem(1.0, 0.0)
    print(f"criterion 03 pass: 2000 series inverses, worst residual {worst:.2e} "
          f"({_elapsed(t0):.2f}s)")


def test_criterion_04_probe_thresholds_replay():
    t0 = time.perf_counter()
    for k in (1, 2, 5):
        space = IntervalUT2Space(float(k))
        seq = lambda n, s=space: s.distance(1.0 / n, 0.0)
        for alpha_s in (1.0, 0.1, 0.01):
            for beta_s in (1.0, 0.1, 0.01):
                cfg = CSeqProbeConfig((UT2Elem(alpha_s, beta_s),), horizon=600)
                out = is_c_sequence(seq, cfg).outcomes[0]
                # exact rational boundary; str() recovers the decimal the
                # float literal was written as
                expected = max(
                    int(Fraction(1) / Fraction(str(alpha_s))) + 1,
                    int(Fraction(k) / Fraction(str(beta_s))) + 1,
                )
                assert out.verdict and out.n_found == expected, (k, alpha_s, beta_s)
    dom = IntervalDomain(0.0, 1.0)
    family = MapFamily(
        lambda n: PlainMap(lambda x, n=n: x / n, dom),
        PlainMap(lambda x: 0.0, dom),
    )
    uniform = check_uniform_convergence(
        family,
        IntervalUT2Space(1.0),
        CSeqProbeConfig.default(UT2Elem, horizon=1200),
        grid_count=64,
    )
    assert uniform.passed
    took = _elapsed(t0)
    assert took < 1.0
    print(f"criterion 04 pass: 27 threshold indices exact, uniform probe passed ({took:.2f}s)")


def test_criterion_05_pointwise_without_uniform():
    t0 = time.perf_counter()
    box = BoxDomain((0.0, 0.0), (1.0, 1.0), open_hi=True)
    space = PlaneR2Space(
        (0.0, 0.0), (1.0, 1.0), open_hi=True, sample_box=((0.05, 0.05), (0.95, 0.95))
    )
    family = MapFamily(
        # Python's own powers, on lanes too (numpy's power rounds otherwise)
        lambda n: PlainMap(lambda p, n=n: _power(n, p), box),
        PlainMap(lambda p: (0.0, 0.0), box),
        adversarial=lambda n: [(5.0 ** (-1.0 / (n * n)), 3.0 ** (-1.0 / n))],
    )
    rng = np.random.default_rng(5)
    points = [(float(x), float(y)) for x, y in rng.uniform(0.05, 0.95, (10, 2))]
    pointwise = check_pointwise_convergence(
        family, space, points, CSeqProbeConfig.default(R2Elem, horizon=2000)
    )
    assert pointwise.passed and len(pointwise.reports) == 10
    uniform = check_uniform_convergence(
        family,
        space,
        CSeqProbeConfig((R2Elem(1.0 / 11.0, 1.0 / 8.0),), horizon=400),
        grid_count=64,
    )
    assert not uniform.passed
    # the travelling witness keeps its image pinned a fixed distance out
    for n in (1, 2, 10, 50, 300):
        w = family.adversarial(n)[0]
        gap = space.distance(family.member(n).map(w), (0.0, 0.0))
        assert abs(gap.first - 0.2) <= 1e-12
        assert abs(gap.second - 1.0 / 3.0) <= 1e-12
    took = _elapsed(t0)
    assert took < 1.0
    print(f"criterion 05 pass: pointwise yes, uniform no, witness pinned ({took:.2f}s)")


def test_criterion_06_fixed_points_track_uniform_limits():
    t0 = time.perf_counter()
    dom = IntervalDomain(0.0, 2.0)
    family = MapFamily(
        lambda n: ContractionMap(
            lambda x, n=n: 0.5 * x + 1.0 / (n + 2.0), UT2Elem(0.5, 0.0), dom
        ),
        ContractionMap(lambda x: 0.5 * x, UT2Elem(0.5, 0.0), dom),
    )
    space = IntervalUT2Space(2.0)
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=10_000)
    indices = range(1, 1001)
    uniform = uniform_limit_harness(family, space, cfg, indices, 0.0, tol=1e-14)
    pointwise = pointwise_limit_harness(family, space, cfg, indices, 0.0, tol=1e-14)
    assert uniform.verdict and pointwise.verdict
    assert all(uniform.respected) and all(pointwise.respected)
    assert uniform.probe.passed and pointwise.probe.passed
    worst = max(
        abs(d.first - b.first) for d, b in zip(uniform.dists, uniform.bounds)
    )
    assert worst <= 1e-12  # the bound is tight for this family
    took = _elapsed(t0)
    assert took < 5.0
    print(f"criterion 06 pass: 1000 rows respected, bound gap {worst:.2e} ({took:.2f}s)")


def test_criterion_07_moving_subdomains_and_cluster():
    family = MapFamily(
        lambda n: ContractionMap(
            lambda x, n=n: 0.5 * x + 1.0 / (2.0 * n),
            UT2Elem(0.5, 0.0),
            IntervalDomain(1.0 / n, 1.0),
        ),
        ContractionMap(lambda x: 0.5 * x, UT2Elem(0.5, 0.0), IntervalDomain(0.0, 1.0)),
    )
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=10_000)
    cache = SolvedMembers()
    witness = subdomain_limit_harness(
        family, space, cfg, range(1, 1001), 1.0, x_inf=0.0,
        witness=lambda n: 1.0 / n, tol=1e-12, fp_cache=cache,
    )
    responder = subdomain_limit_harness(
        family, space, cfg, range(1, 1001), 1.0, x_inf=0.0,
        responder=lambda n: 1.0 / n, tol=1e-12, fp_cache=cache,
    )
    assert witness.verdict and all(witness.respected) and witness.probe.passed
    assert responder.verdict and all(responder.respected)
    cluster = fixed_point_cluster_check(
        family, space, range(1, 401), 1.0, tol=1e-3, fp_cache=cache
    )
    assert cluster.converged and cluster.residual_ok
    assert cluster.cluster_point == 0.0
    assert cluster.fixed_point_residual == zero(UT2Elem)
    print("criterion 07 pass: witness and responder bounds respected, cluster settles at 0")


def test_criterion_08_coupled_system_family():
    t0 = time.perf_counter()
    limit = CoupledSystem(
        lambda x, y: -0.5 * x + 0.25, lambda x, y: -0.5 * y + 0.125, 0.5
    )
    members = lambda n: CoupledSystem(
        lambda x, y, n=n: -0.5 * x + 0.25 + 1.0 / n,
        lambda x, y: -0.5 * y + 0.125,
        0.5,
    )
    inv = neumann_inverse_e_minus(R2Elem(0.5, 0.0))
    assert abs(inv.first - 2.0) < 1e-12 and inv.second == 0.0
    cfg = CSeqProbeConfig.default(R2Elem, horizon=10_000)
    report = coupled_sequence_harness(members, limit, range(1, 1001), cfg, tol=1e-14)
    assert report.verdict and all(report.respected) and report.probe.passed
    # each row measures the root the solver reaches from the origin
    space = PlaneR2Space()
    root = lambda system: picard_solve(
        system.as_contraction(), space, (0.0, 0.0), 1e-14).point
    limit_root = root(limit)
    worst = max(abs(limit_root[0] - 0.5), abs(limit_root[1] - 0.25))
    for n, dist in zip(range(1, 1001), report.dists):
        x, y = root(members(n))
        assert dist == space.distance((x, y), limit_root), n
        worst = max(worst, abs(x - (0.5 + 2.0 / n)), abs(y - 0.25))
    assert worst < 1e-8
    print(f"criterion 08 pass: 1000 roots within {worst:.2e}, bounds respected "
          f"({_elapsed(t0):.2f}s)")


def _linear_ivp() -> OdeProblem:
    return OdeProblem(
        f=lambda x, y: -y,
        g=lambda x, z: -2.0 * z,
        center=0.0, y_init=1.0, z_init=1.0,
        x_radius=0.5, y_radius=1.0, z_radius=1.0,
        lip_f=1.0, lip_g=2.0,
    )


def test_criterion_09_certified_ode_pair():
    t0 = time.perf_counter()
    problem = _linear_ivp()
    cert = ode_certify(problem)
    assert cert.sampled_max_f == 2.0 and cert.sampled_max_g == 4.0
    assert cert.max_f == 2.1 and cert.max_g == 4.2
    assert cert.h1 == 1.0 / 2.1 and cert.h2 == 1.0 / 4.2
    assert cert.h == cert.h2
    assert cert.tau == 4.0
    assert cert.alpha == R2Elem(0.5, 0.0)
    errs = {}
    for pts in (501, 1001):
        sol = ode_solve(problem, grid_pts=pts, tol=1e-11, certificate=cert)
        errs[pts] = (
            float(np.max(np.abs(sol.y - np.exp(-sol.nodes)))),
            float(np.max(np.abs(sol.z - np.exp(-2.0 * sol.nodes)))),
        )
    assert errs[1001][0] <= 1e-4 and errs[1001][1] <= 1e-4
    for c in (0, 1):
        assert 3.5 <= errs[501][c] / errs[1001][c] <= 4.5
    took = _elapsed(t0)
    assert took < 5.0
    print(f"criterion 09 pass: certificate exact, errors {errs[1001][0]:.2e}/"
          f"{errs[1001][1]:.2e}, halving ratios in range ({took:.2f}s)")


def test_criterion_10_ode_family_drift():
    t0 = time.perf_counter()
    limit = _linear_ivp()
    members = lambda n: OdeProblem(
        f=lambda x, y, n=n: -(1.0 + 1.0 / n) * y,
        g=limit.g,
        center=0.0, y_init=1.0, z_init=1.0,
        x_radius=0.5, y_radius=1.0, z_radius=1.0,
        lip_f=1.0 + 1.0 / n, lip_g=2.0,
    )
    cfg = CSeqProbeConfig.default(R2Elem, horizon=1000)
    log: dict = {}
    report = ode_sequence_harness(
        members, limit, (10, 20, 50, 100, 200, 500, 1000), cfg, distance_log=log
    )
    assert report.verdict and all(report.respected) and report.probe.passed
    assert all(cone_compare(log[n + 1], log[n]).le for n in range(10, 1000))
    final = log[1000]
    assert final.first < 1e-3 and final.second < 1e-3
    took = _elapsed(t0)
    assert took < 30.0
    print(f"criterion 10 pass: drift nonincreasing on [10,1000], final "
          f"{final.first:.2e} ({took:.2f}s)")


def test_criterion_11_reports_are_deterministic():
    for name in SCENARIOS:
        first = run_scenario(name, ScenarioConfig())
        second = run_scenario(name, ScenarioConfig())
        assert first.to_json() == second.to_json(), name
        assert first.to_csv() == second.to_csv(), name
    print(f"criterion 11 pass: {len(SCENARIOS)} scenarios byte-identical on repeat runs")
