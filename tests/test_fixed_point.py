"""Contraction solving, convergence-mode checkers, and limit harnesses."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conefix.fixed_point as fixed_point
from conefix.algebra import R2Elem, UT2Elem, norm, zero
from conefix.errors import (
    ConefixError,
    IterateEscapedDomain,
    PointOutsideCarrier,
    WitnessOutsideDomain,
)
from conefix.fixed_point import (
    ContractionMap,
    MapFamily,
    PlainMap,
    check_equicontinuity,
    check_pointwise_convergence,
    check_uniform_convergence,
    dense_sample,
    equicontinuous_pointwise_check,
    fixed_point_cluster_check,
    g_limit_uniqueness_check,
    h_limit_implies_g_limit_check,
    picard_solve,
    pointwise_limit_harness,
    property_g_check,
    property_h_check,
    subdomain_limit_harness,
    uniform_limit_harness,
    verify_contraction,
)
from conefix.fixed_point import _LANE_STALL, _solve_members
from conefix.errors import NoConvergence
from conefix.spaces import (
    BoxDomain,
    CSeqProbeConfig,
    IntervalDomain,
    IntervalUT2Space,
    PlaneR2Space,
    ProbeOutcome,
    default_probes,
)

UNIT_INTERVAL = IntervalDomain(0.0, 1.0)


def _where(cond, a, b):
    """np.where, with a Python float where every operand is a scalar, so
    that a member written with it is a plain member on one index and its
    own lane form on an index column."""
    out = np.where(cond, a, b)
    return out.item() if out.ndim == 0 else out


def _half_plus(shift: float, domain=None) -> ContractionMap:
    return ContractionMap(lambda x: 0.5 * x + shift, UT2Elem(0.5, 0.0), domain)


def _shifted_family() -> MapFamily:
    # affine members sliding onto the limit map as the shift dies out
    return MapFamily(
        lambda n: _half_plus(1.0 / (n + 2.0)),
        _half_plus(0.0),
    )


def _subinterval_family() -> MapFamily:
    members = lambda n: ContractionMap(
        lambda x, n=n: 0.5 * x + 1.0 / (2.0 * n),
        UT2Elem(0.5, 0.0),
        IntervalDomain(1.0 / n, 1.0),
    )
    limit = ContractionMap(lambda x: 0.5 * x, UT2Elem(0.5, 0.0), UNIT_INTERVAL)
    return MapFamily(members, limit)


def _power_box_family() -> MapFamily:
    """Coordinatewise powers on the open unit box, shrinking to the zero map
    pointwise but not uniformly."""
    box = BoxDomain((0.0, 0.0), (1.0, 1.0), open_hi=True)
    members = lambda n: PlainMap(
        lambda p, n=n: (p[0] ** (n * n), p[1] ** n), box
    )
    limit = PlainMap(lambda p: (0.0, 0.0), box)
    return MapFamily(
        members, limit,
        adversarial=lambda n: [(5.0 ** (-1.0 / (n * n)), 3.0 ** (-1.0 / n))],
    )


# ----------------------------------------------------------------- picard


def test_picard_literals():
    space = IntervalUT2Space(1.0)
    res = picard_solve(_half_plus(0.25), space, 0.0)
    assert abs(res.point - 0.5) < 1e-10
    assert norm(res.residual) < 1e-9

    plane = PlaneR2Space()
    pair = ContractionMap(
        lambda p: (0.5 * p[0] + 0.25, 0.5 * p[1] + 0.125), R2Elem(0.5, 0.0)
    )
    res = picard_solve(pair, plane, (0.0, 0.0))
    assert abs(res.point[0] - 0.5) < 1e-10
    assert abs(res.point[1] - 0.25) < 1e-10


def test_picard_at_the_fixed_point_stops_immediately():
    space = IntervalUT2Space(1.0)
    res = picard_solve(_half_plus(0.0), space, 0.0)
    assert res.point == 0.0
    assert res.iterations <= 1
    assert res.residual == zero(UT2Elem)


def test_picard_domain_escapes():
    space = IntervalUT2Space(1.0)
    walker = ContractionMap(
        lambda x: x + 0.25, UT2Elem(0.5, 0.0), UNIT_INTERVAL
    )
    with pytest.raises(IterateEscapedDomain):
        picard_solve(walker, space, 0.9)
    with pytest.raises(IterateEscapedDomain):
        picard_solve(_half_plus(0.25, UNIT_INTERVAL), space, 1.5)


def test_picard_iteration_budget(monkeypatch):
    space = IntervalUT2Space(1.0)
    monkeypatch.setattr(fixed_point, "_MAX_ITER", 2)
    with pytest.raises(NoConvergence, match=r"^no fixed point within 2 iterations \(tol 1e-12\)$"):
        picard_solve(_half_plus(0.0), space, 1.0, tol=1e-12)
    with pytest.raises(ValueError):
        picard_solve(_half_plus(0.0), space, 1.0, tol=0.0)


def test_picard_solve_is_within_tol_of_the_exact_fixed_point():
    # the stop rule must count the coefficient's second coordinate: with
    # b = 0.09 the plain norm test stops 1.05e-6 from the fixed point
    a, b = Fraction(0.9), Fraction(0.09)
    T = ContractionMap(lambda p: (0.9 * p[0] - 1.0, 0.9 * p[1] - 0.09 * p[0]),
                       R2Elem(0.9, 0.09))
    space = PlaneR2Space()
    assert verify_contraction(T, space).ok
    result = picard_solve(T, space, (5.0, -5.0), tol=1e-6)
    # the exact fixed point of x -> a x - 1, y -> a y - b x, about (-10, 9)
    x_star = -1 / (1 - a)
    y_star = -b * x_star / (1 - a)
    x, y = result.point
    gap = abs(Fraction(x) - x_star) + abs(Fraction(y) - y_star)
    assert gap <= Fraction(1e-6)


def test_contraction_map_coefficient_validation():
    with pytest.raises(ValueError, match=r"^declared coefficient has spectral radius 1\.0, "):
        ContractionMap(lambda x: x, UT2Elem(1.0, 0.0))
    # nilpotent coefficient has radius zero no matter the second entry
    ContractionMap(lambda x: x, UT2Elem(0.0, 5.0))


@pytest.mark.parametrize("kind", [R2Elem, UT2Elem])
@pytest.mark.parametrize("first, second", [(0.5, -0.4), (-0.5, 0.0), (-0.0, -1e-300)])
def test_coefficients_outside_the_cone_are_refused(kind, first, second):
    # (e - k)^-1 of a k outside the cone is outside it too, so multiplying by
    # it does not keep the cone order: with k = (0.5, -0.4) and the members
    # x -> 0.3 x + 0.5 / n on IntervalUT2Space(2.0), verify_contraction
    # passed and uniform_limit_harness printed "certified" rows that failed
    # 4 of 4, (0.714, 1.429) against (1.0, 1.2) at n = 1
    k = kind(first, second)
    with pytest.raises(ValueError, match="must lie in the cone"):
        ContractionMap(lambda x: 0.3 * x, k)
    with pytest.raises(ValueError, match="^coefficient_bound must lie in the cone"):
        MapFamily(lambda n: _half_plus(0.5 / n), _half_plus(0.0), coefficient_bound=k)


def test_a_lane_coefficient_is_checked_in_every_lane():
    ns = np.arange(1, 6)
    ContractionMap(lambda x: x, UT2Elem(0.5 - 0.1 / ns, 0.0), UNIT_INTERVAL)
    with pytest.raises(ValueError, match="must lie in the cone"):
        ContractionMap(lambda x: x, UT2Elem(0.5, np.where(ns == 4, -0.1, 0.0)))
    with pytest.raises(ValueError, match="spectral radius 1.5, needs < 1"):
        ContractionMap(lambda x: x, UT2Elem(np.where(ns == 2, 1.5, 0.5), 0.0))
    with pytest.raises(ValueError, match="must be finite"):
        ContractionMap(lambda x: x, UT2Elem(0.5, np.where(ns == 3, np.inf, 0.0)))
    with pytest.raises(ValueError, match="lo <= hi"):
        IntervalDomain(1.0 / ns, np.where(ns == 5, 0.1, 1.0))


@pytest.mark.parametrize("kind", [R2Elem, UT2Elem])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_contraction_map_rejects_non_finite_coefficients(kind, bad):
    # the radius reads only the first coordinate, so a non-finite second one
    # used to slip through until a harness inverted e - k
    with pytest.raises(ValueError):
        ContractionMap(lambda x: x, kind(0.5, bad))
    with pytest.raises(ValueError):
        ContractionMap(lambda x: x, kind(bad, 0.5))


def test_verify_contraction_accepts_halving():
    space = IntervalUT2Space(1.0)
    t = _half_plus(0.25)
    report = verify_contraction(t, space, samples=400, seed=1, slack=0.0)
    assert report.violations == 0

    plane = PlaneR2Space()
    pair = ContractionMap(
        lambda p: (0.5 * p[0] + 0.25, 0.5 * p[1] + 0.125), R2Elem(0.5, 0.0)
    )
    assert verify_contraction(pair, plane, samples=400).violations == 0


def test_verify_contraction_convicts_identity():
    space = IntervalUT2Space(1.0)
    liar = ContractionMap(lambda x: x, UT2Elem(0.5, 0.0))
    report = verify_contraction(liar, space, samples=400, seed=1)
    assert report.violations > 0
    assert report.example is not None
    assert report.worst_excess > 0.0


# ----------------------------------------------------------------- sampling


def test_dense_sample_intervals():
    pts = dense_sample(UNIT_INTERVAL, 5)
    assert len(pts) == 5
    assert pts[0] == 0.0 and pts[-1] == 1.0
    open_pts = dense_sample(IntervalDomain(0.0, 1.0, open_hi=True), 5)
    assert all(p < 1.0 for p in open_pts)
    assert max(open_pts) > 0.8


def test_dense_sample_boxes():
    pts = dense_sample(BoxDomain((0.0, 0.0), (1.0, 2.0)), 9)
    assert len(pts) == 9
    assert (0.0, 0.0) in pts and (1.0, 2.0) in pts
    with pytest.raises(TypeError):
        dense_sample("not a domain", 4)


# ---------------------------------------------------------------- checkers


def test_pointwise_convergence_on_power_family():
    family = _power_box_family()
    space = PlaneR2Space()
    cfg = CSeqProbeConfig.default(R2Elem, horizon=300)
    report = check_pointwise_convergence(
        family, space, [(0.5, 0.5), (0.9, 0.9)], cfg
    )
    assert report.passed
    assert len(report.reports) == 2


def test_pointwise_convergence_trivial_and_failing():
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=100)
    frozen = MapFamily(
        lambda n: PlainMap(lambda x: 0.5 * x, UNIT_INTERVAL),
        PlainMap(lambda x: 0.5 * x, UNIT_INTERVAL),
    )
    report = check_pointwise_convergence(frozen, space, [0.0, 0.3, 1.0], cfg)
    assert report.passed
    for rep in report.reports:
        assert all(o.n_found == 0 for o in rep.outcomes)

    stuck = MapFamily(
        lambda n: PlainMap(lambda x: x, UNIT_INTERVAL),
        PlainMap(lambda x: 0.0, UNIT_INTERVAL),
    )
    report = check_pointwise_convergence(stuck, space, [0.7], cfg)
    assert not report.passed


def test_uniform_convergence_pass_and_implication():
    space = IntervalUT2Space(1.0)
    family = MapFamily(
        lambda n: PlainMap(lambda x, n=n: x / n, UNIT_INTERVAL),
        PlainMap(lambda x: 0.0, UNIT_INTERVAL),
    )
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=2000)
    uniform = check_uniform_convergence(family, space, cfg, grid_count=64)
    assert uniform.passed
    # a uniform pass must imply a pointwise pass over any sampled points
    pointwise = check_pointwise_convergence(family, space, [0.1, 0.5, 1.0], cfg)
    assert pointwise.passed


def test_uniform_convergence_fails_on_power_family():
    family = _power_box_family()
    space = PlaneR2Space()
    pinned = R2Elem(1.0 / 11.0, 1.0 / 8.0)
    cfg = CSeqProbeConfig(probes=(pinned,), horizon=300)
    uniform = check_uniform_convergence(family, space, cfg, grid_count=16)
    assert not uniform.passed
    assert uniform.report.outcomes == (ProbeOutcome((pinned.first, pinned.second), None, False),)


def test_uniform_convergence_rejects_stray_witness():
    box = BoxDomain((0.0, 0.0), (1.0, 1.0), open_hi=True)
    family = MapFamily(
        lambda n: PlainMap(lambda p: (0.0, 0.0), box),
        PlainMap(lambda p: (0.0, 0.0), box),
        adversarial=lambda n: [(1.5, 0.5)],
    )
    cfg = CSeqProbeConfig.default(R2Elem, horizon=50)
    with pytest.raises(WitnessOutsideDomain):
        check_uniform_convergence(family, PlaneR2Space(), cfg, grid_count=4)


@pytest.mark.parametrize("lanes", [False, True])
@pytest.mark.parametrize("grid_count", [0, -1])
def test_uniform_convergence_refuses_an_empty_grid(grid_count, lanes):
    # an empty grid used to end in max() of an empty sequence, after the
    # columnar sup divided by a grid size of zero
    family = MapFamily(
        lambda n: PlainMap(lambda x: x / n, UNIT_INTERVAL),
        PlainMap(lambda x: 0.0, UNIT_INTERVAL),
        lanes=lanes,
    )
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=50)
    with pytest.raises(ValueError, match=rf"^grid_count must be >= 1, got {grid_count}$"):
        check_uniform_convergence(family, IntervalUT2Space(1.0), cfg, grid_count=grid_count)


def test_equicontinuity_finds_unit_scale_for_mild_families():
    space = IntervalUT2Space(1.0)
    c1 = UT2Elem(0.1, 0.1)
    shrinking = MapFamily(
        lambda n: PlainMap(lambda x, n=n: x / n, UNIT_INTERVAL),
        PlainMap(lambda x: 0.0, UNIT_INTERVAL),
    )
    assert check_equicontinuity(shrinking, space, 0.5, c1).found_scale == 1.0
    single = MapFamily(lambda n: _half_plus(0.25), _half_plus(0.25))
    assert check_equicontinuity(single, space, 0.5, c1).found_scale == 1.0


def test_equicontinuity_exhausts_on_steep_powers():
    dom = IntervalDomain(0.0, 1.0, open_hi=True)
    family = MapFamily(
        lambda n: PlainMap(lambda x, n=n: x ** n, dom),
        PlainMap(lambda x: 0.0, dom),
    )
    space = IntervalUT2Space(1.0)
    report = check_equicontinuity(
        family, space, 0.999, UT2Elem(0.01, 0.01), schedule=(1.0, 0.5, 0.25)
    )
    assert report.found_scale is None
    assert not report.found
    assert report.scales_tried == (1.0, 0.5, 0.25)


# ---------------------------------------------------------------- harnesses


def test_uniform_limit_harness_equality_family():
    """For the shifted halving family the distance and bound first
    components agree to roundoff, and the bound is never undercut."""
    family = _shifted_family()
    space = IntervalUT2Space(2.0)
    cfg = CSeqProbeConfig(
        probes=(UT2Elem(1.0, 1.0), UT2Elem(0.05, 0.05)), horizon=300
    )
    report = uniform_limit_harness(
        family, space, cfg, range(1, 61), start=0.0, tol=1e-14
    )
    assert report.verdict
    assert all(report.respected)
    assert report.indices == tuple(range(1, 61))
    for dist, bound in zip(report.dists, report.bounds):
        assert abs(dist.first - bound.first) <= 1e-12


def test_uniform_limit_harness_accepts_generator_indices():
    family = _shifted_family()
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5),), horizon=60)
    report = uniform_limit_harness(
        family, space, cfg, (n * n for n in range(1, 4)), start=0.0
    )
    assert report.indices == (1, 4, 9)
    assert len(list(report.rows())) == 3


def test_pointwise_limit_harness_with_varying_coefficients():
    members = lambda n: ContractionMap(
        lambda x, n=n: (0.5 - 1.0 / (n + 3.0)) * x + 1.0 / (n + 2.0),
        UT2Elem(0.5 - 1.0 / (n + 3.0), 0.0),
    )
    family = MapFamily(
        members, _half_plus(0.0), coefficient_bound=UT2Elem(0.5, 0.0)
    )
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig(
        probes=(UT2Elem(1.0, 1.0), UT2Elem(0.05, 0.05)), horizon=300
    )
    report = pointwise_limit_harness(
        family, space, cfg, range(1, 41), start=0.0
    )
    assert report.verdict
    assert all(report.respected)


def test_pointwise_limit_harness_on_frozen_family_is_degenerate():
    family = MapFamily(lambda n: _half_plus(0.25), _half_plus(0.25))
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig(probes=default_probes(UT2Elem), horizon=40)
    report = pointwise_limit_harness(
        family, space, cfg, range(1, 11), start=0.0
    )
    assert all(d == zero(UT2Elem) for d in report.dists)
    assert all(report.respected)
    assert all(o.n_found == 0 for o in report.probe.outcomes)


def test_convergence_report_serialization():
    family = _shifted_family()
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5),), horizon=60)
    report = uniform_limit_harness(
        family, space, cfg, range(1, 6), start=0.0
    )
    csv = report.to_csv().splitlines()
    assert csv[0] == "n,dist_c1,dist_c2,bound_c1,bound_c2,bound_respected"
    assert len(csv) == 6
    rows = report.json_rows()
    assert [row["n"] for row in rows] == [1, 2, 3, 4, 5]
    assert set(rows[0]) == {"n", "dist", "bound", "bound_respected"}


def test_subdomain_harness_witness_and_responder_forms():
    family = _subinterval_family()
    space = IntervalUT2Space(2.0)
    cfg = CSeqProbeConfig(
        probes=(UT2Elem(1.0, 1.0), UT2Elem(0.05, 0.05)), horizon=300
    )
    edge = lambda n: 1.0 / n
    cache: dict = {}
    witness_rep = subdomain_limit_harness(
        family, space, cfg, range(1, 51), start=1.0, x_inf=0.0,
        witness=edge, fp_cache=cache,
    )
    assert witness_rep.verdict and all(witness_rep.respected)
    responder_rep = subdomain_limit_harness(
        family, space, cfg, range(1, 51), start=1.0, x_inf=0.0,
        responder=edge, fp_cache=cache,
    )
    assert responder_rep.verdict and all(responder_rep.respected)
    # witness form pays the coefficient on the witness gap, so it is the
    # looser of the two on this family
    for wide, tight in zip(witness_rep.bounds, responder_rep.bounds):
        assert wide.first >= tight.first - 1e-12


def test_subdomain_harness_defaults_and_validation():
    family = _subinterval_family()
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5),), horizon=60)
    edge = lambda n: 1.0 / n
    report = subdomain_limit_harness(
        family, space, cfg, range(1, 11), start=1.0, x_inf=0.0, witness=edge
    )
    assert report.verdict
    # x_inf has no default: the harness never solves for its own target
    with pytest.raises(TypeError):
        subdomain_limit_harness(family, space, cfg, range(1, 4), start=1.0, witness=edge)
    # exactly one of witness and responder picks the bound form
    for forms in ({}, {"witness": edge, "responder": edge}):
        with pytest.raises(ValueError):
            subdomain_limit_harness(
                family, space, cfg, range(1, 4), start=1.0, x_inf=0.0, **forms)
    with pytest.raises(WitnessOutsideDomain):
        subdomain_limit_harness(
            family, space, cfg, range(1, 4), start=1.0,
            witness=lambda n: 0.0, x_inf=0.0,
        )


class _RaySpace:
    """The real line measured along one cone direction:
    d(x, y) = |x - y| * (d1, d2), exact for d(1, 0)."""

    def __init__(self, kind, direction) -> None:
        self.kind = kind
        self.direction = direction

    def distance(self, x, y):
        t = abs(x - y)
        return self.kind.of(t * self.direction[0], t * self.direction[1])


def _ray_bound(harness: str, kind, k, direction):
    """The bound a harness certifies for (e - k)^-1 * d with d = direction.

    Members are the constant map 1 and the limit the constant map 0, all
    with coefficient k, so every displacement the harnesses form (member
    against limit at the member point, at the limit point, or at a witness
    0 on the limit point) is d(1, 0) = direction exactly.
    """
    space = _RaySpace(kind, direction)
    family = MapFamily(lambda n: ContractionMap(lambda x: 1.0, k),
                       ContractionMap(lambda x: 0.0, k))
    cfg = CSeqProbeConfig(default_probes(kind), horizon=2, tail_required=1)
    if harness == "uniform":
        report = uniform_limit_harness(family, space, cfg, (1,), start=0.5)
    elif harness == "pointwise":
        report = pointwise_limit_harness(family, space, cfg, (1,), start=0.5)
    else:
        report = subdomain_limit_harness(family, space, cfg, (1,), start=0.5,
                                         x_inf=0.0, witness=lambda n: 0.0)
    return report.bounds[0]


def _exact_inverse_times(k, d) -> tuple[Fraction, Fraction]:
    a, b = Fraction(k.first), Fraction(k.second)
    i1, i2 = 1 / (1 - a), b / (1 - a) ** 2
    d1, d2 = Fraction(d[0]), Fraction(d[1])
    return i1 * d1, i1 * d2 + i2 * d1


def _dominates(bound, exact) -> bool:
    return Fraction(bound.first) >= exact[0] and Fraction(bound.second) >= exact[1]


@pytest.mark.parametrize("harness", ["uniform", "pointwise", "subdomain"])
@pytest.mark.parametrize("kind", [R2Elem, UT2Elem])
def test_harness_bounds_dominate_the_exact_inverse_near_radius_one(harness, kind):
    # a series truncated where its terms looked small dropped a tail larger
    # than the pad it claimed; near radius one the bound then undershot
    for a, b in ((0.9995, 0.001), (0.999, 0.01)):
        k = kind(a, b)
        for direction in ((1.0, 0.0), (1.0, 1.0), (0.0, 1.0)):
            bound = _ray_bound(harness, kind, k, direction)
            assert _dominates(bound, _exact_inverse_times(k, direction)), (a, b, direction)


@settings(max_examples=150, deadline=None)
@given(
    harness=st.sampled_from(["uniform", "pointwise", "subdomain"]),
    kind=st.sampled_from([R2Elem, UT2Elem]),
    a=st.floats(0.0, 1.0, exclude_max=True),
    b=st.floats(0.0, 1e6),
    direction=st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)),
)
def test_harness_bounds_dominate_the_exact_inverse(harness, kind, a, b, direction):
    k = kind(a, b)
    bound = _ray_bound(harness, kind, k, direction)
    assert _dominates(bound, _exact_inverse_times(k, direction))


def test_cluster_check_settling_family():
    family = _subinterval_family()
    space = IntervalUT2Space(2.0)
    report = fixed_point_cluster_check(
        family, space, range(1, 201), start=1.0, tol=1e-3
    )
    assert report.converged
    assert report.cluster_point == 0.0
    assert report.fixed_point_residual == zero(UT2Elem)
    assert report.residual_ok
    assert report.conclusion == "convergent, limit is a fixed point of the limit map"


def test_cluster_check_frozen_family():
    family = MapFamily(lambda n: _half_plus(0.25), _half_plus(0.25))
    space = IntervalUT2Space(1.0)
    report = fixed_point_cluster_check(
        family, space, range(1, 41), start=0.0, tol=1e-6
    )
    assert report.converged and report.cluster_radius == 0.0
    assert abs(report.cluster_point - 0.5) < 1e-9
    assert report.residual_ok


def test_cluster_check_oscillating_family_draws_no_conclusion():
    members = lambda n: _half_plus(0.1 if n % 2 else 0.4)
    family = MapFamily(members, _half_plus(0.0))
    space = IntervalUT2Space(1.0)
    report = fixed_point_cluster_check(
        family, space, range(1, 101), start=0.0, tol=1e-3
    )
    assert not report.converged
    assert report.cluster_point is None
    assert report.conclusion == "not convergent, no conclusion"


def test_cluster_check_flags_moved_cluster():
    # member fixed points settle at 1/4, but the limit map swaps around 1/2
    # and never fixes anything reachable by polish
    members = lambda n: _half_plus(0.125)
    limit = ContractionMap(lambda x: 1.0 - x, UT2Elem(0.5, 0.0), UNIT_INTERVAL)
    family = MapFamily(members, limit)
    space = IntervalUT2Space(1.0)
    report = fixed_point_cluster_check(
        family, space, range(1, 41), start=0.0, tol=1e-4
    )
    assert report.converged
    assert not report.residual_ok
    assert report.conclusion == "convergent, but the limit map moves the cluster point"


# ------------------------------------------------------ property G and H


def test_property_g_constant_witness_on_full_domains():
    family = _shifted_family()
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5), UT2Elem(0.05, 0.05)), horizon=120)
    witness = lambda x: (lambda n: x)
    report = property_g_check(family, space, witness, cfg, [0.2, 0.7, 1.0])
    assert report.passed


def test_property_g_edge_witness_on_subdomains():
    family = _subinterval_family()
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5), UT2Elem(0.05, 0.05)), horizon=120)
    witness = lambda x: (lambda n, x=x: max(x, 1.0 / n))
    report = property_g_check(family, space, witness, cfg, [0.0, 0.3, 1.0])
    assert report.passed


def test_property_g_convicts_far_witness():
    space = IntervalUT2Space(1.0)
    frozen = MapFamily(
        lambda n: PlainMap(lambda x: x, UNIT_INTERVAL),
        PlainMap(lambda x: x, UNIT_INTERVAL),
    )
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5),), horizon=60)
    report = property_g_check(
        frozen, space, lambda x: (lambda n: 1.0), cfg, [0.3]
    )
    assert not report.passed
    dist_rep, image_rep = report.point_reports[0]
    assert not dist_rep.passed  # the witness never approaches the point
    with pytest.raises(WitnessOutsideDomain):
        property_g_check(
            _subinterval_family(), space, lambda x: (lambda n: 0.0), cfg, [0.5]
        )


def test_property_h_identity_responder_tracks_uniform_families():
    family = _shifted_family()
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5), UT2Elem(0.05, 0.05)), horizon=120)
    challenge = lambda n: 1.0 / n
    report = property_h_check(
        family, space, challenge, lambda seq: seq, cfg
    )
    assert report.passed


def test_property_h_fails_on_power_family_challenge():
    family = _power_box_family()
    space = PlaneR2Space()
    cfg = CSeqProbeConfig(probes=(R2Elem(1.0 / 11.0, 1.0 / 8.0),), horizon=120)
    challenge = lambda n: (5.0 ** (-1.0 / (n * n)), 3.0 ** (-1.0 / n))
    report = property_h_check(family, space, challenge, lambda seq: seq, cfg)
    assert not report.passed
    dist_rep, image_rep = report.point_reports[0]
    assert dist_rep.passed  # responder sits on the challenge itself
    assert not image_rep.passed  # images stay (1/5, 1/3) away from the limit
    with pytest.raises(WitnessOutsideDomain):
        property_h_check(
            family, space, challenge, lambda seq: (lambda n: (1.5, 0.5)), cfg
        )


def test_h_implies_g_composition():
    family = _subinterval_family()
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5), UT2Elem(0.05, 0.05)), horizon=120)
    witness = lambda x: (lambda n, x=x: max(x, 1.0 / n))
    report = h_limit_implies_g_limit_check(
        family, space, witness, lambda seq: seq, cfg, [0.0, 0.5, 1.0]
    )
    assert report.hypotheses["domains_approachable"]
    assert report.hypotheses["limit_map_sequentially_continuous"]
    assert report.hypotheses["answers_challenges"]
    assert report.conclusion_passed


def test_g_limit_uniqueness():
    family = _subinterval_family()
    space = IntervalUT2Space(1.0)
    same = ContractionMap(lambda x: 0.5 * x, UT2Elem(0.5, 0.0), UNIT_INTERVAL)
    report = g_limit_uniqueness_check(family, space, same, [0.0, 0.25, 1.0])
    assert report.hypotheses["worst_image_gap_norm"] == 0.0
    assert report.conclusion_passed

    shifted = ContractionMap(
        lambda x: 0.5 * x + 1e-9, UT2Elem(0.5, 0.0), UNIT_INTERVAL
    )
    report = g_limit_uniqueness_check(family, space, shifted, [0.0, 0.25, 1.0])
    # the gap is reported, not asserted away: both coordinates carry 1e-9
    assert report.hypotheses["worst_image_gap_norm"] == pytest.approx(2e-9, rel=1e-6)
    assert not report.conclusion_passed


def test_equicontinuous_pointwise_composition():
    space = IntervalUT2Space(1.0)
    family = MapFamily(
        lambda n: PlainMap(lambda x, n=n: x / n, UNIT_INTERVAL),
        PlainMap(lambda x: 0.0, UNIT_INTERVAL),
    )
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5), UT2Elem(0.05, 0.05)), horizon=120)
    report = equicontinuous_pointwise_check(
        family, space, lambda x: (lambda n: x), cfg, [0.3, 0.6], UT2Elem(0.25, 0.25)
    )
    assert report.hypotheses["equicontinuous_at_points"]
    assert report.hypotheses["approach_property"]
    assert report.conclusion_passed


# ------------------------------------------------------------ lane solves


def _shipped_lane_families():
    """The scenario families that declare lanes, with the space, start and
    tolerance their scenarios solve them at."""
    from conefix.scenarios import _interval_ut2_family, _subinterval_family, _system_family

    # the system family as coupled_sequence_harness builds it for thm_4_1
    members, limit = _system_family()
    systems = MapFamily(
        lambda n: members(n).as_contraction(), limit.as_contraction(), lanes=True,
    )
    return {
        "thm_2_9": (
            _interval_ut2_family(lambda n: 1.0 / (n + 2.0), lambda n: 0.5),
            IntervalUT2Space(2.0), 0.0, 1e-12,
        ),
        "thm_2_10": (
            _interval_ut2_family(
                lambda n: 1.0 / (n + 2.0), lambda n: 0.5 - 1.0 / (n + 3.0),
                coefficient_bound=UT2Elem(0.5, 0.0),
            ),
            IntervalUT2Space(2.0), 0.0, 1e-12,
        ),
        "thm_3_6": (_subinterval_family(), IntervalUT2Space(2.0), 1.0, 1e-12),
        "thm_4_1": (systems, PlaneR2Space(), (0.0, 0.0), 1e-14),
    }


def _same_result(got, ref) -> bool:
    """Equal fields and equal types, down to the coordinates of a pair."""
    if got != ref or type(got.point) is not type(ref.point):
        return False
    if isinstance(ref.point, tuple):
        return all(type(a) is type(b) for a, b in zip(got.point, ref.point))
    return True


@pytest.mark.parametrize("name", ["thm_2_9", "thm_2_10", "thm_3_6", "thm_4_1"])
def test_lanes_match_picard_on_shipped_families(name):
    family, space, x0, tol = _shipped_lane_families()[name]
    cache: dict = {}
    _solve_members(family, space, x0, tol, cache, range(1, 10_001))
    # every member was solved by the lanes, before any lazy scalar solve
    assert sorted(cache) == list(range(1, 10_001))
    for n in range(1, 10_001):
        ref = picard_solve(family.member(n), space, x0, tol)
        assert _same_result(cache[n], ref), n


@settings(max_examples=80, deadline=None)
@given(
    plane=st.booleans(),
    bounded=st.booleans(),
    rate=st.floats(0.01, 0.99),
    second=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
    shift=st.floats(-2.0, 2.0),
    x0=st.floats(-1.5, 1.5),
    y0=st.floats(-1.5, 1.5),
    tol=st.floats(1e-13, 1e-2),
)
def test_lanes_match_picard_on_random_affine_families(
        plane, bounded, rate, second, shift, x0, y0, tol):
    # member n is x -> r_n x + shift / n with rates growing toward rate,
    # and on the plane y also leans on x by second, the coefficient's second
    # coordinate, which the stop rule counts; the draw covers converging
    # lanes, domain and carrier escapes, and lanes that run out of
    # iterations, which the lanes must all leave to picard
    r = lambda n: rate * (1.0 - 1.0 / (n + 1.0))
    if plane:
        step = lambda n, p: (r(n) * p[0] + shift / n,
                             r(n) * p[1] + second * p[0] - shift / n)
        kind, space, start = R2Elem, PlaneR2Space(), (x0, y0)
        domain = BoxDomain((-1.0, -1.0), (1.0, 1.0)) if bounded else None
    else:
        step = lambda n, x: r(n) * x + shift / n
        kind, space, start = UT2Elem, IntervalUT2Space(2.0), x0
        domain = IntervalDomain(0.0, 1.0, open_lo=True) if bounded else None
    family = MapFamily(
        lambda n: ContractionMap(lambda x: step(n, x), kind.of(r(n), second), domain),
        ContractionMap(lambda x: x, kind.of(0.5, 0.0)),
        lanes=True,
    )
    cache: dict = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fixed_point, "_MAX_ITER", 400)
        _solve_members(family, space, start, tol, cache, range(1, 25))
        for n in range(1, 25):
            try:
                ref = picard_solve(family.member(n), space, start, tol)
            except ConefixError:
                assert n not in cache
            else:
                assert _same_result(cache[n], ref), n


@pytest.mark.parametrize("jump, tol, iterations", [
    # dyadic steps 2^-i in norm: step 6 equals the threshold exactly and
    # must not stop the lane
    (0.0, 2.0 ** -6, 7),
    # the threshold underflows to zero: only an exact zero step stops
    (0.0, 5e-324, 55),
    # the lane stops at 0.46875, whose image jumps out of the carrier, so
    # picard_solve raises on the residual
    (2.0, 0.1, None),
])
def test_lane_stop_rule_edges_match_picard(jump, tol, iterations):
    family = MapFamily(
        lambda n: ContractionMap(lambda x: 0.5 * x + 0.25 + (x >= 0.46) * jump,
                                 UT2Elem(0.5, 0.0)),
        _half_plus(0.0), lanes=True,
    )
    space = IntervalUT2Space(1.0)
    cache: dict = {}
    _solve_members(family, space, 0.0, tol, cache, (1, 2))
    if iterations is None:
        with pytest.raises(PointOutsideCarrier):
            picard_solve(family.member(1), space, 0.0, tol)
        assert cache == {}
        return
    ref = picard_solve(family.member(1), space, 0.0, tol)
    assert ref.iterations == iterations
    assert _same_result(cache[1], ref)


def test_lanes_leave_a_stalled_lane_to_picard():
    # member 3 swaps x and 1 - x forever; the others contract slowly, at
    # rate 0.99, over some 2500 iterations, so their steps keep shrinking
    calls = []

    def members(n):
        stuck = n == 3

        def step(x):
            calls.append(np.size(x))
            return _where(stuck, 1.0 - x, 0.99 * x + 0.005)

        return ContractionMap(step, UT2Elem(_where(stuck, 0.5, 0.99), 0.0), UNIT_INTERVAL)

    family = MapFamily(members, _half_plus(0.0), lanes=True)
    space = IntervalUT2Space(1.0)
    cache: dict = {}
    _solve_members(family, space, 0.25, 1e-12, cache, range(1, 9))
    # the stuck lane is dropped at the second stall check, not at _MAX_ITER
    assert calls.index(7) == 2 * _LANE_STALL
    assert sorted(cache) == [1, 2, 4, 5, 6, 7, 8]
    for n in sorted(cache):
        ref = picard_solve(family.member(n), space, 0.25, 1e-12)
        assert ref.iterations > 2 * _LANE_STALL
        assert _same_result(cache[n], ref)
    with pytest.raises(NoConvergence):
        picard_solve(family.member(3), space, 0.25, 1e-12)


def _faulty_family(case: str, k: int, lanes: bool) -> MapFamily:
    """Halving members except member k, which breaks picard_solve by
    escaping its domain, leaving the carrier, never settling ("max_iter":
    it runs into the iteration cap), or failing to be built at all.  The
    members are array-safe, so every lane member but the one of
    "construction" builds, and the lanes meet the fault."""
    domain = None if case == "carrier" else UNIT_INTERVAL

    def bad(x):
        return 1.0 - x if case == "max_iter" else x + 0.75

    def members(n):
        hit = n == k
        if case == "construction":
            return ContractionMap(lambda x: 0.5 * x + 0.125,
                                  UT2Elem(_where(hit, 1.5, 0.5), 0.0), domain)
        return ContractionMap(lambda x: _where(hit, bad(x), 0.5 * x + 0.125),
                              UT2Elem(0.5, 0.0), domain)

    return MapFamily(members, _half_plus(0.0, UNIT_INTERVAL), lanes=lanes)


_HARNESS_CALLS = {
    "uniform": lambda fam, space, cfg: uniform_limit_harness(
        fam, space, cfg, (1, 2, 3, 10), start=0.25),
    "pointwise": lambda fam, space, cfg: pointwise_limit_harness(
        fam, space, cfg, (1, 2, 3, 10), start=0.25),
    "subdomain": lambda fam, space, cfg: subdomain_limit_harness(
        fam, space, cfg, (1, 2, 3, 10), start=0.25, x_inf=0.0,
        witness=lambda n: 0.5),
    "cluster": lambda fam, space, cfg: fixed_point_cluster_check(
        fam, space, range(1, cfg.horizon + 1), start=0.25),
}


@pytest.mark.parametrize("harness", sorted(_HARNESS_CALLS))
@pytest.mark.parametrize("case, raised", [
    ("domain", IterateEscapedDomain),
    ("carrier", PointOutsideCarrier),
    ("max_iter", NoConvergence),
    ("construction", ValueError),
])
@pytest.mark.parametrize("k", [3, 7])
def test_lane_failures_raise_what_picard_raises(harness, case, raised, k, monkeypatch):
    monkeypatch.setattr(fixed_point, "_MAX_ITER", 300)
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5),), horizon=30)
    caught = []
    for lanes in (False, True):
        calls = _counting_picard(monkeypatch)
        with pytest.raises(raised) as info:
            _HARNESS_CALLS[harness](_faulty_family(case, k, lanes), space, cfg)
        caught.append((type(info.value), str(info.value)))
    assert caught[0] == caught[1]
    if case != "construction":
        # the lanes met the fault: picard_solve saw at most the limit and
        # member k
        assert len(calls) <= 2


def _counting_picard(monkeypatch) -> list:
    """Patch picard_solve to record the map of every call; returns the list."""
    calls = []
    real = fixed_point.picard_solve

    def counting(T, *args, **kwargs):
        calls.append(T)
        return real(T, *args, **kwargs)

    monkeypatch.setattr(fixed_point, "picard_solve", counting)
    return calls


def test_lane_family_makes_no_member_picard_solves(monkeypatch):
    # a silent fall back to scalar solves would keep every payload and lose
    # the speed, so count the solves: only the limit map is solved by picard
    from conefix.scenarios import _interval_ut2_family

    calls = _counting_picard(monkeypatch)
    family = _interval_ut2_family(lambda n: 1.0 / (n + 2.0), lambda n: 0.5)
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=10_000)
    report = uniform_limit_harness(
        family, IntervalUT2Space(2.0), cfg, (1, 10, 100, 1000), start=0.0, tol=1e-12
    )
    assert report.verdict
    assert calls == [family.limit]


def _thm_2_9_with_fault(case: str, lanes: bool) -> MapFamily:
    """The thm_2_9 family with a fault that the lane solver must leave to
    picard_solve: member 7 cannot be built, so neither can the lane member
    of its block (after member 2, which escapes its domain, in the "escape"
    case), the lane member's map raises ("lane_map"), or every member lives
    on a box, a domain the interval lanes cannot test."""
    from conefix.scenarios import _interval_ut2_family

    base = _interval_ut2_family(lambda n: 1.0 / (n + 2.0), lambda n: 0.5)
    box = BoxDomain((0.0, 0.0), (1.0, 1.0))

    def step(n, x):
        if case == "lane_map" and isinstance(x, np.ndarray):
            raise RuntimeError("lane map failed")
        good = 0.5 * x + 1.0 / (n + 2.0)
        return _where(n == 2, x + 0.75, good) if case == "escape" else good

    def members(n):
        if case in ("member", "escape") and np.any(n == 7):
            raise ValueError("member 7 cannot be built")
        return ContractionMap(lambda x: step(n, x), UT2Elem(0.5, 0.0),
                              box if case == "box" else UNIT_INTERVAL)

    return MapFamily(members, base.limit, lanes=lanes)


@pytest.mark.parametrize("case, start, raised", [
    ("member", 0.0, ValueError),
    # the rows meet member 2 first, so the lanes must not raise for member 7
    ("escape", 0.0, IterateEscapedDomain),
    ("lane_map", 0.0, None),
    # an int converts to float exactly, so the lanes take it as 0.0
    ("int start", 0, None),
    ("box", 0.0, TypeError),  # the box cannot unpack an interval point
])
def test_lane_fallbacks_match_the_scalar_harness(case, start, raised, monkeypatch):
    space = IntervalUT2Space(2.0)
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=200)
    outcomes = []
    for lanes in (False, True):
        calls = _counting_picard(monkeypatch)
        family = _thm_2_9_with_fault(case, lanes)
        try:
            report = uniform_limit_harness(family, space, cfg, (1, 2, 7, 50, 200), start)
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((None, report.dists, report.bounds, report.probe))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] is raised
    if case == "int start":
        assert len(calls) == 1  # the limit; the lanes solved every member


def test_plane_lane_fallback_for_a_start_of_integers(monkeypatch):
    # the thm_4_1 system family on the plane, started from an integer pair,
    # which converts to floats exactly, so the lanes take it as (0.0, 0.0)
    from conefix.scenarios import _system_family

    members, limit = _system_family()
    cfg = CSeqProbeConfig.default(R2Elem, horizon=200)
    reports = []
    for lanes in (False, True):
        calls = _counting_picard(monkeypatch)
        family = MapFamily(lambda n: members(n).as_contraction(), limit.as_contraction(),
                           lanes=lanes)
        report = uniform_limit_harness(family, PlaneR2Space(), cfg, (1, 2, 50, 200), (0, 0))
        reports.append((report.dists, report.bounds, report.probe))
    assert reports[0] == reports[1]
    assert len(calls) == 1  # the limit; the lanes solved every member


class _PointwiseInterval:
    """[lo, hi] with a contains written for one point only: its chained
    comparison refuses a column, as a domain written before lanes does."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def contains(self, x):
        return self.lo <= x <= self.hi


def test_a_domain_that_answers_only_for_points_leaves_its_lanes_to_picard(monkeypatch):
    # thm_3_6's family, member n on [1/n, 1]: with a domain that cannot
    # test columns, every member goes to picard_solve and every probe to
    # the scalar fetch, with the results of the lanes
    space = IntervalUT2Space(2.0)
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=200)
    calls = _counting_picard(monkeypatch)
    outcomes, solves = [], []
    for domain, lanes in ((IntervalDomain, True), (_PointwiseInterval, True),
                          (_PointwiseInterval, False)):
        calls.clear()
        family = MapFamily(
            lambda n, domain=domain: ContractionMap(
                lambda x: 0.5 * x + 1.0 / (2.0 * n), UT2Elem(0.5, 0.0), domain(1.0 / n, 1.0)),
            ContractionMap(lambda x: 0.5 * x, UT2Elem(0.5, 0.0), UNIT_INTERVAL),
            lanes=lanes,
        )
        report = subdomain_limit_harness(family, space, cfg, (1, 2, 50, 200), start=1.0,
                                         x_inf=0.0, witness=lambda n: 1.0 / n)
        g = property_g_check(family, space, lambda x: (lambda n: max(x, 1.0 / n)), cfg,
                             [0.0, 0.5],
                             lane_witness=lambda x: (lambda ns: np.maximum(x, 1.0 / ns)))
        outcomes.append((report.dists, report.bounds, report.probe, g))
        solves.append(len(calls))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert solves == [0, 200, 200]


def test_one_answer_for_two_lanes_is_not_taken_for_both():
    # handed a column of two interval lanes, a box unpacks it as one point
    # (x, y) and answers with one bool; taken for both lanes, it would pass
    # witnesses that the scalar check refuses
    box = BoxDomain((0.0, 0.0), (1.0, 1.0))
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5),), horizon=2, tail_required=1)
    outcomes = []
    for lane_witness in (None, lambda x: (lambda ns: np.full(ns.shape, x))):
        family = MapFamily(
            lambda n: ContractionMap(lambda x: 0.5 * x + 0.25 / n, UT2Elem(0.5, 0.0), box),
            ContractionMap(lambda x: 0.5 * x, UT2Elem(0.5, 0.0), box),
            lanes=True,
        )
        with pytest.raises(TypeError) as info:
            property_g_check(family, IntervalUT2Space(2.0), lambda x: (lambda n: x), cfg,
                             [0.5], lane_witness=lane_witness)
        outcomes.append(str(info.value))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("start, lanes_take_it", [
    (0, True), (np.int64(0), True), (np.float64(0.0), True), (2 ** 53 + 1, False),
    (np.int64(2 ** 53 + 1), False), (np.float32(0.0), False), (True, True),
])
def test_lane_start_keeps_lanes_for_starts_that_convert_exactly(start, lanes_take_it):
    assert (fixed_point._lane_start(start, 1) is not None) is lanes_take_it
    assert (fixed_point._lane_start((0.5, start), 2) is not None) is lanes_take_it
    assert fixed_point._lane_start([0.5, 0.5], 2) is None
