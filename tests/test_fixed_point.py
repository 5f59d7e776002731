"""Contraction solving, convergence-mode checkers, and limit harnesses."""

import dataclasses
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conefix.applications as applications
import conefix.fixed_point as fixed_point
from conefix.algebra import R2Elem, UT2Elem, norm, zero
from conefix.applications import (
    CoupledSystem,
    _family_certificate,
    coupled_sequence_harness,
    ode_certify,
    ode_sequence_harness,
    ode_solve,
)
from conefix.errors import (
    IterateEscapedDomain,
    LeftInvariantSet,
    PointOutsideCarrier,
    WitnessOutsideDomain,
)
from conefix.fixed_point import (
    ContractionMap,
    MapFamily,
    PlainMap,
    SolvedMembers,
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
from conefix.fixed_point import _solve_members
from conefix.errors import NoConvergence
from conefix.scenarios import _power
from conefix.spaces import (
    BoxDomain,
    CSeqProbeConfig,
    IntervalDomain,
    IntervalUT2Space,
    PlaneR2Space,
    ProbeOutcome,
    default_probes,
)
from picard_reference import outcome, picard_members
from scalar_reference import property_g_reference

UNIT_INTERVAL = IntervalDomain(0.0, 1.0)


def _where(cond, a, b):
    """np.where, with a Python float where every operand is a scalar, so
    that a member written with it is a plain member on one index and its
    own lane form on an index column."""
    out = np.where(cond, a, b)
    return out.item() if out.ndim == 0 else out


def _scalar_only(members):
    """members, refusing an index column: a family of it has no lane form,
    and the convergence checkers judge it index by index."""
    return lambda n: members(operator.index(n))


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
    pointwise but not uniformly; the powers are Python's own on lanes too."""
    box = BoxDomain((0.0, 0.0), (1.0, 1.0), open_hi=True)
    members = lambda n: PlainMap(lambda p, n=n: _power(n, p), box)
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


@pytest.mark.parametrize("samples, slack", [
    (0, 1e-12), (-1, 1e-12), (1000, math.inf), (1000, math.nan), (1000, -1e-12),
])
def test_verify_contraction_refuses_samples_and_slacks_that_check_nothing(samples, slack):
    # no samples would report ok with nothing checked; an infinite slack
    # would pass any map, and a negative or NaN one fail every sample
    liar = ContractionMap(lambda x: x, UT2Elem(0.5, 0.0))
    with pytest.raises(ValueError, match=r"^need samples >= 1 and a finite slack >= 0, got "):
        verify_contraction(liar, IntervalUT2Space(1.0), samples=samples, slack=slack)


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


def test_pointwise_convergence_refuses_a_plane_point_that_is_not_a_pair():
    from conefix.scenarios import _power_family

    space, family = _power_family()
    with pytest.raises(TypeError, match="^plane points must be pairs$"):
        check_pointwise_convergence(family, space, [[0.5, 0.5]],
                                    CSeqProbeConfig.default(R2Elem, horizon=30))


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
        lambda n: PlainMap(lambda p: (0.0 * p[0], 0.0 * p[1]), box),
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
    # columnar sup divided by a grid size of zero; so with a lane form and
    # with members that take one index only
    members = lambda n: PlainMap(lambda x: x / n, UNIT_INTERVAL)
    family = MapFamily(
        members if lanes else _scalar_only(members),
        PlainMap(lambda x: 0.0, UNIT_INTERVAL),
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
    cache = SolvedMembers()
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

    def distances(self, xs, ys):
        t = np.abs(xs - ys)
        return t * self.direction[0], t * self.direction[1], np.zeros(t.shape, dtype=bool)


def _ray_bound(harness: str, kind, k, direction):
    """The bound a harness certifies for (e - k)^-1 * d with d = direction.

    Members are the constant map 1 and the limit the constant map 0, all
    with coefficient k, so every displacement the harnesses form (member
    against limit at the member point, at the limit point, or at a witness
    0 on the limit point) is d(1, 0) = direction exactly.
    """
    space = _RaySpace(kind, direction)
    family = MapFamily(lambda n: ContractionMap(lambda x: 0.0 * x + 1.0, k),
                       ContractionMap(lambda x: 0.0 * x, k))
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
    members = lambda n: _half_plus(_where(n % 2 == 1, 0.1, 0.4))
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


@pytest.mark.parametrize("tol", [0.0, -1e-4, math.inf, math.nan])
def test_cluster_check_refuses_a_tol_that_is_not_positive_and_finite(tol):
    # a NaN tol would make every radius a cluster, an infinite one every
    # residual acceptable
    family = MapFamily(lambda n: _half_plus(0.25), _half_plus(0.25))
    with pytest.raises(ValueError, match=rf"^tol must be positive and finite, got {tol!r}$"):
        fixed_point_cluster_check(family, IntervalUT2Space(1.0), range(1, 41), start=0.0,
                                  tol=tol)


def test_cluster_check_refuses_empty_indices():
    family = MapFamily(lambda n: _half_plus(0.25), _half_plus(0.25))
    with pytest.raises(ValueError, match="^indices must hold at least one index$"):
        fixed_point_cluster_check(family, IntervalUT2Space(1.0), (), start=0.0)


def test_cluster_check_takes_a_nan_radius_for_no_cluster(monkeypatch):
    family = MapFamily(lambda n: _half_plus(0.25), _half_plus(0.25))
    monkeypatch.setattr(fixed_point, "norm", lambda d: math.nan)
    report = fixed_point_cluster_check(family, IntervalUT2Space(1.0), range(1, 41), start=0.0)
    assert not report.converged
    assert report.conclusion == "not convergent, no conclusion"


# ------------------------------------------------------ property G and H


def test_property_g_constant_witness_on_full_domains():
    family = _shifted_family()
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5), UT2Elem(0.05, 0.05)), horizon=120)
    witness = lambda x: (lambda ns: np.full(ns.shape, x))
    report = property_g_check(family, space, witness, cfg, [0.2, 0.7, 1.0])
    assert report.passed


def test_property_g_edge_witness_on_subdomains():
    family = _subinterval_family()
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5), UT2Elem(0.05, 0.05)), horizon=120)
    witness = lambda x: (lambda ns, x=x: np.maximum(x, 1.0 / ns))
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
        frozen, space, lambda x: (lambda ns: np.full(ns.shape, 1.0)), cfg, [0.3]
    )
    assert not report.passed
    dist_rep, image_rep = report.point_reports[0]
    assert not dist_rep.passed  # the witness never approaches the point
    with pytest.raises(WitnessOutsideDomain):
        property_g_check(
            _subinterval_family(), space, lambda x: (lambda ns: np.zeros(ns.shape)), cfg, [0.5]
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
    witness = lambda x: (lambda ns, x=x: np.maximum(x, 1.0 / ns))
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
        family, space, lambda x: (lambda ns: np.full(ns.shape, x)), cfg, [0.3, 0.6],
        UT2Elem(0.25, 0.25)
    )
    assert report.hypotheses["equicontinuous_at_points"]
    assert report.hypotheses["approach_property"]
    assert report.conclusion_passed


# ------------------------------------------------------------ lane solves


def _shipped_lane_families():
    """The scenario families, with the space, start and tolerance their
    scenarios solve them at."""
    from conefix.scenarios import _interval_ut2_family, _subinterval_family, _system_family

    # the system family as coupled_sequence_harness builds it for thm_4_1
    members, limit = _system_family()
    systems = MapFamily(lambda n: members(n).as_contraction(), limit.as_contraction())
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
    """Equal fields and equal types, down to the coordinates of a pair; for
    two failures, the same type and message."""
    if got != ref or type(got) is not type(ref):
        return False
    if type(ref) is tuple:  # (type, message) of a failure
        return True
    if type(got.point) is not type(ref.point):
        return False
    if isinstance(ref.point, tuple):
        return all(type(a) is type(b) for a, b in zip(got.point, ref.point))
    return True


def _assert_store_is_picard(store, family, space, start, tol, ns) -> None:
    """Every index of ns reads from store what picard_solve returns or raises
    for its member, bit for bit."""
    for n in ns:
        got = outcome(lambda: store[n])
        want = outcome(lambda: picard_solve(family.member(n), space, start, tol))
        assert _same_result(got, want), (n, got, want)


@pytest.mark.parametrize("name", ["thm_2_9", "thm_2_10", "thm_3_6", "thm_4_1"])
def test_lanes_match_picard_on_shipped_families(name):
    family, space, x0, tol = _shipped_lane_families()[name]
    store = _solve_members(family, space, x0, tol, None, np.arange(1, 10_001))
    assert store._failed == {}
    _assert_store_is_picard(store, family, space, x0, tol, range(1, 10_001))


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
    # lanes, starts outside the domain, domain and carrier escapes, and
    # lanes that run out of iterations, each of which the store must raise
    # as picard_solve raises it
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
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fixed_point, "_MAX_ITER", 400)
        store = _solve_members(family, space, start, tol, None, np.arange(1, 25))
        _assert_store_is_picard(store, family, space, start, tol, range(1, 25))


@pytest.mark.parametrize("jump, tol, iterations", [
    # dyadic steps 2^-i in norm: step 6 equals the threshold exactly and
    # must not stop the lane
    (0.0, 2.0 ** -6, 7),
    # the threshold underflows to zero: only an exact zero step stops
    (0.0, 5e-324, 55),
    # the lane stops at 0.46875, whose image jumps out of the carrier, so
    # picard_solve raises on the residual, and so does the store
    (2.0, 0.1, None),
])
def test_lane_stop_rule_edges_match_picard(jump, tol, iterations):
    family = MapFamily(
        lambda n: ContractionMap(lambda x: 0.5 * x + 0.25 + (x >= 0.46) * jump,
                                 UT2Elem(0.5, 0.0)),
        _half_plus(0.0),
    )
    space = IntervalUT2Space(1.0)
    store = _solve_members(family, space, 0.0, tol, None, np.arange(1, 3))
    _assert_store_is_picard(store, family, space, 0.0, tol, (1, 2))
    if iterations is None:
        with pytest.raises(PointOutsideCarrier):
            store[1]
    else:
        assert store[1].iterations == iterations


def test_a_stalled_lane_runs_on_the_lanes_to_the_iteration_cap(monkeypatch):
    # member 3 swaps x and 1 - x forever; members 1..64 halve toward 0.5 in
    # some 40 iterations and members 65..72 contract at rate 0.9 in some
    # 260.  When the fast lanes settle, 9 of 72 are live, at most 1/8, so
    # those 9 resume alone; when the slow ones settle, the stuck lane goes
    # on alone to the cap, and then raises NoConvergence
    monkeypatch.setattr(fixed_point, "_MAX_ITER", 3000)
    calls = []

    def members(n):
        stuck, fast = n == 3, n <= 64

        def step(x):
            calls.append(np.size(x))
            return _where(stuck, 1.0 - x, _where(fast, 0.5 * x + 0.25, 0.9 * x + 0.05))

        rate = _where(stuck | fast, 0.5, 0.9)
        return ContractionMap(step, UT2Elem(rate, 0.0), UNIT_INTERVAL)

    family = MapFamily(members, _half_plus(0.0))
    space = IntervalUT2Space(1.0)
    store = _solve_members(family, space, 0.25, 1e-12, None, np.arange(1, 73))
    fast, slow = store[1].iterations, store[72].iterations
    assert 0 < fast < slow < 3000
    # the map calls of the iterations, each followed by one for the
    # residuals of the lanes that settled: widths 72, 9 and 1, each at
    # most 1/8 of the one before, never growing between
    assert calls == ([72] * fast + [63] + [9] * (slow - fast) + [8]
                     + [1] * (3000 - slow))
    assert all(a >= b for a, b in zip(calls, calls[1:]))
    assert list(store._failed) == [3]
    _assert_store_is_picard(store, family, space, 0.25, 1e-12, range(1, 73))
    with pytest.raises(NoConvergence, match=r"^no fixed point within 3000 iterations"):
        store[3]


def test_a_block_of_fewer_than_8_lanes_narrows_to_its_stalled_lane(monkeypatch):
    # member 3 of 7 swaps x and 1 - x forever, the others halve toward 0.5:
    # once they settle, the stuck lane, 1 of 7, goes on alone to the cap
    # rather than keeping the 6 settled lanes mapped beside it
    monkeypatch.setattr(fixed_point, "_MAX_ITER", 200)
    calls = []

    def members(n):
        def step(x):
            calls.append(np.size(x))
            return _where(n == 3, 1.0 - x, 0.5 * x + 0.25)

        return ContractionMap(step, UT2Elem(0.5, 0.0), UNIT_INTERVAL)

    family = MapFamily(members, _half_plus(0.0))
    space = IntervalUT2Space(1.0)
    store = _solve_members(family, space, 0.25, 1e-12, None, np.arange(1, 8))
    settled = store[1].iterations
    assert 0 < settled < 200
    # the iterations at width 7, the residuals of the 6 settled lanes, then
    # the stuck lane alone
    assert calls == [7] * settled + [6] + [1] * (200 - settled)
    assert list(store._failed) == [3]
    _assert_store_is_picard(store, family, space, 0.25, 1e-12, range(1, 8))


def _counted(family, builds: list, maps: list | None = None) -> MapFamily:
    """family, appending the width of every lane member it builds to
    builds, and, given maps, the width of every map call of those members
    to maps."""
    def members(n):
        member = family._members(n)
        if not isinstance(n, np.ndarray):
            return member
        builds.append(n.size)
        if maps is None:
            return member

        def step(x):
            maps.append(np.size(x[0] if type(x) is tuple else x))
            return member.map(x)

        return ContractionMap(step, member.alpha, member.domain)

    return MapFamily(members, family.limit, family.coefficient_bound)


def test_each_block_builds_its_lane_member_for_its_iterations_and_its_residuals():
    # thm_2_10's family at 1..10000 solves in one block, every member
    # settling: the block builds its lane member once for all 10000 lanes,
    # and again, narrower, each time at most 1/8 of its lanes are live; each
    # width builds one more member for the residuals of the lanes that
    # settled in it
    family, space, x0, tol = _shipped_lane_families()["thm_2_10"]
    builds = []
    store = _solve_members(_counted(family, builds), space, x0, tol, None,
                           np.arange(1, 10_001))
    assert store._failed == {}
    widths, residuals = builds[0::2], builds[1::2]
    assert widths[0] == 10_000 and len(widths) == len(residuals)
    assert 1 < len(widths) <= 1 + math.ceil(math.log(10_000, 8))
    for width, settled, narrower in zip(widths, residuals, widths[1:] + [0]):
        assert settled == width - narrower and 8 * narrower <= width


def test_a_solve_the_store_already_holds_builds_and_maps_nothing():
    # the second call lacks no member, so it builds no lane member, maps no
    # point and leaves the store as it was; nor does a call for no member
    family, space, x0, tol = _shipped_lane_families()["thm_2_9"]
    builds, maps = [], []
    counted = _counted(family, builds, maps)
    store = _solve_members(counted, space, x0, tol, None, np.arange(1, 101))
    assert builds and maps
    ns, cols = store._ns, store._cols
    builds.clear()
    maps.clear()
    assert _solve_members(counted, space, x0, tol, store, np.arange(20, 80)) is store
    assert store._ns is ns and store._cols is cols
    assert _solve_members(counted, space, x0, tol, None, np.arange(1, 1))._ns.size == 0
    assert builds == [] and maps == []


def _planted_affine_family(plane, rates, second, target, refused, escape, carrier, stuck):
    """Affine members on the indices 0..len(rates) - 1: member n maps x to
    a x + b, with a = rates[n] and fixed point target, and on the plane y
    to a y + second (x - target).  Four members are planted: at refused a
    domain that refuses the starts, at escape a fixed point outside the
    domain, at carrier one outside the carrier but in the domain, and at
    stuck x -> 1 - x.  Each number is read from one table, so lane i is
    members(ns[i]) bit for bit."""
    size = len(rates)
    a, c, s = np.array(rates), np.full(size, target), np.full(size, second)
    lo, hi, alpha = np.zeros(size), np.ones(size), a.copy()
    lo[refused] = 0.9
    c[escape], hi[escape] = 0.95, 0.8
    c[carrier], hi[carrier] = 1.5, 2.0
    b = (1.0 - a) * c
    a[stuck], b[stuck], s[stuck], alpha[stuck] = -1.0, 1.0, 0.0, 0.5

    def members(n):
        at = lambda table: table[n] if isinstance(n, np.ndarray) else table[n].item()
        a_n, b_n, c_n, s_n = at(a), at(b), at(c), at(s)
        if plane:
            step = lambda p: (a_n * p[0] + b_n, a_n * p[1] + s_n * (p[0] - c_n))
            domain = BoxDomain((at(lo), -math.inf), (at(hi), math.inf))
            return ContractionMap(step, R2Elem.of(at(alpha), s_n), domain)
        step = lambda x: a_n * x + b_n
        return ContractionMap(step, UT2Elem.of(at(alpha), s_n), IntervalDomain(at(lo), at(hi)))

    return MapFamily(members, members(0))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    plane=st.booleans(),
    second=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
    target=st.floats(0.1, 0.6),
    x0=st.floats(0.0, 0.45),
    y0=st.floats(-0.5, 0.5),
    tol=st.floats(1e-12, 1e-3),
    data=st.data(),
)
def test_narrowing_lanes_match_picard_with_planted_failures_and_a_reused_cache(
        plane, second, target, x0, y0, tol, data):
    # a rate per member, across (0, 0.99], spreads the settling iterations
    # over two or more narrowings in most draws: the fewer lanes are left,
    # the slower they contract.  The store solves 1..first, then reuses the
    # cache for again..size, and must then hold what picard_solve returns
    # or raises for every member, the four planted failures among them
    size = data.draw(st.integers(100, 200), label="size")
    rates = data.draw(st.lists(st.floats(0.0, 0.99, exclude_min=True),
                               min_size=size + 1, max_size=size + 1), label="rates")
    first = data.draw(st.integers(size // 2, size - 1), label="first")
    again = data.draw(st.integers(2, first), label="again")
    refused, escape, carrier, stuck = data.draw(
        st.lists(st.integers(1, size), min_size=4, max_size=4, unique=True), label="planted")
    family = _planted_affine_family(plane, rates, second, target,
                                    refused, escape, carrier, stuck)
    space = PlaneR2Space((-1.0, -math.inf), (1.0, math.inf)) if plane else IntervalUT2Space(2.0)
    start = (x0, y0) if plane else x0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fixed_point, "_MAX_ITER", 3000)
        store = _solve_members(family, space, start, tol, None, np.arange(1, first + 1))
        assert store._ns.tolist() == list(range(1, first + 1))
        assert _solve_members(family, space, start, tol, store,
                              np.arange(again, size + 1)) is store
        assert store._ns.tolist() == list(range(1, size + 1))
        _assert_store_is_picard(store, family, space, start, tol, range(1, size + 1))
        failures = {n: type(store._failed[n]) for n in (refused, escape, carrier, stuck)}
    assert failures == {refused: IterateEscapedDomain, escape: IterateEscapedDomain,
                        carrier: PointOutsideCarrier, stuck: NoConvergence}
    assert str(store._failed[refused]).startswith("start point")


def test_a_lane_that_leaves_its_domain_is_never_mapped_again():
    # member 3 maps 0 to 0.5 and then 0.5 to 2.5, outside its domain, at
    # iteration 2; the others halve toward 0.25 for some 40 iterations.  The
    # lane map refuses any point outside [0, 1], so the block goes on only
    # while the lane of member 3 is held at 0.5, the last point it accepted
    def members(n):
        def step(x):
            if np.any((x < 0.0) | (x > 1.0)):
                raise AssertionError(f"a point outside [0, 1] was mapped: {x!r}")
            return _where(n == 3, 4.0 * x + 0.5, 0.5 * x + 0.125)

        return ContractionMap(step, UT2Elem(0.5, 0.0), UNIT_INTERVAL)

    family = MapFamily(members, _half_plus(0.0))
    space = IntervalUT2Space(1.0)
    store = _solve_members(family, space, 0.0, 1e-12, None, np.arange(1, 9))
    assert list(store._failed) == [3]
    _assert_store_is_picard(store, family, space, 0.0, 1e-12, range(1, 9))
    with pytest.raises(IterateEscapedDomain, match=r"^iterate 2 left the declared domain: 2\.5$"):
        store[3]


def _counting_picard(monkeypatch) -> list:
    """Patch picard_solve to record the map of every call; returns the list."""
    calls = []
    real = fixed_point.picard_solve

    def counting(T, *args, **kwargs):
        calls.append(T)
        return real(T, *args, **kwargs)

    monkeypatch.setattr(fixed_point, "picard_solve", counting)
    return calls


def _counting_ode_solve(monkeypatch) -> list:
    """Patch ode_solve to record the problem of every call; returns the list."""
    calls = []
    real = applications.ode_solve

    def counting(problem, *args, **kwargs):
        calls.append(problem)
        return real(problem, *args, **kwargs)

    monkeypatch.setattr(applications, "ode_solve", counting)
    return calls


def _faulty_family(case: str, k: int) -> MapFamily:
    """Halving members from 0.25 except member k, which breaks its solve:
    its domain misses the start ("start"), an iterate escapes its domain
    ("domain"), leaves the carrier ("carrier"), never settles ("max_iter":
    it runs into the iteration cap), or its coefficient is no contraction
    ("construction").  The members are array-safe, except under "scalar
    only", where the members callable takes one Python index only."""
    domain = None if case == "carrier" else UNIT_INTERVAL

    def bad(x):
        return 1.0 - x if case == "max_iter" else x + 0.75

    def members(n):
        if case == "scalar only":
            n = float(n)
        hit = n == k
        if case == "start":
            return ContractionMap(lambda x: 0.5 * x + 0.125, UT2Elem(0.5, 0.0),
                                  IntervalDomain(_where(hit, 0.5, 0.0), 1.0))
        if case == "construction":
            return ContractionMap(lambda x: 0.5 * x + 0.125,
                                  UT2Elem(_where(hit, 1.5, 0.5), 0.0), domain)
        return ContractionMap(lambda x: _where(hit, bad(x), 0.5 * x + 0.125),
                              UT2Elem(0.5, 0.0), domain)

    return MapFamily(members, _half_plus(0.0, UNIT_INTERVAL))


def _faulty_systems(case: str, k: int):
    """(members, limit) of coupled systems, halving toward the root from the
    origin, except member k, whose map goes to NaN ("carrier") or swaps x
    and 1 - x forever ("max_iter"); "scalar only" as in _faulty_family."""

    def f(hit, n):
        bad = (lambda x: np.nan * x) if case == "carrier" else (lambda x: 1.0 - 2.0 * x)
        return lambda x, y: _where(hit, bad(x), -0.5 * x + 0.25 + 1.0 / n)

    def members(n):
        if case == "scalar only":
            n = float(n)
        return CoupledSystem(f(n == k, n), lambda x, y: -0.5 * y + 0.125, 0.5)

    limit = CoupledSystem(lambda x, y: -0.5 * x + 0.25, lambda x, y: -0.5 * y + 0.125, 0.5)
    return members, limit


def _faulty_problems(case: str, k: int):
    """(members, limit) of ode_sequence's family, except member k, whose y
    tube is too narrow for its slope ("tube"), or which alone needs more
    than one sweep while every other problem has zero slopes ("max_iter",
    under a cap of one sweep); "scalar only" as in _faulty_family."""
    from conefix.scenarios import _damped_ivp_family

    members, limit = _damped_ivp_family()
    if case == "max_iter":
        limit = dataclasses.replace(limit, f=lambda x, y: 0.0 * y, g=lambda x, z: 0.0 * z)
        base = lambda n: dataclasses.replace(limit, f=lambda x, y: -1.0 * (n == k) * y)
    else:
        base = lambda n: dataclasses.replace(
            members(n), y_radius=_where(n == k, 0.05, 1.0) if case == "tube" else 1.0)
    if case == "scalar only":
        return (lambda n: base(float(n))), limit
    return base, limit


# per harness, the ways a member's solve can fail in it
_FAILURES = {
    **{harness: ("start", "domain", "carrier", "max_iter", "construction", "scalar only")
       for harness in ("uniform", "pointwise", "subdomain", "cluster")},
    "coupled": ("carrier", "max_iter", "scalar only"),
    "ode": ("tube", "max_iter", "scalar only"),
}
_RAISED = {"start": IterateEscapedDomain, "domain": IterateEscapedDomain,
           "carrier": PointOutsideCarrier, "max_iter": NoConvergence,
           "construction": ValueError, "scalar only": TypeError,
           "tube": LeftInvariantSet}


def _failing_run(harness: str, case: str, k: int):
    """(run, the reference outcome of member k, a test that a scalar solve
    is the limit's) for a harness on the faulty family of case."""
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5),), horizon=30)
    rows = (1, 2, 3, 10)
    if harness == "coupled":
        members, limit = _faulty_systems(case, k)
        run = lambda: coupled_sequence_harness(
            members, limit, rows, CSeqProbeConfig((R2Elem(0.5, 0.5),), horizon=30))
        want = lambda: picard_solve(members(k).as_contraction(), PlaneR2Space(),
                                    (0.0, 0.0), 1e-12)
        return run, want, lambda T: T.map == limit.operator
    if harness == "ode":
        members, limit = _faulty_problems(case, k)
        run = lambda: ode_sequence_harness(
            members, limit, rows, CSeqProbeConfig((R2Elem(0.5, 0.5),), horizon=30),
            grid_pts=65)
        cert = _family_certificate(ode_certify(members(1)), ode_certify(limit), limit.center)
        want = lambda: ode_solve(members(k), 65, 1e-10, cert)
        return run, want, lambda problem: problem is limit
    family = _faulty_family(case, k)
    calls = {
        "uniform": lambda: uniform_limit_harness(family, space, cfg, rows, start=0.25),
        "pointwise": lambda: pointwise_limit_harness(family, space, cfg, rows, start=0.25),
        "subdomain": lambda: subdomain_limit_harness(
            family, space, cfg, rows, start=0.25, x_inf=0.0, witness=lambda n: 0.5),
        "cluster": lambda: fixed_point_cluster_check(
            family, space, range(1, cfg.horizon + 1), start=0.25),
    }
    if case == "construction":
        want = lambda: family.member(k)
    else:
        want = lambda: picard_solve(family.member(k), space, 0.25, 1e-12)
    return calls[harness], want, lambda T: T is family.limit


@pytest.mark.parametrize("k, case, raised, harness", [
    pytest.param(k, case, _RAISED[case], harness,
                 id=f"{k}-{case}-{_RAISED[case].__name__}-{harness}")
    for harness, cases in _FAILURES.items() for case in cases for k in (3, 7)
])
def test_lane_failures_raise_what_picard_raises(k, case, raised, harness, monkeypatch):
    # every harness solves its members on lanes only; a member whose solve
    # fails raises, where the rows or the probe first read it, what
    # picard_solve or ode_solve raises for it, and the scalar solvers see
    # at most the limit.  A members callable that is not array-safe is
    # refused with TypeError before anything is solved
    monkeypatch.setattr(fixed_point, "_MAX_ITER", 300)
    monkeypatch.setattr(applications, "_MAX_SWEEPS", 1 if case == "max_iter" else 200)
    run, want, is_limit = _failing_run(harness, case, k)
    picard_calls, ode_calls = _counting_picard(monkeypatch), _counting_ode_solve(monkeypatch)
    with pytest.raises(raised) as info:
        run()
    calls = picard_calls + ode_calls
    if case == "scalar only":
        assert calls == []  # refused before the limit is solved
        return
    # the harnesses that solve a limit solve it once; a lane member that
    # cannot be built stops them before that
    solves_limit = harness in ("uniform", "pointwise", "coupled", "ode")
    assert len(calls) == (solves_limit and case != "construction")
    assert all(map(is_limit, calls))
    assert outcome(want) == (type(info.value), str(info.value))


def test_lane_family_makes_no_member_picard_solves(monkeypatch):
    # only the limit map is solved by picard
    from conefix.scenarios import _interval_ut2_family

    calls = _counting_picard(monkeypatch)
    family = _interval_ut2_family(lambda n: 1.0 / (n + 2.0), lambda n: 0.5)
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=10_000)
    report = uniform_limit_harness(
        family, IntervalUT2Space(2.0), cfg, (1, 10, 100, 1000), start=0.0, tol=1e-12
    )
    assert report.verdict
    assert calls == [family.limit]


def _thm_2_9_with_fault(case: str) -> MapFamily:
    """The thm_2_9 family with a fault: member 7 cannot be built, so neither
    can the lane member of its block ("member"), member 2 escapes its
    domain ("escape"), the map's lane branch is written apart from its one
    point branch, to the same bits ("lane_map"), or every member lives on a
    box, a domain that cannot test interval lanes ("box")."""
    from conefix.scenarios import _interval_ut2_family

    base = _interval_ut2_family(lambda n: 1.0 / (n + 2.0), lambda n: 0.5)
    box = BoxDomain((0.0, 0.0), (1.0, 1.0))

    def step(n, x):
        if case == "lane_map" and isinstance(x, np.ndarray):
            return np.add(np.multiply(0.5, x), np.divide(1.0, np.add(n, 2.0)))
        good = 0.5 * x + 1.0 / (n + 2.0)
        return _where(n == 2, x + 0.75, good) if case == "escape" else good

    def members(n):
        if case == "member" and np.any(n == 7):
            raise ValueError("member 7 cannot be built")
        return ContractionMap(lambda x: step(n, x), UT2Elem(0.5, 0.0),
                              box if case == "box" else UNIT_INTERVAL)

    return MapFamily(members, base.limit)


@pytest.mark.parametrize("case, start, raised", [
    ("member", 0.0, ValueError),
    ("escape", 0.0, IterateEscapedDomain),
    ("lane_map", 0.0, None),
    # an int converts to float exactly, so the lanes take it as 0.0
    ("int start", 0, None),
    # the box cannot test a column of interval points, nor unpack one point
    ("box", 0.0, TypeError),
])
def test_lane_fallbacks_match_the_scalar_harness(case, start, raised, monkeypatch):
    # the harness on lanes against the same harness with every member
    # solved by picard_solve: the same report, or the same error
    space = IntervalUT2Space(2.0)
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=200)
    run = lambda: uniform_limit_harness(_thm_2_9_with_fault(case), space, cfg,
                                        (1, 2, 7, 50, 200), start)
    calls = _counting_picard(monkeypatch)
    got = outcome(run)
    if raised is None:
        assert len(calls) == 1  # the limit; the lanes solved every member
    with picard_members():
        want = outcome(run)
    if raised is None:
        assert (got.dists, got.bounds, got.probe) == (want.dists, want.bounds, want.probe)
    else:
        assert got[0] is want[0] is raised
        if case != "box":  # the box refuses the lanes in its own words
            assert got == want


def test_plane_lane_fallback_for_a_start_of_integers(monkeypatch):
    # the thm_4_1 system family on the plane, started from an integer pair,
    # which converts to floats exactly, so the lanes take it as (0.0, 0.0)
    from conefix.scenarios import _system_family

    members, limit = _system_family()
    cfg = CSeqProbeConfig.default(R2Elem, horizon=200)
    family = MapFamily(lambda n: members(n).as_contraction(), limit.as_contraction())
    run = lambda: uniform_limit_harness(family, PlaneR2Space(), cfg, (1, 2, 50, 200), (0, 0))
    calls = _counting_picard(monkeypatch)
    got = run()
    assert len(calls) == 1  # the limit; the lanes solved every member
    with picard_members():
        want = run()
    assert (got.dists, got.bounds, got.probe) == (want.dists, want.bounds, want.probe)


class _PointwiseInterval:
    """[lo, hi] with a contains written for one point only: its chained
    comparison refuses a column, as a domain written before lanes does."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def contains(self, x):
        return self.lo <= x <= self.hi


def test_a_domain_that_answers_only_for_points_is_refused_at_entry(monkeypatch):
    # thm_3_6's family, member n on [1/n, 1]: with a domain that cannot
    # test columns the harness refuses the family before any solve, and
    # property G, a checker, refuses it too
    space = IntervalUT2Space(2.0)
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=200)
    calls = _counting_picard(monkeypatch)
    for domain in (IntervalDomain, _PointwiseInterval):
        family = MapFamily(
            lambda n, domain=domain: ContractionMap(
                lambda x: 0.5 * x + 1.0 / (2.0 * n), UT2Elem(0.5, 0.0), domain(1.0 / n, 1.0)),
            ContractionMap(lambda x: 0.5 * x, UT2Elem(0.5, 0.0), UNIT_INTERVAL),
        )
        harness = lambda: subdomain_limit_harness(
            family, space, cfg, (1, 2, 50, 200), start=1.0, x_inf=0.0,
            witness=lambda n: 1.0 / n)
        premise = lambda: property_g_check(
            family, space, lambda x: (lambda ns: np.maximum(x, 1.0 / ns)), cfg, [0.0, 0.5])
        if domain is IntervalDomain:
            assert all(harness().respected)
            assert premise() == property_g_reference(
                family, space, lambda x: (lambda n: max(x, 1.0 / n)), cfg, [0.0, 0.5])
        else:
            for refused in (harness, premise):
                with pytest.raises(TypeError, match="must answer one bool per lane"):
                    refused()
    assert calls == []


def test_one_answer_for_two_lanes_is_not_taken_for_both():
    # handed a column of two interval lanes, a box unpacks it as one point
    # (x, y) and answers with one bool; taken for both lanes, it would pass
    # witnesses that the scalar check refuses
    box = BoxDomain((0.0, 0.0), (1.0, 1.0))
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5),), horizon=2, tail_required=1)
    family = MapFamily(
        lambda n: ContractionMap(lambda x: 0.5 * x + 0.25 / n, UT2Elem(0.5, 0.0), box),
        ContractionMap(lambda x: 0.5 * x, UT2Elem(0.5, 0.0), box),
    )
    with pytest.raises(TypeError, match="must answer one bool per lane"):
        property_g_check(family, IntervalUT2Space(2.0),
                         lambda x: (lambda ns: np.full(ns.shape, x)), cfg, [0.5])


@pytest.mark.parametrize("start, lanes_take_it", [
    (0, True), (np.int64(0), True), (np.float64(0.0), True), (2 ** 53 + 1, False),
    (np.int64(2 ** 53 + 1), False), (np.float32(0.0), False), (True, True),
])
def test_lane_start_keeps_lanes_for_starts_that_convert_exactly(start, lanes_take_it):
    # the lanes start from float64 columns: a start that float does not
    # hold exactly, or whose own arithmetic is not float64's, is refused
    for dim, point in ((1, start), (2, (0.5, start))):
        if lanes_take_it:
            assert fixed_point._start_point(point, dim) == (0.5, float(start))[2 - dim:]
        else:
            with pytest.raises(ValueError, match="^start must be a float"):
                fixed_point._start_point(point, dim)
    for refused in ([0.5, 0.5], (0.5,), float("nan"), (0.5, float("nan"))):
        with pytest.raises(ValueError):
            fixed_point._start_point(refused, 1 if type(refused) is float else 2)


# ------------------------------------------------------ the shared store


def test_a_shared_store_refuses_another_tol_start_or_family():
    # a store keyed by index only handed the second call the points it had
    # solved at tol 1e-2: row n = 10 read dist (0.1017578125, 0.203515625),
    # a 9-iteration point, where a fresh solve at 1e-12 reads
    # (0.10000000000020465, 0.2000000000004093)
    from conefix.scenarios import _subinterval_family

    family = _subinterval_family()
    space = IntervalUT2Space(2.0)
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=1000)
    run = lambda family, tol, start, store: subdomain_limit_harness(
        family, space, cfg, (1, 10, 100), start=start, x_inf=0.0,
        witness=lambda n: 1.0 / n, tol=tol, fp_cache=store)
    store = SolvedMembers()
    run(family, 1e-2, 1.0, store)
    for other in ((family, 1e-12, 1.0), (family, 1e-2, 0.5), (_subinterval_family(), 1e-2, 1.0)):
        with pytest.raises(ValueError, match="^fp_cache holds members solved for another"):
            run(*other, store)
    fresh = run(family, 1e-12, 1.0, SolvedMembers())
    assert fresh.dists[1] == UT2Elem(0.10000000000020465, 0.2000000000004093)
    # the same problem reads the store again, without a solve
    again = run(family, 1e-2, 1.0, store)
    assert again.dists[1] == UT2Elem(0.1017578125, 0.203515625)
    assert store[10].iterations == 9


@pytest.mark.parametrize("harness", ["pointwise", "subdomain"])
def test_a_coefficient_bound_that_misses_a_member_is_refused(harness, monkeypatch):
    # member 7 declares rate 0.6 against a coefficient bound of 0.5: the
    # bound's rows would rest on a domination that does not hold
    members = lambda n: ContractionMap(
        lambda x: 0.5 * x + 0.25 / n, UT2Elem(_where(n == 7, 0.6, 0.5), 0.0), UNIT_INTERVAL)
    family = MapFamily(members, _half_plus(0.0, UNIT_INTERVAL),
                       coefficient_bound=UT2Elem(0.5, 0.0))
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5),), horizon=30)
    calls = _counting_picard(monkeypatch)
    with pytest.raises(ValueError, match=r"^coefficient bound UT2Elem\(first=0\.5, second=0\.0\) "
                                         r"does not dominate the coefficient \(0\.6, 0\.0\) "
                                         r"of member 7$"):
        if harness == "pointwise":
            pointwise_limit_harness(family, space, cfg, (1, 2, 3), start=0.0)
        else:
            subdomain_limit_harness(family, space, cfg, (1, 2, 3), start=0.0, x_inf=0.0,
                                    witness=lambda n: 0.5)
    assert calls == []  # refused before any solve
