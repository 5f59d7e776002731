"""Cone metric spaces, weighted norms, trapezoid integration, and smallness probes."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conefix.algebra import R2Elem, UT2Elem, cone_compare, in_cone, mul, scale, zero
from conefix.applications import _family_certificate, _ode_grid, ode_certify
from conefix.errors import (
    AlgebraMismatchError,
    EmptyGrid,
    MemberOutsideCone,
    PointOutsideCarrier,
)
from conefix.grid import cumulative_trapezoid_from
from conefix.scenarios import _damped_ivp_family
from conefix.spaces import (
    BieleckiPairSpace,
    BoxDomain,
    CSeqProbeConfig,
    CSeqProbeReport,
    IntervalDomain,
    IntervalUT2Space,
    PlaneR2Space,
    ProbeOutcome,
    check_metric_axioms,
    default_probes,
    is_c_sequence,
)


# ---------------------------------------------------------------- domains


def test_interval_domain():
    dom = IntervalDomain(0.0, 1.0)
    assert dom.contains(0.0) and dom.contains(1.0) and dom.contains(0.5)
    assert not dom.contains(-0.1) and not dom.contains(1.1)
    half_open = IntervalDomain(0.0, 1.0, open_hi=True)
    assert half_open.contains(0.0) and not half_open.contains(1.0)
    # a single closed point is a legal domain
    point = IntervalDomain(1.0, 1.0)
    assert point.contains(1.0) and not point.contains(0.999)
    with pytest.raises(ValueError):
        IntervalDomain(1.0, 0.0)
    with pytest.raises(ValueError):
        IntervalDomain(1.0, 1.0, open_hi=True)


def test_interval_domain_refuses_nan_endpoints():
    # such a domain used to construct, contain nothing and sample NaN
    for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="interval must have lo <= hi"):
            IntervalDomain(lo, hi)


def test_interval_domain_sampling_respects_open_end():
    dom = IntervalDomain(0.0, 1.0, open_hi=True)
    rng = np.random.default_rng(0)
    pts = dom.sample(rng, 500)
    assert len(pts) == 500
    assert all(0.0 <= p < 1.0 for p in pts)


def test_interval_domain_sampling_respects_an_open_lower_end():
    # this draw hit lattice step 0, so lo itself, when steps were drawn from
    # 0 at an open lower end too
    dom = IntervalDomain(0.0, 1.0, open_lo=True)
    pts = dom.sample(np.random.default_rng(14), 100_000)
    assert min(pts) > 0.0
    assert all(dom.contains(p) for p in pts)
    # closed ends draw the steps they drew before, bit for bit
    closed = IntervalDomain(0.0, 1.0).sample(np.random.default_rng(14), 1000)
    steps = np.random.default_rng(14).integers(0, 1 << 20, size=1000, endpoint=True)
    assert closed == [float(v) for v in steps * (1.0 / (1 << 20))]


def test_box_domain():
    box = BoxDomain((0.0, -1.0), (2.0, 1.0))
    assert box.contains((1.0, 0.0)) and box.contains((0.0, -1.0))
    assert not box.contains((3.0, 0.0))
    rng = np.random.default_rng(1)
    for p in box.sample(rng, 200):
        assert box.contains(p)
    with pytest.raises(ValueError):
        BoxDomain((0.0, 0.0), (0.0, 1.0))


def test_box_domain_checks_column_corners_in_every_lane():
    # a lane member's box may have column corners; they used to be refused
    # with numpy's "truth value of an array is ambiguous" error
    box = BoxDomain((np.zeros(3), 0.0), (1.0, 1.0))
    assert box.contains((np.array([0.5, 1.5, 1.0]), np.full(3, 0.5))).tolist() == [
        True, False, True]
    with pytest.raises(ValueError, match="lo < hi in both coordinates"):
        BoxDomain((np.array([0.0, 1.0, 0.0]), 0.0), (1.0, 1.0))


# the four classes that answer contains for a point or for lane columns
_ENDS = st.sampled_from((-1.0, -0.0, 0.0, 0.25, 1.0)) | st.floats(-4.0, 4.0)
_PLANE_ENDS = _ENDS | st.sampled_from((-math.inf, math.inf))


def _around(ends) -> list:
    """The points a membership test at ends must get right: each end and
    its neighbours one ulp down and up, NaN, both infinities and zeros."""
    out = [math.nan, math.inf, -math.inf, 0.0, -0.0]
    for e in ends:
        out += [e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf)]
    return out


def _ends(draw, strict: bool, ends=_ENDS) -> tuple[float, float]:
    """lo <= hi, sometimes equal unless strict, when hi moves one ulp up."""
    lo, hi = sorted((draw(ends), draw(ends)))
    if draw(st.booleans()):
        hi = lo  # a degenerate interval
    if strict and hi == lo:
        hi = math.nextafter(lo, math.inf)
    return lo, hi


@st.composite
def _membership_cases(draw):
    """(domain, coordinate columns, per-lane domains): the domain's answer
    for the columns must be, lane by lane, the answer of that lane's
    domain for that lane's point.  Domains with column ends give each lane
    its own ends."""
    what = draw(st.sampled_from(("interval", "box", "ut2", "plane")))
    lanes = draw(st.integers(1, 6))
    per_lane = what in ("interval", "box") and draw(st.booleans())
    if what == "interval":
        open_lo, open_hi = draw(st.booleans()), draw(st.booleans())
        ends = [_ends(draw, open_lo or open_hi) for _ in range(lanes if per_lane else 1)]
        make = lambda lo, hi: IntervalDomain(lo, hi, open_lo, open_hi)
    elif what == "box":
        open_hi = draw(st.booleans())
        ends = [(*_ends(draw, True), *_ends(draw, True))
                for _ in range(lanes if per_lane else 1)]
        make = lambda lo0, hi0, lo1, hi1: BoxDomain((lo0, lo1), (hi0, hi1), open_hi)
    elif what == "ut2":
        ends = [(0.0, 1.0)]
        make = lambda lo, hi: IntervalUT2Space(2.0)
    else:
        open_hi = draw(st.booleans())
        ends = [(*_ends(draw, True, _PLANE_ENDS), *_ends(draw, True, _PLANE_ENDS))]
        try:
            PlaneR2Space((ends[0][0], ends[0][2]), (ends[0][1], ends[0][3]), open_hi)
        except ValueError:
            assume(False)  # the box misses the sampling window
        make = lambda lo0, hi0, lo1, hi1: PlaneR2Space((lo0, lo1), (hi0, hi1), open_hi)
    domains = [make(*e) for e in ends] if per_lane else [make(*ends[0])] * lanes
    domain = make(*(np.array(c) for c in zip(*ends))) if per_lane else domains[0]
    points = st.sampled_from(_around([e for row in ends for e in row])) | st.floats()
    dim = 1 if what in ("interval", "ut2") else 2
    cols = tuple(np.array([draw(points) for _ in range(lanes)]) for _ in range(dim))
    return domain, cols, domains


@settings(max_examples=400, deadline=None)
@given(_membership_cases())
def test_contains_on_columns_matches_contains_on_each_point(case):
    domain, cols, domains = case
    got = domain.contains(cols[0] if len(cols) == 1 else cols)
    points = cols[0].tolist() if len(cols) == 1 else list(zip(*(c.tolist() for c in cols)))
    want = [d.contains(p) for d, p in zip(domains, points)]
    assert all(type(w) is bool for w in want)  # a point gets a plain bool
    assert type(got) is np.ndarray and got.dtype == bool and got.tolist() == want


# ----------------------------------------------------------------- spaces


def _ode_sequence_space() -> BieleckiPairSpace:
    """The space the ode_sequence scenario measures its rows in."""
    members, limit = _damped_ivp_family()
    cert = _family_certificate(ode_certify(members(1)), ode_certify(limit), limit.center)
    return _ode_grid(cert, 257, 1e-10).space


def test_metric_axioms_hold_on_shipped_spaces():
    for space, samples in (
        (IntervalUT2Space(1.0), 10_000),
        (IntervalUT2Space(3.5), 10_000),
        (PlaneR2Space(), 10_000),
        (BieleckiPairSpace(-0.5, 0.5, 33, 4.0), 1_000),
        (_ode_sequence_space(), 1_000),
    ):
        report = check_metric_axioms(space, samples=samples, seed=0)
        assert report.clean, (space, report)


def test_metric_axioms_refuse_a_check_of_no_samples():
    # no samples would report clean with nothing checked
    for samples in (0, -3):
        with pytest.raises(ValueError, match=rf"^samples must be at least 1, got {samples}$"):
            check_metric_axioms(IntervalUT2Space(1.0), samples=samples)


class _NegatedDistance:
    """Broken stand-in: a sign flip must be caught by the first axiom."""

    kind = UT2Elem

    def __init__(self):
        self.base = IntervalUT2Space(1.0)

    def sample(self, rng, count):
        return self.base.sample(rng, count)

    def distance(self, x, y):
        return scale(-1.0, self.base.distance(x, y))


def test_metric_axioms_catch_sign_flip():
    report = check_metric_axioms(_NegatedDistance(), samples=500, seed=2)
    assert report.d1_violations > 0
    assert not report.clean


def test_interval_ut2_distance_literals():
    space = IntervalUT2Space(2.0)
    assert space.distance(0.25, 0.75) == UT2Elem(0.5, 1.0)
    assert space.distance(0.75, 0.25) == UT2Elem(0.5, 1.0)
    assert space.distance(0.4, 0.4) == zero(UT2Elem)
    with pytest.raises(PointOutsideCarrier):
        space.distance(0.5, 1.5)
    for bad in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            IntervalUT2Space(bad)


def test_plane_r2_distance_literals():
    space = PlaneR2Space()
    assert space.distance((0.0, 0.0), (3.0, 4.0)) == R2Elem(3.0, 4.0)
    assert space.distance((1.0, -2.0), (1.0, -2.0)) == zero(R2Elem)
    clipped = PlaneR2Space(lo=(0.0, 0.0), hi=(1.0, 1.0))
    with pytest.raises(PointOutsideCarrier):
        clipped.distance((0.5, 0.5), (2.0, 0.5))
    # the sampling window stands in for an unbounded carrier, so it must be
    # finite (an infinite one sampled NaN points)
    for bad in (((-math.inf, -math.inf), (math.inf, math.inf)), ((0.0, math.nan), (1.0, 1.0))):
        with pytest.raises(ValueError, match="sample_box must be finite"):
            PlaneR2Space(sample_box=bad)


def test_plane_r2_refuses_a_carrier_that_misses_the_sample_box():
    # such a space used to construct and fail only when sampled, with a
    # BoxDomain message that named neither argument
    refused = r"^carrier box lo=\(10\.0, 10\.0\), hi=\(20\.0, 20\.0\) does not meet sample_box "
    with pytest.raises(ValueError, match=refused):
        PlaneR2Space(lo=(10.0, 10.0), hi=(20.0, 20.0))
    for lo, hi, window in (
        ((8.0, 0.0), (9.0, 1.0), ((-8.0, -8.0), (8.0, 8.0))),  # meets at an edge only
        ((0.0, 0.0), (1.0, 1.0), ((2.0, 0.0), (3.0, 1.0))),
        ((-math.inf, 0.0), (math.inf, 1.0), ((0.0, 5.0), (1.0, 6.0))),
    ):
        with pytest.raises(ValueError, match="does not meet sample_box"):
            PlaneR2Space(lo=lo, hi=hi, sample_box=window)
    inside = PlaneR2Space(lo=(10.0, 10.0), hi=(20.0, 20.0),
                          sample_box=((0.0, 0.0), (15.0, 30.0)))
    assert inside.carrier == BoxDomain((10.0, 10.0), (15.0, 20.0))


_EDGE_COORDS = st.sampled_from(
    [0.0, -0.0, 1.0, 5e-324, -5e-324, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52, 0.5, 2.0,
     -1.0, 1.5e308, -1.5e308, math.inf, -math.inf, math.nan]
) | st.floats(-2.0, 2.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_EDGE_COORDS, _EDGE_COORDS, _EDGE_COORDS, _EDGE_COORDS),
             min_size=1, max_size=12),
    st.booleans(),
)
@example([(1.5e308, 0.0, -1.5e308, 0.0), (1.0, math.nan, 0.5, 0.0)], False)
def test_batch_distances_match_distance_lane_by_lane(lanes, open_hi):
    """distances gives, per lane, the coordinates distance returns, bit for
    bit, and marks exactly the lanes where distance raises."""
    cols = [np.array(c, dtype=np.float64) for c in zip(*lanes)]
    # BieleckiPairSpace on 4 nodes: function j of lane i holds the lane's
    # coordinate j and zeros elsewhere, the y pair (j = 0, 2) at node 1
    # and the z pair (j = 1, 3) at node 2, so that a gap can overflow
    rows = [np.where(np.arange(4) == 1 + j % 2, cols[j][:, None], 0.0) for j in range(4)]
    bielecki = BieleckiPairSpace(-1.0, 1.0, 4, 1.5)
    cases = [
        (IntervalUT2Space(3.0), cols[0], cols[1],
         lambda i: (lanes[i][0], lanes[i][1])),
        (PlaneR2Space((-1.0, 0.0), (1.0, 2.0), open_hi=open_hi),
         (cols[0], cols[1]), (cols[2], cols[3]),
         lambda i: ((lanes[i][0], lanes[i][1]), (lanes[i][2], lanes[i][3]))),
        (PlaneR2Space(), (cols[0], cols[1]), (cols[2], cols[3]),
         lambda i: ((lanes[i][0], lanes[i][1]), (lanes[i][2], lanes[i][3]))),
        (bielecki, (rows[0], rows[1]), (rows[2], rows[3]),
         lambda i: ((rows[0][i], rows[1][i]), (rows[2][i], rows[3][i]))),
    ]
    # inf - inf, and finite gaps that overflow, in both paths
    with np.errstate(invalid="ignore", over="ignore"):
        for space, ps, qs, points in cases:
            first, second, outside = space.distances(ps, qs)
            for i in range(len(lanes)):
                try:
                    d = space.distance(*points(i))
                except PointOutsideCarrier:
                    assert outside[i]
                else:
                    assert not outside[i]
                    assert (first[i].tobytes(), second[i].tobytes()) == (
                        np.float64(d.first).tobytes(), np.float64(d.second).tobytes())


def test_bielecki_pair_space_distance():
    space = BieleckiPairSpace(0.0, 1.0, 17, 1.0)
    y1, z1 = np.full(17, 1.0), np.full(17, 0.0)
    y2, z2 = np.full(17, 0.0), np.full(17, 3.0)
    d = space.distance((y1, z1), (y2, z2))
    # constant gaps peak at the midpoint, where the weight is 1
    assert d == R2Elem(1.0, 3.0)
    # a point is two finite float64 arrays of one value per node
    nan_at_end = np.full(17, 0.0)
    nan_at_end[-1] = np.nan
    for bad in (
        (np.full(9, 0.0), z1),  # wrong length
        (y1, np.full((1, 17), 0.0)),  # a row, not a vector
        (y1, nan_at_end),
        (y1, np.full(17, np.inf)),
        (y1, np.full(17, 0, dtype=np.int64)),
        (y1, [0.0] * 17),  # not an array
        (y1, 0.0),
        (y1, z1, z1),  # not a pair
        [y1, z1],
    ):
        assert not space.contains(bad)
        with pytest.raises(PointOutsideCarrier):
            space.distance((y1, z1), bad)
        with pytest.raises(PointOutsideCarrier):
            space.distance(bad, (y1, z1))
    for tau in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            BieleckiPairSpace(0.0, 1.0, 17, tau)


def test_bielecki_space_refuses_a_grid_of_one_node_and_an_empty_interval():
    with pytest.raises(ValueError, match="^grid_pts must be >= 2$"):
        BieleckiPairSpace(0.0, 1.0, 1, 1.0)
    with pytest.raises(ValueError, match="^interval must have lo < hi$"):
        BieleckiPairSpace(1.0, 1.0, 5, 1.0)


# ------------------------------------------------------------------ grids


def test_cumulative_trapezoid_anchoring():
    nodes = np.linspace(-1.0, 1.0, 401)
    values = nodes ** 2
    anchor = 200  # the node at 0
    out = cumulative_trapezoid_from(values, float(nodes[1] - nodes[0]), anchor)
    assert out[anchor] == 0.0
    exact = nodes ** 3 / 3.0
    assert np.max(np.abs(out - exact)) < 1e-4
    # left of the anchor the integral runs backward and flips sign
    assert out[0] == pytest.approx(-1.0 / 3.0, abs=1e-4)
    assert out[-1] == pytest.approx(1.0 / 3.0, abs=1e-4)
    with pytest.raises(EmptyGrid):
        cumulative_trapezoid_from(np.array([1.0]), 0.1, 0)
    with pytest.raises(ValueError):
        cumulative_trapezoid_from(values, 0.005, 999)


def _float_bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _trapezoid_inputs() -> list:
    rng = np.random.default_rng(19)
    block = rng.uniform(-1.0, 1.0, size=(5, 33))
    block[0, :4] = -0.0
    block[1, 3:9] = 5e-324 * np.arange(1, 7)  # subnormals
    block[2, ::2] *= 1e300
    block[3, 10] = -1e300
    # only the sum straddling rows 3 and 4 of the flat block overflows
    block[3, -1] = block[4, 0] = 1.7e308
    # 1-D rows, the C-contiguous block, strided and Fortran-ordered blocks
    return [block[0], block[1], block[2], block, block[:, ::2], block[::2],
            np.asfortranarray(block)]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_cumulative_trapezoid_writes_into_out(where):
    for values in _trapezoid_inputs():
        width = values.shape[-1]
        anchor = {"first": 0, "middle": width // 2, "last": width - 1}[where]
        want = cumulative_trapezoid_from(values, 0.01, anchor)
        for row, w in zip(np.atleast_2d(values), np.atleast_2d(want)):
            assert _float_bits(cumulative_trapezoid_from(row, 0.01, anchor)) == _float_bits(w)
        # under "warn" row by row; under "ignore" a C-contiguous block is one
        # flat run, whose straddling overflow is neither kept nor heard
        for errors in ("warn", "ignore"):
            buf = np.full(values.shape, np.nan)
            with warnings.catch_warnings(), np.errstate(over=errors, invalid=errors):
                warnings.simplefilter("error")
                got = cumulative_trapezoid_from(values, 0.01, anchor, out=buf)
            assert got is buf
            assert _float_bits(got) == _float_bits(want)


def test_cumulative_trapezoid_refuses_an_out_it_cannot_write():
    values = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    for out in (np.empty((3, 5)), np.empty(12), np.empty((4, 3)),
                np.empty((3, 4), dtype=np.float32), np.empty((3, 4), dtype=np.int64),
                values.tolist(), values, values[::-1]):
        with pytest.raises(ValueError):
            cumulative_trapezoid_from(values, 0.1, 1, out=out)
    store = np.zeros(16)
    with pytest.raises(ValueError, match="share memory"):
        cumulative_trapezoid_from(store[:12], 0.1, 0, out=store[4:])
    # interleaved columns of one array share no element, so they may pair
    got = cumulative_trapezoid_from(store.reshape(4, 4)[:, ::2], 0.1, 0,
                                    out=store.reshape(4, 4)[:, 1::2])
    assert _float_bits(got) == [[0, 0]] * 4


# ----------------------------------------------------------------- probes


def test_probe_config_validation():
    with pytest.raises(ValueError):
        CSeqProbeConfig(probes=())
    with pytest.raises(ValueError, match=r"^horizon must be >= tail_required \(16\), got 4$"):
        CSeqProbeConfig(probes=default_probes(R2Elem), horizon=4, tail_required=16)
    with pytest.raises(ValueError, match=r"^tail_required must be >= 1, got 0$"):
        CSeqProbeConfig(probes=default_probes(R2Elem), horizon=4, tail_required=0)
    with pytest.raises(ValueError):
        CSeqProbeConfig(probes=default_probes(R2Elem), start=-1)
    with pytest.raises(ValueError):
        CSeqProbeConfig(probes=(R2Elem(0.1, 0.0),))


def test_probe_config_refuses_a_window_shorter_than_the_tail():
    # these windows used to pass every probe on too few entries: none at
    # all for a start past the horizon, 2 against a tail of 16
    for horizon, start in ((20, 30), (16, 15), (20, 6)):
        with pytest.raises(ValueError, match=r"shorter than tail_required \(16\)$"):
            CSeqProbeConfig(default_probes(UT2Elem), horizon=horizon, start=start)
    # the shortest window allowed holds tail_required entries, all of them
    # the tail, so one failing entry at its start fails the probe
    cfg = CSeqProbeConfig(default_probes(UT2Elem), horizon=20, start=5)
    assert is_c_sequence(lambda n: zero(UT2Elem), cfg).passed
    report = is_c_sequence(lambda n: UT2Elem(0.5, 0.5) if n == 5 else zero(UT2Elem), cfg)
    assert [o.verdict for o in report.outcomes] == [True, False, False, False]


def test_constant_zero_sequence_has_trivial_thresholds():
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=200)
    report = is_c_sequence(lambda n: zero(UT2Elem), cfg)
    assert report.passed
    assert all(o.n_found == 0 and o.verdict for o in report.outcomes)


def test_threshold_matches_exact_arithmetic():
    """N for the 1/n family must equal the rational-arithmetic prediction."""
    k = 2.0
    space = IntervalUT2Space(k)
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=2500)
    report = is_c_sequence(lambda n: space.distance(1.0 / n, 0.0), cfg)
    for outcome in report.outcomes:
        alpha, beta = outcome.probe
        expected = max(
            int(Fraction(1) / Fraction(str(alpha))) + 1,
            int(Fraction(int(k)) / Fraction(str(beta))) + 1,
        )
        assert outcome.n_found == expected


def test_brief_dip_at_the_tail_fails():
    horizon = 300
    cfg = CSeqProbeConfig(probes=(R2Elem(0.5, 0.5),), horizon=horizon)

    def seq(n):
        if n == horizon - 8:
            return R2Elem(2.0, 2.0)
        return R2Elem(1e-9, 1e-9)

    report = is_c_sequence(seq, cfg)
    outcome = report.outcomes[0]
    assert not report.passed
    assert outcome.n_found is None and not outcome.verdict


def test_sequence_must_stay_in_cone():
    cfg = CSeqProbeConfig.default(R2Elem, horizon=50)
    with pytest.raises(MemberOutsideCone):
        is_c_sequence(lambda n: R2Elem(-1.0, 0.0), cfg)


def test_indexable_sequence_accepted():
    # a list is judged through its __getitem__; the judge takes callables only
    horizon = 100
    entries = [zero(R2Elem)] + [R2Elem(1.0 / n, 1.0 / n) for n in range(1, horizon + 1)]
    cfg = CSeqProbeConfig(probes=(R2Elem(0.05, 0.05),), horizon=horizon)
    report = is_c_sequence(entries.__getitem__, cfg)
    assert report.passed
    assert report.outcomes[0].n_found == 21
    with pytest.raises(TypeError, match="not callable"):
        is_c_sequence(entries, cfg)


def test_larger_probes_are_cleared_no_later():
    rng = np.random.default_rng(4)
    cfg_scales = rng.uniform(0.005, 0.9, size=(50, 2))
    for s1, s2 in cfg_scales:
        small = min(float(s1), float(s2))
        big = max(float(s1), float(s2))
        cfg = CSeqProbeConfig(
            probes=(R2Elem(small, small), R2Elem(big, big)), horizon=1200
        )
        report = is_c_sequence(lambda n: R2Elem(1.0 / n, 1.0 / n), cfg)
        n_small, n_big = (o.n_found for o in report.outcomes)
        assert n_big <= n_small


def test_sum_of_small_sequences_clears_doubled_probes():
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=4000)
    seq1 = lambda n: UT2Elem(1.0 / n, 2.0 / n)
    seq2 = lambda n: UT2Elem(1.0 / (n + 3), 1.0 / n)
    rep1 = is_c_sequence(seq1, cfg)
    rep2 = is_c_sequence(seq2, cfg)
    assert rep1.passed and rep2.passed
    doubled = CSeqProbeConfig(
        probes=tuple(scale(2.0, c) for c in cfg.probes), horizon=cfg.horizon
    )
    rep_sum = is_c_sequence(lambda n: seq1(n) + seq2(n), doubled)
    assert rep_sum.passed
    for o1, o2, o_sum in zip(rep1.outcomes, rep2.outcomes, rep_sum.outcomes):
        assert o_sum.n_found <= max(o1.n_found, o2.n_found)


def test_powers_of_contractive_cone_element_are_small():
    horizon = 2000
    for k in (R2Elem(0.8, 0.3), UT2Elem(0.7, 2.0)):
        powers = [None, k]
        for _ in range(horizon - 1):
            powers.append(mul(powers[-1], k))
        cfg = CSeqProbeConfig.default(type(k), horizon=horizon)
        assert is_c_sequence(powers.__getitem__, cfg).passed


# ------------------------------------------------- judge against an oracle


def _reference_judge(seq, cfg):
    """The scalar judge: one cone_compare per entry and probe."""
    entries = []
    for n in range(cfg.start, cfg.horizon + 1):
        v = seq(n)
        if not in_cone(v):
            raise MemberOutsideCone(f"entry at index {n} left the cone: {v!r}")
        entries.append(v)
    outcomes = []
    for c in cfg.probes:
        last_fail = None
        for pos, v in enumerate(entries):
            if not cone_compare(v, c).way_below:
                last_fail = cfg.start + pos
        if last_fail is None:
            n_found, verdict = 0, True
        elif last_fail <= cfg.horizon - cfg.tail_required:
            n_found, verdict = last_fail + 1, True
        else:
            n_found, verdict = None, False
        outcomes.append(ProbeOutcome((c.first, c.second), n_found, verdict))
    return CSeqProbeReport(tuple(outcomes), all(o.verdict for o in outcomes))


_TINY = 5e-324
_PROBE_COORDS = (1.0, 0.1, 1e-3, 3.0, 1e-300, _TINY, 2.0 ** -1022, math.inf)


def _near(values):
    """Each value with its neighbours one ulp down and up."""
    out = set()
    for x in values:
        out.update((x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)))
    return out


@st.composite
def _judge_cases(draw):
    kind = draw(st.sampled_from((R2Elem, UT2Elem)))
    probes = tuple(
        kind.of(draw(st.sampled_from(_PROBE_COORDS)), draw(st.sampled_from(_PROBE_COORDS)))
        for _ in range(draw(st.integers(1, 3)))
    )
    horizon = draw(st.integers(1, 40))
    tail_required = draw(st.integers(1, horizon))
    # shorter windows are refused, as
    # test_probe_config_refuses_a_window_shorter_than_the_tail checks
    start = draw(st.integers(0, horizon - tail_required + 1))
    cfg = CSeqProbeConfig(probes, horizon, tail_required, start)
    coords = ([p.first for p in probes], [p.second for p in probes])
    cand = [sorted(_near(cs)) + [0.0, -0.0, _TINY, math.inf] for cs in coords]
    # past the cut, entries sit below every probe, so tails can pass
    low = [[v for v in vs if v < min(cs)] for vs, cs in zip(cand, coords)]
    cut = draw(st.integers(0, horizon + 1))
    entries = [
        kind.of(
            draw(st.sampled_from(cand[0] if n < cut else low[0])),
            draw(st.sampled_from(cand[1] if n < cut else low[1])),
        )
        for n in range(horizon + 1)
    ]
    return entries.__getitem__, cfg


@settings(max_examples=400, deadline=None)
@given(_judge_cases())
def test_judge_matches_scalar_reference(case):
    seq, cfg = case
    assert is_c_sequence(seq, cfg) == _reference_judge(seq, cfg)


def test_judge_stops_at_first_entry_outside_cone():
    fetched = []

    def seq(n):
        fetched.append(n)
        return R2Elem(0.0, -1e-300) if n == 7 else zero(R2Elem)

    cfg = CSeqProbeConfig.default(R2Elem, horizon=50)
    with pytest.raises(MemberOutsideCone, match="index 7"):
        is_c_sequence(seq, cfg)
    assert fetched == list(range(1, 8))


def test_judge_rejects_nan_entries():
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=20)
    with pytest.raises(MemberOutsideCone, match="index 3"):
        is_c_sequence(lambda n: UT2Elem(math.nan if n == 3 else 0.0, 0.0), cfg)


def test_judge_rejects_other_kind_against_probes():
    cfg = CSeqProbeConfig.default(R2Elem, horizon=30)
    ut2 = lambda n: UT2Elem(1.0 / n, 1.0 / n)
    with pytest.raises(AlgebraMismatchError) as got:
        is_c_sequence(ut2, cfg)
    with pytest.raises(AlgebraMismatchError) as want:
        _reference_judge(ut2, cfg)
    assert str(got.value) == str(want.value)
    # one stray entry among the right kind is caught too
    mixed = lambda n: UT2Elem(0.0, 0.0) if n == 17 else R2Elem(0.0, 0.0)
    with pytest.raises(AlgebraMismatchError, match="cannot combine UT2Elem with R2Elem"):
        is_c_sequence(mixed, cfg)


# ------------------------------------------------ columnar sources of entries


def _columns_of(entries, kind, flaw):
    """A columnar source of the entries, faithful or spoilt as flaw says."""

    def fn(ns):
        vals = [entries[n] for n in ns.tolist()]
        a = np.array([v.first for v in vals], dtype=np.float64)
        b = np.array([v.second for v in vals], dtype=np.float64)
        if flaw == "raises":
            raise ZeroDivisionError("columnar source failed")
        if flaw == "divide":
            a = a + np.float64(1.0) / np.zeros(ns.shape)
        if flaw == "float32":
            a = a.astype(np.float32)
        if flaw == "short":
            b = b[:-1]
        if flaw == "one":
            b = b[:1]
        if flaw == "2d":
            a = a.reshape(1, -1)
        if flaw == "list":
            a = a.tolist()
        if flaw == "triple":
            return a, b, np.zeros(ns.shape, dtype=bool)
        return a, b

    return kind, fn


# flaws of the columns' form, each refused with TypeError whatever they hold
_FORM_FLAWS = ("float32", "short", "one", "2d", "list", "triple")


@settings(max_examples=400, deadline=None)
@given(_judge_cases(), st.sampled_from(("none", "kind", "raises", "divide") + _FORM_FLAWS),
       st.data())
def test_columnar_judge_matches_scalar_reference(case, flaw, data):
    # faithful columns are judged as the scalar judge judges their entries,
    # an entry out of the cone or NaN raising at the least such index;
    # columns of the wrong form are refused, and the source's own
    # exceptions propagate: nothing falls back to a scalar fetch
    seq, cfg = case
    kind = type(cfg.probes[0])
    entries = [seq(n) for n in range(cfg.horizon + 1)]
    # sometimes one entry the scalar judge must reject: out of the cone or NaN
    poison = data.draw(st.sampled_from((None, -1.0, math.nan, -1e-300)))
    if poison is not None:
        entries[data.draw(st.integers(0, cfg.horizon))] = kind.of(0.0, poison)
    if flaw == "kind":
        # entries of the other algebra, described faithfully by the source:
        # the judge must still refuse to compare them with the probes
        kind = UT2Elem if kind is R2Elem else R2Elem
        entries = [kind.of(v.first, v.second) for v in entries]
    got = _outcome(lambda: is_c_sequence(_columns_of(entries, kind, flaw), cfg))
    # a column cut to one entry is whole on a window of one index
    if flaw in ("none", "kind") or (flaw == "one" and cfg.start == cfg.horizon):
        assert got == _outcome(lambda: _reference_judge(entries.__getitem__, cfg))
    elif flaw == "raises":
        assert got == (ZeroDivisionError, "columnar source failed")
    elif flaw == "divide":
        assert got == (FloatingPointError, "divide by zero encountered in divide")
    else:
        assert got[0] is TypeError


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def test_columnar_judge_raises_at_the_least_lane_outside_the_cone():
    # a NaN lane at index 9 and a negative one at index 4: the judge raises
    # for index 4, as the scalar judge would, with its message
    cfg = CSeqProbeConfig.default(R2Elem, horizon=50)

    def fn(ns):
        first = np.where(ns == 9, np.nan, 0.0)
        return first, np.where(ns == 4, -0.5, 0.0)

    with pytest.raises(MemberOutsideCone) as got:
        is_c_sequence((R2Elem, fn), cfg)
    entries = [R2Elem(0.0, -0.5) if n == 4 else zero(R2Elem) for n in range(51)]
    with pytest.raises(MemberOutsideCone) as want:
        _reference_judge(entries.__getitem__, cfg)
    assert str(got.value) == str(want.value) == (
        "entry at index 4 left the cone: R2Elem(first=0.0, second=-0.5)")


def test_columnar_judge_lets_division_by_index_zero_raise():
    # fn runs with numpy's divide="raise": 1 / 0 at index 0 raises
    # FloatingPointError rather than judging an infinite entry, as the
    # scalar 1.0 / 0 raises ZeroDivisionError rather than return one
    cfg = CSeqProbeConfig((UT2Elem(0.5, 0.5),), horizon=20, start=0)
    with pytest.raises(FloatingPointError, match="divide by zero"):
        is_c_sequence((UT2Elem, lambda ns: (1.0 / ns, 1.0 / ns)), cfg)
    cfg = CSeqProbeConfig((UT2Elem(0.5, 0.5),), horizon=20, start=1)
    assert is_c_sequence((UT2Elem, lambda ns: (1.0 / ns, 1.0 / ns)), cfg).passed
