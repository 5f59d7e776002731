"""Columnar sequence sources: the checkers and harness probes hand the probe
judge whole float64 columns from the family's lane form, and must report
exactly what their sequences, defined index by index, report, and raise
what those raise at the first failing index: for a checker, its scalar
reference in scalar_reference.py; for a harness, the same harness with
every member solved by picard_solve."""

import math
import operator
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conefix.algebra import R2Elem, UT2Elem
from conefix import fixed_point, scenarios
from conefix.errors import MemberOutsideCone, PointOutsideCarrier, WitnessOutsideDomain
from conefix.fixed_point import (
    ContractionMap,
    MapFamily,
    PlainMap,
    check_pointwise_convergence,
    check_uniform_convergence,
    dense_sample,
    pointwise_limit_harness,
    property_g_check,
    subdomain_limit_harness,
    uniform_limit_harness,
)
from conefix.scenarios import (
    ScenarioConfig,
    _interval_ut2_family,
    _power_family,
    _subinterval_family,
    _system_family,
    run_scenario,
)
from picard_reference import picard_members
from scalar_reference import pointwise_reference, property_g_reference, uniform_reference
from conefix.spaces import (
    BoxDomain,
    CSeqProbeConfig,
    IntervalDomain,
    IntervalUT2Space,
    PlaneR2Space,
)

UNIT_INTERVAL = IntervalDomain(0.0, 1.0)
GOLDEN_DIR = Path(__file__).parent / "golden"


def _where(cond, a, b):
    """np.where, with a Python float where every operand is a scalar, so
    that a member written with it is a plain member on one index and its
    own lane form on an index column."""
    out = np.where(cond, a, b)
    return out.item() if out.ndim == 0 else out


def _outcome(call):
    """The report a call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def _systems_family() -> MapFamily:
    # the thm_4_1 family as coupled_sequence_harness builds it
    members, limit = _system_family()
    return MapFamily(
        lambda n: members(n).as_contraction(), limit.as_contraction(),
        coefficient_bound=R2Elem(0.5, 0.0),
    )


# scenario families: (factory, space, start, witness on one index, the same
# witness on an index column)
_FAMILIES = {
    "thm_2_9": (
        lambda: _interval_ut2_family(lambda n: 1.0 / (n + 2.0), lambda n: 0.5),
        IntervalUT2Space(2.0), 0.0,
        lambda x: (lambda n: x + (0.5 - x) / n),
        lambda x: (lambda ns: x + (0.5 - x) / ns),
    ),
    "thm_2_10": (
        lambda: _interval_ut2_family(
            lambda n: 1.0 / (n + 2.0), lambda n: 0.5 - 1.0 / (n + 3.0),
            coefficient_bound=UT2Elem(0.5, 0.0),
        ),
        IntervalUT2Space(2.0), 0.0,
        lambda x: (lambda n: x + (0.5 - x) / n),
        lambda x: (lambda ns: x + (0.5 - x) / ns),
    ),
    "thm_3_6": (
        _subinterval_family, IntervalUT2Space(2.0), 1.0,
        lambda x: (lambda n: max(x, 1.0 / n)),
        lambda x: (lambda ns: np.maximum(x, 1.0 / ns)),
    ),
    "thm_4_1": (
        _systems_family, PlaneR2Space(), (0.0, 0.0),
        lambda p: (lambda n: (p[0] + 1.0 / n, p[1] - 1.0 / n)),
        lambda p: (lambda ns: (p[0] + 1.0 / ns, p[1] - 1.0 / ns)),
    ),
}


def _producers(space, start, witness, lane_witness, points, cfg):
    """Every columnar producer, as name -> (call on a family, the call of
    its reference on a family, or None for a harness, whose reference is
    the same call with members solved by picard_solve)."""
    rows = (1, 2, 3, 10, 100)
    calls = {
        "uniform premise": (
            lambda fam: check_uniform_convergence(fam, space, cfg, grid_count=64),
            lambda fam: uniform_reference(fam, space, cfg, 64)),
        "pointwise premise": (
            lambda fam: check_pointwise_convergence(fam, space, points, cfg),
            lambda fam: pointwise_reference(fam, space, points, cfg)),
        "property G": (
            lambda fam: property_g_check(fam, space, lane_witness, cfg, points),
            lambda fam: property_g_reference(fam, space, witness, cfg, points)),
        "uniform probe": (
            lambda fam: uniform_limit_harness(fam, space, cfg, rows, start), None),
        "pointwise probe": (
            lambda fam: pointwise_limit_harness(fam, space, cfg, rows, start), None),
    }
    if not isinstance(space, PlaneR2Space):
        calls["subdomain probe"] = (lambda fam: subdomain_limit_harness(
            fam, space, cfg, rows, start, x_inf=0.0, witness=lambda n: 1.0), None)
    return calls


def _scalar_twin(family: MapFamily) -> MapFamily:
    """family with members that refuse an index column: it has no lane form."""
    members = family._members
    return MapFamily(lambda n: members(operator.index(n)), family.limit,
                     family.coefficient_bound, family.adversarial)


def _assert_producers_match(make, space, start, witness, lane_witness, points, cfg):
    for producer, (call, reference) in _producers(
            space, start, witness, lane_witness, points, cfg).items():
        got = _outcome(lambda: call(make()))
        if reference is None:
            with picard_members():
                want = _outcome(lambda: call(make()))
        else:
            want = _outcome(lambda: reference(make()))
        assert got == want, producer


@pytest.mark.parametrize("name", sorted(_FAMILIES))
def test_producers_match_the_scalar_family_on_scenario_families(name):
    make, space, start, witness, lane_witness = _FAMILIES[name]
    kind = space.kind
    cfg = CSeqProbeConfig.default(kind, horizon=2000)
    rng = np.random.default_rng(3)
    points = space.sample(rng, 3) + ([0.0, 1.0] if kind is UT2Elem else [(0.5, -0.5)])
    _assert_producers_match(make, space, start, witness, lane_witness, points, cfg)


@settings(max_examples=60, deadline=None)
@given(
    plane=st.booleans(),
    bounded=st.booleans(),
    rate=st.floats(0.01, 0.99),
    shift=st.floats(-1.0, 1.0),
    target=st.floats(-0.5, 1.5),
    horizon=st.integers(16, 60),
    seed=st.integers(0, 2**16),
)
def test_producers_match_the_scalar_family_on_random_affine_families(
    plane, bounded, rate, shift, target, horizon, seed
):
    # member n is x -> r_n x + shift / n; the draw covers images and
    # witnesses that leave the carrier or the member domain, which must
    # raise what the scalar reference raises at the same index, and member
    # solves that fail, which must raise what picard_solve raises
    r = lambda n: rate * (1.0 - 1.0 / (n + 1.0))
    if plane:
        step = lambda n, p: (r(n) * p[0] + shift / n, r(n) * p[1] - shift / n)
        kind, space, start = R2Elem, PlaneR2Space(), (0.25, 0.25)
        domain = BoxDomain((-1.0, -1.0), (1.0, 1.0)) if bounded else None
        witness = lambda p: (lambda n: (p[0] + (target - p[0]) / n, p[1]))
        lane_witness = lambda p: (
            lambda ns: (p[0] + (target - p[0]) / ns, np.full(ns.shape, p[1])))
    else:
        step = lambda n, x: r(n) * x + shift / n
        kind, space, start = UT2Elem, IntervalUT2Space(2.0), 0.25
        domain = IntervalDomain(0.0, 1.0, open_lo=True) if bounded else None
        witness = lambda x: (lambda n: x + (target - x) / n)
        lane_witness = lambda x: (lambda ns: x + (target - x) / ns)

    def make() -> MapFamily:
        return MapFamily(
            lambda n: ContractionMap(lambda x: step(n, x), kind.of(r(n), 0.0), domain),
            ContractionMap(lambda x: step(10**6, x), kind.of(rate, 0.0), domain),
            coefficient_bound=kind.of(rate, 0.0),
        )

    cfg = CSeqProbeConfig(tuple(kind.of(s, s) for s in (0.5, 0.05)), horizon=horizon)
    points = space.sample(np.random.default_rng(seed), 2)
    _assert_producers_match(make, space, start, witness, lane_witness, points, cfg)


def _faulty_family(case: str, k: int) -> MapFamily:
    """Halving members except member k, which cannot be built, maps out of
    the carrier, or lives on a domain the witness misses.  The members are
    array-safe, so every lane member but the one of "construction" builds,
    and the lanes meet the fault."""

    def members(n):
        hit = n == k
        rate = _where(hit, 1.5, 0.5) if case == "construction" else 0.5
        shift = _where(hit, 0.75, 0.125) if case == "carrier" else 0.125
        scale = _where(hit, 1.0, 0.5) if case == "carrier" else 0.5
        lo = _where(hit, 0.5, 0.0) if case == "domain" else 0.0
        return ContractionMap(lambda x: scale * x + shift, UT2Elem(rate, 0.0),
                              IntervalDomain(lo, 1.0))

    limit = ContractionMap(lambda x: 0.5 * x + 0.125, UT2Elem(0.5, 0.0), UNIT_INTERVAL)
    return MapFamily(members, limit)


# checker name -> (checker, its scalar reference), each on (family, space, cfg)
_CHECKER_CALLS = {
    "pointwise": (
        lambda fam, space, cfg: check_pointwise_convergence(fam, space, [0.6, 0.3], cfg),
        lambda fam, space, cfg: pointwise_reference(fam, space, [0.6, 0.3], cfg)),
    "uniform": (
        lambda fam, space, cfg: check_uniform_convergence(fam, space, cfg, grid_count=9),
        lambda fam, space, cfg: uniform_reference(fam, space, cfg, 9)),
    "property G": (
        lambda fam, space, cfg: property_g_check(
            fam, space, lambda x: (lambda ns: np.full(ns.shape, x)), cfg, [0.6, 0.3]),
        lambda fam, space, cfg: property_g_reference(
            fam, space, lambda x: (lambda n: x), cfg, [0.6, 0.3])),
}


@pytest.mark.parametrize("checker, case, raised", [
    # only property G tests witnesses against member domains
    ("property G", "domain", WitnessOutsideDomain),
    *((checker, "carrier", PointOutsideCarrier) for checker in sorted(_CHECKER_CALLS)),
    *((checker, "construction", ValueError) for checker in sorted(_CHECKER_CALLS)),
])
@pytest.mark.parametrize("k", [3, 7])
def test_columnar_checkers_raise_the_first_scalar_error(checker, case, raised, k):
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5),), horizon=30)
    caught = []
    for call in _CHECKER_CALLS[checker]:
        with pytest.raises(raised) as info:
            call(_faulty_family(case, k), space, cfg)
        caught.append((type(info.value), str(info.value)))
    assert caught[0] == caught[1]
    if case == "domain":
        assert f"index {k}" in caught[0][1]
    # the lanes, not a failed build, meet every fault but the construction
    built = _outcome(lambda: _faulty_family(case, k)._members(np.arange(1, 31)))
    assert (type(built) is tuple) is (case == "construction")


def _cone_and_carrier_family(nan_at: int, outside_at: int) -> MapFamily:
    """Plane maps against a limit at +inf in the first coordinate: member
    nan_at is at +inf too, so its gap is inf - inf, NaN, out of the cone;
    member outside_at maps above the carrier's second coordinate."""
    box = BoxDomain((0.0, 0.0), (1.0, 1.0))
    return MapFamily(
        lambda n: PlainMap(lambda p: (_where(n == nan_at, math.inf, 0.0 * p[0]),
                                      _where(n == outside_at, 2.0, 0.0 * p[1])), box),
        PlainMap(lambda p: (math.inf, 0.0), box),
    )


@pytest.mark.parametrize("checker", ["pointwise", "uniform"])
@pytest.mark.parametrize("nan_at, outside_at, raised", [
    (3, 7, MemberOutsideCone), (7, 3, PointOutsideCarrier)])
def test_a_lane_outside_the_cone_before_a_failing_lane_is_left_to_the_judge(
        checker, nan_at, outside_at, raised):
    # the scalar judge meets index 3 first, whichever way it fails there
    space = PlaneR2Space(hi=(math.inf, 1.0))
    cfg = CSeqProbeConfig(probes=(R2Elem(0.5, 0.5),), horizon=30)
    calls = {
        "pointwise": (check_pointwise_convergence, pointwise_reference),
        "uniform": (lambda fam, space, points, cfg: check_uniform_convergence(fam, space, cfg, 4),
                    lambda fam, space, points, cfg: uniform_reference(fam, space, cfg, 4)),
    }
    caught = []
    for call in calls[checker]:
        with pytest.raises(raised) as info:
            call(_cone_and_carrier_family(nan_at, outside_at), space, [(0.5, 0.25)], cfg)
        caught.append(str(info.value))
    assert caught[0] == caught[1]


@pytest.mark.parametrize("checker", sorted(_CHECKER_CALLS))
def test_checkers_refuse_a_family_without_a_lane_form(checker):
    # members that take one index only: a checker refuses them, as the
    # harnesses do, where it used to judge them index by index
    space = IntervalUT2Space(1.0)
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.5, 0.5),), horizon=30)
    family = _scalar_twin(_faulty_family("none", 0))
    with pytest.raises(TypeError, match="integer scalar arrays"):
        _CHECKER_CALLS[checker][0](family, space, cfg)
    # a map that answers a column with one float is refused as well
    scalar_map = MapFamily(lambda n: PlainMap(lambda x: 0.5, UNIT_INTERVAL),
                           PlainMap(lambda x: 0.5, UNIT_INTERVAL))
    with pytest.raises(TypeError):
        _CHECKER_CALLS[checker][0](scalar_map, space, cfg)


def test_premises_make_no_scalar_distance_call(monkeypatch):
    # neither a scalar distance nor a member built for one index: the
    # checkers have no scalar sequence to fall back to
    def refuse(*args):
        raise AssertionError("scalar call")

    monkeypatch.setattr(IntervalUT2Space, "distance", refuse)
    monkeypatch.setattr(MapFamily, "member", refuse)
    space = IntervalUT2Space(2.0)
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=10_000)
    uniform = _FAMILIES["thm_2_9"][0]()
    assert check_uniform_convergence(uniform, space, cfg, grid_count=128).passed
    pointwise = _FAMILIES["thm_2_10"][0]()
    assert check_pointwise_convergence(pointwise, space, [0.0, 0.3, 1.0], cfg).passed
    lane_witness = _FAMILIES["thm_3_6"][4]
    report = property_g_check(_subinterval_family(), space, lane_witness, cfg, [0.0, 0.4, 1.0])
    assert report.passed


def _judge_from_columns_only(monkeypatch) -> list:
    """Patch the probe judge of the scenario and fixed point modules to
    demand a columnar source; returns the list the horizon of each judge
    call is appended to."""
    real = fixed_point.is_c_sequence
    calls = []

    def columns_only(seq, cfg):
        assert type(seq) is tuple, "a scalar sequence reached the judge"
        calls.append(cfg.horizon)
        return real(seq, cfg)

    for module in (scenarios, fixed_point):
        monkeypatch.setattr(module, "is_c_sequence", columns_only)
    return calls


def test_scenario_premises_and_probes_are_judged_from_columns(monkeypatch):
    # every judge call in the fixed point module must get a columnar source
    calls = _judge_from_columns_only(monkeypatch)
    for name in ("thm_2_9", "thm_2_10", "thm_3_6", "thm_4_1"):
        run = run_scenario(name)
        assert run.to_json().encode() == (GOLDEN_DIR / f"{name}.json").read_bytes()
    # thm_2_9: premise and probe; thm_2_10: ten premise points and the
    # probe; thm_3_6: two probes at six premise points and two harness
    # probes; thm_4_1: the probe
    assert len(calls) == 2 + 11 + 14 + 1


def test_uniform_check_keeps_adversarial_points_with_lanes():
    # a bump of height 1/4 centred off the dense grid: the grid sup decays
    # in n, but the adversarial point pins it, in the lanes as in the
    # scalar sup
    c = 0.3183098861837907
    step = lambda n, x: 0.5 * x + 0.25 / (1.0 + (n * n * n) * (x - c) * (x - c))

    family = MapFamily(
        lambda n: PlainMap(lambda x: step(n, x), UNIT_INTERVAL),
        PlainMap(lambda x: 0.5 * x, UNIT_INTERVAL),
        adversarial=lambda n: [c],
    )
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.1, 0.1),), horizon=200)
    space = IntervalUT2Space(1.0)
    got = check_uniform_convergence(family, space, cfg, grid_count=33)
    assert got == uniform_reference(family, space, cfg, 33)
    assert not got.passed


def test_points_that_are_not_floats_are_refused():
    # a Decimal point: the lanes, which would read it as a float, must not
    # judge it
    space = IntervalUT2Space(2.0)
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=100)
    family = _FAMILIES["thm_2_9"][0]()
    family.limit = PlainMap(lambda x: x)
    for check in (
        lambda: property_g_check(family, space, lambda x: (lambda ns: np.full(ns.shape, 0.5)),
                                 cfg, [Decimal("0.5")]),
        lambda: check_pointwise_convergence(family, space, [Decimal("0.5")], cfg),
    ):
        with pytest.raises(TypeError, match="lane points must be floats"):
            check()


@pytest.mark.parametrize("name, judge_calls", [
    # example_2_6: one probe per k; example_2_8: 14 pointwise premise
    # points and the uniform check
    ("example_2_6", 3),
    ("example_2_8", 14 + 1),
])
def test_long_horizon_probes_are_judged_from_columns(monkeypatch, name, judge_calls):
    calls = _judge_from_columns_only(monkeypatch)
    run = run_scenario(name)
    assert run.to_json().encode() == (GOLDEN_DIR / f"{name}.json").read_bytes()
    assert len(calls) == judge_calls


@pytest.mark.parametrize("name, horizon", [("example_2_6", 50_000), ("example_2_8", 20_000)])
def test_long_horizon_reports_equal_the_scalar_ones(monkeypatch, name, horizon):
    # at the benchmark's horizons, every judge call reports from its columns
    # exactly what the sequence, index by index, reports
    compared = []
    if name == "example_2_6":
        real = scenarios.is_c_sequence
        scales = iter((1.0, 2.0, 5.0))

        def both(seq, cfg):
            space = IntervalUT2Space(next(scales))
            report = real(seq, cfg)
            assert report == real(lambda n: space.distance(1.0 / n, 0.0), cfg)
            compared.append(cfg.horizon)
            return report

        monkeypatch.setattr(scenarios, "is_c_sequence", both)
    else:
        # (checker, its reference, the position of cfg in their arguments)
        for checker, reference, at in (
                ("check_pointwise_convergence", pointwise_reference, 3),
                ("check_uniform_convergence", uniform_reference, 2)):
            def both(*args, real=getattr(scenarios, checker), reference=reference, at=at,
                     **kwargs):
                report = real(*args, **kwargs)
                assert report == reference(*args, **kwargs)
                compared.append(args[at].horizon)
                return report

            monkeypatch.setattr(scenarios, checker, both)
    run_scenario(name, ScenarioConfig(horizon=horizon, seed=1_000_000_011))
    assert horizon in compared


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_power_lanes_match(family, ns, points):
    """The lane member's map on every (n, point) pair of ns x points against
    the member maps, bit for bit; returns the lane images."""
    lane_ns = np.repeat(ns, len(points))
    xs = np.tile([p[0] for p in points], ns.size)
    ys = np.tile([p[1] for p in points], ns.size)
    got = family._members(lane_ns).map((xs, ys))
    want = [family.member(n).map(p) for n in ns.tolist() for p in points]
    assert _bits(got[0]) == _bits([w[0] for w in want])
    assert _bits(got[1]) == _bits([w[1] for w in want])
    return got


def _underflows(images) -> tuple[bool, bool]:
    """Whether some lane image is subnormal and whether some is 0.0."""
    values = np.concatenate(images)
    tiny = np.finfo(np.float64).tiny
    return bool(((values > 0.0) & (values < tiny)).any()), bool((values == 0.0).any())


@pytest.mark.parametrize("seed", [0, 1_000_000_011])
def test_power_lanes_match_the_members_at_the_premise_points(seed):
    space, family = _power_family()
    points = space.sample(np.random.default_rng(seed), 12) + [(0.5, 0.5), (0.9, 0.9)]
    images = _assert_power_lanes_match(family, np.arange(1, 20_001), points)
    assert _underflows(images) == (True, True)


def test_power_lanes_match_the_members_on_the_grid_and_witness():
    space, family = _power_family()
    box = family.limit.domain
    ns = np.arange(1, 301)
    images = _assert_power_lanes_match(family, ns, dense_sample(box, 256))
    assert _underflows(images) == (True, True)
    for n in ns.tolist():
        _assert_power_lanes_match(family, np.array([n]), family.adversarial(n))


def _pythons_power(n, x, y):
    """(x ** (n * n), y ** n) with Python's own float ** int, or None where
    it overflows."""
    try:
        return x ** (n * n), y ** n
    except OverflowError:
        return None


def _assert_power_is_pythons(ns, xs, ys):
    """_power on the index column ns and coordinate columns xs, ys against
    Python's ** lane by lane, compared as int64 views so that the sign of a
    zero counts; a lane where ** overflows must raise on its own."""
    kept = []
    for n, x, y in zip(ns, xs, ys):
        want = _pythons_power(n, x, y)
        if want is None:
            with pytest.raises(OverflowError):
                scenarios._power(np.array([n]), (np.array([x]), np.array([y])))
        else:
            kept.append((n, x, y, *want))
    if not kept:
        return
    ns, xs, ys, firsts, seconds = map(list, zip(*kept))
    got = scenarios._power(np.array(ns, dtype=np.int64), (np.array(xs), np.array(ys)))
    assert got[0].view(np.int64).tolist() == np.array(firsts).view(np.int64).tolist()
    assert got[1].view(np.int64).tolist() == np.array(seconds).view(np.int64).tolist()


_POWER_BASES = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(1.0 - 1e-6, 1.0, exclude_max=True),
    st.floats(0.0, 1e-300, exclude_max=True),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, -0.5, -1.0 + 1e-9, 1.0 + 1e-9, 2.0,
                     float("nan"), float("inf"), float("-inf")]),
    st.floats(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 400_000_000), _POWER_BASES, _POWER_BASES),
                min_size=1, max_size=40))
def test_power_lanes_are_pythons_power(lanes):
    ns, xs, ys = zip(*lanes)
    _assert_power_is_pythons(ns, xs, ys)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 20_000])
def test_power_lanes_are_pythons_power_at_the_edges(n):
    # bases whose e * ln(x) straddles the skip rule's -800 and the true
    # underflow edge, -745.13, for the exponent e = n * n of the first
    # coordinate and e = n of the second
    def straddle(e):
        bases = []
        for t in (-800.0, -745.13, -744.44):
            x = float(np.exp(t / e))
            bases += [float(np.nextafter(x, k)) for k in (0.0, 1.0)] + [x]
            bases += [x * (1.0 - 1e-12), x * (1.0 + 1e-12)]
        return bases

    for firsts, seconds in ((straddle(n * n), [0.5]), ([0.5], straddle(n))):
        xs = firsts * len(seconds)
        ys = seconds * len(firsts)
        _assert_power_is_pythons([n] * len(xs), xs, ys)


def test_power_lanes_skip_pythons_power_where_it_underflows(monkeypatch):
    # at the benchmark's knobs most lanes are a proven +0.0: they must not
    # reach Python's **
    real = scenarios._pow_live
    lanes, live = [], []

    def counted(bases, exponents):
        mask = real(bases, exponents)
        lanes.append(mask.size)
        live.append(int(mask.sum()))
        return mask

    monkeypatch.setattr(scenarios, "_pow_live", counted)
    run_scenario("example_2_8", ScenarioConfig(horizon=20_000, grid_pts=256, seed=1_000_000_011))
    assert sum(lanes) == 721_910
    assert sum(live) <= 150_000


def test_power_member_of_a_numpy_index_is_the_python_one():
    # numpy's scalar power rounds differently from Python's: a numpy integer
    # index must give the member of the Python integer, with float values
    rng = np.random.default_rng(20)
    ns = rng.integers(1, 20_001, 2_000)
    points = list(zip(rng.random(ns.size).tolist(), rng.random(ns.size).tolist()))
    for n, p in zip(ns, points):
        got, want = scenarios._power(n, p), scenarios._power(int(n), p)
        assert [type(v) for v in got] == [float, float]
        assert _bits(got) == _bits(want)
    _, family = _power_family()
    n, p = np.int64(ns[0]), points[0]
    assert _bits(family.member(n).map(p)) == _bits(family.member(int(n)).map(p))


_BUMP_C = 0.3183098861837907
# the domain of the adversarial cases: 1.0 is on the carrier but off it
HALF_OPEN = IntervalDomain(0.0, 1.0, open_hi=True)


def _bump_step(n, x):
    return 0.5 * x + 0.25 / (1.0 + (n * n * n) * (x - _BUMP_C) * (x - _BUMP_C))


def _nan_at_bump(n, x):
    return _where(x == _BUMP_C, np.nan, 0.5 * x)


def _refuse_index_5(n):
    if n == 5:
        raise ValueError("no witness at index 5")
    return [_BUMP_C]


def _leave_at(k):
    """_bump_step, but member k maps the grid above the carrier."""
    return lambda n, x: _where(n == k, x + 2.0, _bump_step(n, x))


# (member map, adversarial)
_ADVERSARIAL_CASES = {
    # at one index the adversarial points come before the grid distances,
    # and an adversarial callable is not called past a failing index
    "grid outside the carrier at index 3, adversarial raises at 5": (
        _leave_at(3), _refuse_index_5),
    "grid outside the carrier and witness outside the domain at index 7": (
        _leave_at(7), lambda n: [1.0] if n == 7 else [_BUMP_C]),
    "witness outside the domain at index 7": (
        _bump_step, lambda n: [1.0] if n == 7 else [_BUMP_C]),
    "adversarial raises": (_bump_step, _refuse_index_5),
    "0, 1 or 2 witnesses per index": (
        _bump_step, lambda n: [_BUMP_C, 0.7][: n % 3]),
    "witnesses from a generator": (
        _bump_step, lambda n: (p for p in [_BUMP_C])),
    "NaN image at the witness": (_nan_at_bump, lambda n: [_BUMP_C]),
}


def _uniform_adversarial(case: str, check=check_uniform_convergence):
    """check_uniform_convergence, or its reference, on the family of an
    adversarial case."""
    step, adversarial = _ADVERSARIAL_CASES[case]
    family = MapFamily(
        lambda n: PlainMap(lambda x: step(n, x), HALF_OPEN),
        PlainMap(lambda x: 0.5 * x, HALF_OPEN),
        adversarial=adversarial,
    )
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.1, 0.1),), horizon=200)
    return check(family, IntervalUT2Space(1.0), cfg, 33)


@pytest.mark.parametrize("case", sorted(_ADVERSARIAL_CASES))
def test_uniform_check_with_adversarial_lanes_matches_the_scalar_sup(case):
    got = _outcome(lambda: _uniform_adversarial(case))
    assert got == _outcome(lambda: _uniform_adversarial(case, uniform_reference))


def test_uniform_check_folds_varying_witness_counts_into_its_lanes(monkeypatch):
    # the lanes must carry the witnesses themselves
    case = "0, 1 or 2 witnesses per index"
    want = _uniform_adversarial(case, uniform_reference)
    assert not want.passed
    calls = _judge_from_columns_only(monkeypatch)
    assert _uniform_adversarial(case) == want
    assert calls == [200]
