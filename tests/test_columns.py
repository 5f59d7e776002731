"""Columnar sequence sources: the checkers and harness probes that hand the
probe judge whole float64 columns must report exactly what is reported
without them, and raise what is raised: for a checker, by the same family
whose members take one index only, judged index by index; for a harness,
by the same harness with every member solved by picard_solve."""

import operator
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conefix.algebra import R2Elem, UT2Elem
from conefix import fixed_point, scenarios
from conefix.errors import PointOutsideCarrier, WitnessOutsideDomain
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


# scenario families: (factory, space, start, witness, lane witness)
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


def _producers(space, start, witness, lane_witness, points, cfg, lanes):
    """Every columnar producer, as name -> call on a family."""
    rows = (1, 2, 3, 10, 100)
    calls = {
        "uniform premise": lambda fam: check_uniform_convergence(fam, space, cfg, grid_count=64),
        "pointwise premise": lambda fam: check_pointwise_convergence(fam, space, points, cfg),
        "property G": lambda fam: property_g_check(
            fam, space, witness, cfg, points, lane_witness=lane_witness if lanes else None),
        "uniform probe": lambda fam: uniform_limit_harness(fam, space, cfg, rows, start),
        "pointwise probe": lambda fam: pointwise_limit_harness(fam, space, cfg, rows, start),
    }
    if not isinstance(space, PlaneR2Space):
        calls["subdomain probe"] = lambda fam: subdomain_limit_harness(
            fam, space, cfg, rows, start, x_inf=0.0, witness=lambda n: 1.0)
    return calls


def _scalar_twin(family: MapFamily) -> MapFamily:
    """family with members that refuse an index column: it has no lane form,
    so the checkers judge it index by index."""
    members = family._members
    return MapFamily(lambda n: members(operator.index(n)), family.limit,
                     family.coefficient_bound, family.adversarial)


# the producers whose members are solved: their reference is picard_solve
_HARNESS_PRODUCERS = ("uniform probe", "pointwise probe", "subdomain probe")


def _assert_producers_match(make, space, start, witness, lane_witness, points, cfg):
    with_lanes = _producers(space, start, witness, lane_witness, points, cfg, True)
    without = _producers(space, start, witness, lane_witness, points, cfg, False)
    for producer in with_lanes:
        got = _outcome(lambda: with_lanes[producer](make()))
        if producer in _HARNESS_PRODUCERS:
            with picard_members():
                want = _outcome(lambda: with_lanes[producer](make()))
        else:
            want = _outcome(lambda: without[producer](_scalar_twin(make())))
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
    # send the judge back to the scalar fetch and its exception, and member
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


_CHECKER_CALLS = {
    "pointwise": lambda fam, space, cfg: check_pointwise_convergence(
        fam, space, [0.6, 0.3], cfg),
    "uniform": lambda fam, space, cfg: check_uniform_convergence(
        fam, space, cfg, grid_count=9),
    "property G": lambda fam, space, cfg: property_g_check(
        fam, space, lambda x: (lambda n: x), cfg, [0.6, 0.3],
        lane_witness=lambda x: (lambda ns: np.full(ns.shape, x))),
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
    family = _faulty_family(case, k)
    for checked in (_scalar_twin(family), family):
        with pytest.raises(raised) as info:
            _CHECKER_CALLS[checker](checked, space, cfg)
        caught.append((type(info.value), str(info.value)))
    assert caught[0] == caught[1]
    if case == "domain":
        assert f"index {k}" in caught[0][1]
    # the lanes, not a failed build, meet every fault but the construction
    built = _outcome(lambda: family._members(np.arange(1, 31)))
    assert (type(built) is tuple) is (case == "construction")


def test_premises_make_no_scalar_distance_call(monkeypatch):
    def refuse(self, x, y):
        raise AssertionError("scalar distance call")

    monkeypatch.setattr(IntervalUT2Space, "distance", refuse)
    space = IntervalUT2Space(2.0)
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=10_000)
    uniform = _FAMILIES["thm_2_9"][0]()
    assert check_uniform_convergence(uniform, space, cfg, grid_count=128).passed
    pointwise = _FAMILIES["thm_2_10"][0]()
    assert check_pointwise_convergence(pointwise, space, [0.0, 0.3, 1.0], cfg).passed
    _, _, _, witness, lane_witness = _FAMILIES["thm_3_6"]
    report = property_g_check(_subinterval_family(), space, witness, cfg, [0.0, 0.4, 1.0],
                              lane_witness=lane_witness)
    assert report.passed


def _judge_from_columns_only(monkeypatch) -> list:
    """Patch the probe judge of the scenario and fixed point modules to
    demand a columnar source and refuse the scalar fetch; returns the list
    the horizon of each judge call is appended to."""
    real = fixed_point.is_c_sequence
    calls = []

    def columns_only(seq, cfg, columns=None):
        assert columns is not None

        def refuse(n):
            raise AssertionError(f"scalar fetch at index {n}")

        calls.append(cfg.horizon)
        return real(refuse, cfg, columns)

    for module in (scenarios, fixed_point):
        monkeypatch.setattr(module, "is_c_sequence", columns_only)
    return calls


def test_scenario_premises_and_probes_are_judged_from_columns(monkeypatch):
    # a silent fall back to the scalar fetch would keep every payload and
    # lose the speed: every judge call in the fixed point module must get a
    # columnar source that is used, with a scalar fetch that refuses
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
    assert got == check_uniform_convergence(_scalar_twin(family), space, cfg, grid_count=33)
    assert not got.passed


def test_points_that_are_not_floats_take_the_scalar_path():
    # a Decimal point: the scalar distance raises TypeError, and the lanes,
    # which would read it as a float, must not judge it
    space = IntervalUT2Space(2.0)
    cfg = CSeqProbeConfig.default(UT2Elem, horizon=100)

    def identity_limit() -> MapFamily:
        family = _FAMILIES["thm_2_9"][0]()
        family.limit = PlainMap(lambda x: x)
        return family

    outcomes = [
        _outcome(lambda: property_g_check(
            identity_limit(), space, lambda x: (lambda n: 0.5), cfg, [Decimal("0.5")],
            lane_witness=lane_witness))
        for lane_witness in (None, lambda x: (lambda ns: np.full(ns.shape, 0.5)))
    ]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] is TypeError


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
    # at the benchmark's horizons, every judge call reports with its columns
    # exactly what it reports from the scalar fetch
    real = fixed_point.is_c_sequence
    compared = []

    def both(seq, cfg, columns=None):
        report = real(seq, cfg, columns)
        assert report == real(seq, cfg)
        compared.append(cfg.horizon)
        return report

    for module in (scenarios, fixed_point):
        monkeypatch.setattr(module, "is_c_sequence", both)
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


# (member map, array-safe, adversarial)
_ADVERSARIAL_CASES = {
    "witness outside the domain at index 7": (
        _bump_step, lambda n: [1.0] if n == 7 else [_BUMP_C]),
    "adversarial raises": (_bump_step, _refuse_index_5),
    "0, 1 or 2 witnesses per index": (
        _bump_step, lambda n: [_BUMP_C, 0.7][: n % 3]),
    "witnesses from a generator": (
        _bump_step, lambda n: (p for p in [_BUMP_C])),
    "NaN image at the witness": (_nan_at_bump, lambda n: [_BUMP_C]),
}


def _uniform_adversarial(case: str, lanes: bool):
    """check_uniform_convergence on the family of an adversarial case."""
    step, adversarial = _ADVERSARIAL_CASES[case]
    family = MapFamily(
        lambda n: PlainMap(lambda x: step(n, x), HALF_OPEN),
        PlainMap(lambda x: 0.5 * x, HALF_OPEN),
        adversarial=adversarial,
    )
    if not lanes:
        family = _scalar_twin(family)
    cfg = CSeqProbeConfig(probes=(UT2Elem(0.1, 0.1),), horizon=200)
    return check_uniform_convergence(family, IntervalUT2Space(1.0), cfg, grid_count=33)


@pytest.mark.parametrize("case", sorted(_ADVERSARIAL_CASES))
def test_uniform_check_with_adversarial_lanes_matches_the_scalar_sup(case):
    got, want = (_outcome(lambda: _uniform_adversarial(case, lanes)) for lanes in (True, False))
    assert got == want


def test_uniform_check_folds_varying_witness_counts_into_its_lanes(monkeypatch):
    # the lanes must carry the witnesses themselves, not hand the family
    # back to the scalar sup
    case = "0, 1 or 2 witnesses per index"
    want = _uniform_adversarial(case, False)
    assert not want.passed
    calls = _judge_from_columns_only(monkeypatch)
    assert _uniform_adversarial(case, True) == want
    assert calls == [200]
