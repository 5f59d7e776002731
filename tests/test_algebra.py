"""Pair arithmetic, cone order, spectral radius, and Neumann series."""

import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from conefix.errors import AlgebraMismatchError, NotInvertibleHere

KINDS = (R2Elem, UT2Elem)


def test_add_literals():
    assert add(R2Elem(1.0, 2.0), R2Elem(3.0, 4.0)) == R2Elem(4.0, 6.0)
    assert add(UT2Elem(1.0, 1.0), UT2Elem(2.0, -1.0)) == UT2Elem(3.0, 0.0)
    u = R2Elem(0.25, -7.5)
    assert add(u, zero(R2Elem)) == u
    assert sub(add(u, R2Elem(3.0, 4.0)), R2Elem(3.0, 4.0)) == u


def test_mul_literals():
    assert mul(R2Elem(2.0, 3.0), R2Elem(4.0, 5.0)) == R2Elem(8.0, 22.0)
    u = UT2Elem(0.5, 1.0)
    assert mul(u, u) == UT2Elem(0.25, 1.0)
    for kind in KINDS:
        v = kind.of(-1.5, 0.75)
        assert mul(unit(kind), v) == v
        assert mul(v, unit(kind)) == v


def test_mul_matches_matrix_representation():
    """UT2 product must agree entrywise with the 2x2 matrix product."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        a1, b1, a2, b2 = rng.uniform(-4.0, 4.0, 4)
        got = mul(UT2Elem(float(a1), float(b1)), UT2Elem(float(a2), float(b2)))
        m = np.array([[a1, b1], [0.0, a1]]) @ np.array([[a2, b2], [0.0, a2]])
        # matmul may fuse the multiply-adds, so allow a couple of ulps
        assert got.first == pytest.approx(m[0, 0], rel=1e-14, abs=1e-14)
        assert got.second == pytest.approx(m[0, 1], rel=1e-14, abs=1e-14)
        assert m[1, 0] == 0.0 and m[1, 1] == m[0, 0]


def test_operator_sugar_matches_module_functions():
    x = R2Elem(2.0, -1.0)
    y = R2Elem(0.5, 3.0)
    assert x + y == add(x, y)
    assert x - y == sub(x, y)
    assert x * y == mul(x, y)
    assert -x == R2Elem(-2.0, 1.0)
    assert scale(2.0, x) == R2Elem(4.0, -2.0)


def test_norm_literals():
    assert norm(R2Elem(-3.0, 4.0)) == 7.0
    assert norm(UT2Elem(1.0, -2.0)) == 3.0
    for kind in KINDS:
        assert norm(zero(kind)) == 0.0
        assert norm(unit(kind)) == 1.0


def test_kind_mixing_rejected():
    with pytest.raises(AlgebraMismatchError):
        add(R2Elem(1.0, 0.0), UT2Elem(1.0, 0.0))
    with pytest.raises(AlgebraMismatchError):
        mul(UT2Elem(1.0, 0.0), R2Elem(1.0, 0.0))
    with pytest.raises(AlgebraMismatchError):
        cone_compare(R2Elem(0.0, 0.0), UT2Elem(1.0, 1.0))


def test_kinds_are_distinct_frozen_pairs():
    for kind in KINDS:
        x = kind(1.5, -2.0)
        assert (x.first, x.second) == (1.5, -2.0)
        assert kind.of(1.5, -2.0) == x and hash(kind.of(1.5, -2.0)) == hash(x)
        assert not hasattr(x, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.first = 0.0
    # equal coordinates do not make elements of different kinds equal
    assert R2Elem(1.0, 2.0) != UT2Elem(1.0, 2.0)
    assert len({R2Elem(1.0, 2.0), UT2Elem(1.0, 2.0)}) == 2
    with pytest.raises(AlgebraMismatchError, match="cannot combine UT2Elem with R2Elem"):
        UT2Elem(1.0, 0.0) - R2Elem(1.0, 0.0)


def test_norm_submultiplicative():
    rng = np.random.default_rng(11)
    for kind in KINDS:
        draws = rng.uniform(-5.0, 5.0, size=(2000, 4))
        for a1, b1, a2, b2 in draws:
            x = kind.of(float(a1), float(b1))
            y = kind.of(float(a2), float(b2))
            assert norm(mul(x, y)) <= norm(x) * norm(y) + 1e-12


def test_cone_axioms():
    rng = np.random.default_rng(12)
    for kind in KINDS:
        theta = zero(kind)
        assert in_cone(theta) and in_cone(unit(kind))
        mags = rng.uniform(0.0, 3.0, size=(2000, 6))
        for row in mags:
            p = kind.of(float(row[0]), float(row[1]))
            q = kind.of(float(row[2]), float(row[3]))
            # closed under nonnegative combinations and products
            assert in_cone(add(scale(float(row[4]), p), scale(float(row[5]), q)))
            assert in_cone(mul(p, q))
            # only theta sits in both P and -P
            if p != theta:
                assert not in_cone(-p)


def test_cone_compare_literals():
    out = cone_compare(R2Elem(1.0, 1.0), R2Elem(2.0, 3.0))
    assert out.le and out.lt and out.way_below
    out = cone_compare(R2Elem(0.0, 0.0), R2Elem(0.0, 5.0))
    assert out.le and out.lt and not out.way_below
    out = cone_compare(R2Elem(1.0, 0.0), R2Elem(0.0, 1.0))
    assert not out.le and not out.lt and not out.way_below
    # reflexive in the weak order only
    u = UT2Elem(2.0, 2.0)
    out = cone_compare(u, u)
    assert out.le and not out.lt and not out.way_below


def test_order_composition_both_directions():
    """le into way_below composes to way_below, in either order."""
    rng = np.random.default_rng(13)
    for kind in KINDS:
        base = rng.uniform(-3.0, 3.0, size=(2000, 2))
        bumps = rng.uniform(0.0, 2.0, size=(2000, 2))
        gaps = rng.uniform(0.001, 2.0, size=(2000, 2))
        for i in range(2000):
            u = kind.of(float(base[i, 0]), float(base[i, 1]))
            p = kind.of(float(bumps[i, 0]), float(bumps[i, 1]))
            g = kind.of(float(gaps[i, 0]), float(gaps[i, 1]))
            # u <= u + p << u + p + g
            v = add(u, p)
            w = add(v, g)
            assert cone_compare(u, v).le
            assert cone_compare(v, w).way_below
            assert cone_compare(u, w).way_below
            # u << u + g <= u + g + p
            v2 = add(u, g)
            w2 = add(v2, p)
            assert cone_compare(u, v2).way_below
            assert cone_compare(v2, w2).le
            assert cone_compare(u, w2).way_below


# ------------------------------------------------------- independent oracles


def _power_norm_radius(a: float, b: float, n_max: int) -> tuple[float, float]:
    """Spectral radius estimates of (a, b) from the norm sequence of powers.

    Returns (raw, fitted).  raw is the infimum of norm(k^n)^(1/n) over
    n <= n_max, an upper bound for the radius by Gelfand's formula.  fitted
    is a two-point fit of log norm(k^n) = n*log(rho) + log(1 + n*c), the
    growth law of these algebras, capped by raw.  Powers are renormalised
    at every step, so the running log never overflows or underflows.
    """
    nk = abs(a) + abs(b)
    if nk == 0.0:
        return 0.0, 0.0
    if n_max == 1:
        return nk, nk
    ka, kb = a / nk, b / nk
    pa, pb = ka, kb
    log_nk = math.log(nk)
    lam = 0.0
    u = [log_nk]  # u[n-1] = log(norm(k^n)) / n
    for n in range(2, n_max + 1):
        pa, pb = pa * ka, pa * kb + pb * ka
        m = abs(pa) + abs(pb)
        if m == 0.0:
            return 0.0, 0.0  # an exact zero power: nilpotent element
        lam += math.log(m)
        pa, pb = pa / m, pb / m
        u.append(log_nk + lam / n)
    raw = math.exp(min(u))
    n1 = n_max // 2
    n2 = 2 * n1
    du = u[n1 - 1] - u[n2 - 1]
    if du <= 0.0:
        return raw, min(raw, math.exp(u[n2 - 1]))
    # with n2 = 2*n1 the fit equation is quadratic in c; take the positive root
    big = 2.0 * n1 * du
    if big > 350.0:
        return raw, raw
    delta = math.expm1(big)
    c = (delta + math.sqrt(delta * delta + delta)) / n1
    return raw, min(raw, math.exp(u[n2 - 1] - math.log1p(n2 * c) / n2))


def _partial_sum(a, b, terms: int):
    """sum(k^i for i < terms) for k = (a, b), in the number type of a and b:
    floats give the series as a float loop would sum it, Fractions exactly."""
    s1 = s2 = p2 = 0
    p1 = 1
    for _ in range(terms):
        s1, s2 = s1 + p1, s2 + p2
        p1, p2 = p1 * a, p1 * b + p2 * a
    return s1, s2


def _exact_inverse(k) -> tuple[Fraction, Fraction]:
    a, b = Fraction(k.first), Fraction(k.second)
    return 1 / (1 - a), b / (1 - a) ** 2


def test_spectral_radius_literals():
    assert spectral_radius(R2Elem(0.5, 7.3)) == 0.5
    assert spectral_radius(UT2Elem(-0.3, 100.0)) == 0.3
    assert spectral_radius(unit(R2Elem)) == 1.0
    assert spectral_radius(unit(UT2Elem)) == 1.0
    # nilpotent: the square is exactly zero
    assert spectral_radius(R2Elem(0.0, 3.0)) == 0.0
    assert spectral_radius(zero(UT2Elem)) == 0.0


def test_spectral_radius_tracks_first_coordinate():
    rng = np.random.default_rng(14)
    for kind in KINDS:
        a = rng.uniform(-2.0, 2.0, 300)
        b = rng.uniform(-5.0, 5.0, 300)
        for i in range(300):
            av, bv = float(a[i]), float(b[i])
            rho = spectral_radius(kind.of(av, bv))
            assert rho == abs(av)
            raw, fitted = _power_norm_radius(av, bv, 128)
            assert abs(fitted - rho) <= 1e-3
            # Gelfand: every norm(k^n)^(1/n) is at least the radius
            assert raw >= rho * (1.0 - 1e-12)
    assert _power_norm_radius(0.0, 3.0, 128) == (0.0, 0.0)


def test_neumann_literals():
    # exact values stay exact: rounding upward only moves an inexact value
    assert neumann_inverse_e_minus(R2Elem(0.5, 1.0)) == R2Elem(2.0, 4.0)
    # e - (0.5, 1) is (0.5, -1); its product with (2, 4) is exactly the unit
    assert mul(R2Elem(0.5, -1.0), R2Elem(2.0, 4.0)) == R2Elem(1.0, 0.0)
    for kind in KINDS:
        assert neumann_inverse_e_minus(zero(kind)) == unit(kind)
    assert neumann_inverse_e_minus(UT2Elem(0.5, 0.0)) == UT2Elem(2.0, 0.0)
    assert neumann_inverse_e_minus(UT2Elem(0.75, -3.0)) == UT2Elem(4.0, -48.0)


def test_neumann_matches_closed_form():
    """The closed form against the series itself: with |a| <= 0.9 and
    |b| <= 3 the terms past 600 are below 1e-15."""
    rng = np.random.default_rng(15)
    for kind in KINDS:
        a = rng.uniform(-0.9, 0.9, 300)
        b = rng.uniform(-3.0, 3.0, 300)
        for i in range(300):
            av, bv = float(a[i]), float(b[i])
            inv = neumann_inverse_e_minus(kind.of(av, bv))
            s1, s2 = _partial_sum(av, bv, 600)
            assert abs(inv.first - s1) < 1e-9
            assert abs(inv.second - s2) < 1e-9


def test_neumann_dominates_exact_partial_sums_in_the_cone():
    rng = np.random.default_rng(17)
    for kind in KINDS:
        for a, b in rng.uniform(0.0, [0.99, 3.0], size=(40, 2)):
            k = kind.of(float(a), float(b))
            inv = neumann_inverse_e_minus(k)
            assert in_cone(inv)
            for terms in (1, 2, 10, 60):
                s1, s2 = _partial_sum(Fraction(k.first), Fraction(k.second), terms)
                assert s1 <= Fraction(inv.first) and s2 <= Fraction(inv.second)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    a=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    b=st.floats(-1e6, 1e6),
)
def test_neumann_is_the_least_float_above_the_exact_inverse(kind, a, b):
    inv = neumann_inverse_e_minus(kind.of(a, b))
    for got, exact in zip((inv.first, inv.second), _exact_inverse(kind.of(a, b))):
        assert Fraction(got) >= exact
        assert Fraction(math.nextafter(got, -math.inf)) < exact


def test_neumann_rounds_overflow_outward():
    assert neumann_inverse_e_minus(R2Elem(0.5, 1e308)) == R2Elem(2.0, math.inf)
    assert neumann_inverse_e_minus(R2Elem(0.5, -1e308)) == R2Elem(2.0, -sys.float_info.max)


def test_neumann_residual_and_cone_membership():
    rng = np.random.default_rng(16)
    tail_tol = 1e-12
    for kind in KINDS:
        a = rng.uniform(0.0, 0.9, 300)
        b = rng.uniform(0.0, 3.0, 300)
        for i in range(300):
            k = kind.of(float(a[i]), float(b[i]))
            inv = neumann_inverse_e_minus(k)
            resid = sub(mul(sub(unit(kind), k), inv), unit(kind))
            assert norm(resid) < 10.0 * tail_tol
            # k in P with radius below 1 gives an inverse in P
            assert in_cone(inv)


def test_neumann_rejects_radius_at_or_above_one():
    with pytest.raises(NotInvertibleHere):
        neumann_inverse_e_minus(unit(R2Elem))
    with pytest.raises(NotInvertibleHere):
        neumann_inverse_e_minus(UT2Elem(1.2, 0.0))
    with pytest.raises(NotInvertibleHere):
        neumann_inverse_e_minus(R2Elem(-1.0, 0.0))
    for bad in ((math.nan, 0.0), (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(NotInvertibleHere):
            neumann_inverse_e_minus(R2Elem(*bad))
