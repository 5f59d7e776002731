"""Demonstrated soundness holes, kept as strict expected failures.

Each test states what the certificate promises and fails today because
the promise does not hold.  Mending a hole makes its test pass, which
strict xfail reports as a failure: the marker then has to go, so the fix
and its regression test land together.  Both fixes move bound or dist
columns of the golden payloads.
"""

from fractions import Fraction

import pytest

from conefix.algebra import R2Elem
from conefix.fixed_point import ContractionMap, picard_solve, verify_contraction
from conefix.scenarios import ScenarioConfig, run_scenario
from conefix.spaces import PlaneR2Space


@pytest.mark.xfail(strict=True, reason="the harness bounds make no allowance for the "
                   "solver's own tol; at tol 1e-6 only 10 of 16 rows hold")
def test_thm_4_1_rows_hold_at_a_coarse_tol():
    run = run_scenario("thm_4_1", ScenarioConfig(tol=1e-6))
    assert all(run.table.respected)
    assert run.verdict


@pytest.mark.xfail(strict=True, reason="picard_solve stops on the scalar tol*(1-r)/r, "
                   "which bounds the error only when the coefficient has b = 0")
def test_picard_solve_is_within_tol_of_the_exact_fixed_point():
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
