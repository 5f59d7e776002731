"""Checks of scenario payloads against values computed apart from the program.

Every expected value here comes from the scenario's mathematics, not from
the library: member fixed points in exact rationals, ODE solutions in
closed form.  Payload floats are turned into exact ``Fraction`` values
before any comparison, so a check never rounds in the program's favour.

Each ``check_*`` function returns a list of problems; an empty list means
the payload passed.  ``check_payload`` is the single entry point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction as F

from .workloads import Operation

__all__ = ["check_payload", "check_same_bytes", "ode_family_gap"]

EPS = 2.0 ** -52
# rounding allowance on a computed fixed point of size at most a few units:
# the last Picard step adds about one ulp of the point itself
ROUND = F(16 * EPS)
# the solver tolerance fixed_point_cluster_check uses by default, which is
# the tolerance thm_3_10's member fixed points are solved to
CLUSTER_SOLVER_TOL = F(1e-12)
MAX_PROBLEMS = 5

CSV_HEADER = "n,dist_c1,dist_c2,bound_c1,bound_c2,bound_respected"


@dataclass(frozen=True)
class Row:
    n: int
    dist: tuple[F, F]
    bound: tuple[F, F]
    respected: bool


def _row_from_json(r: dict) -> Row:
    return Row(int(r["n"]), (F(r["dist"][0]), F(r["dist"][1])),
               (F(r["bound"][0]), F(r["bound"][1])), r["bound_respected"])


def _row_from_csv(line: str) -> Row:
    n, d1, d2, b1, b2, ok = line.split(",")
    if ok not in ("true", "false"):
        raise ValueError(f"bad bound_respected field {ok!r}")
    return Row(int(n), (F(float(d1)), F(float(d2))), (F(float(b1)), F(float(b2))),
               ok == "true")


def parse_payload(op: Operation, seed: int, text: str) -> tuple[list[Row], list[str]]:
    """Rows of a payload, plus problems with its envelope (JSON only)."""
    if op.fmt == "csv":
        lines = text.split("\n")
        if lines[0] != CSV_HEADER or lines[-1] != "":
            return [], ["CSV header or trailing newline is wrong"]
        return [_row_from_csv(line) for line in lines[1:-1]], []
    doc = json.loads(text)
    problems = []
    if set(doc) != {"scenario", "anchor", "config", "rows", "verdict"}:
        problems.append(f"unexpected JSON keys {sorted(doc)}")
    if doc.get("scenario") != op.scenario:
        problems.append(f"scenario is {doc.get('scenario')!r}")
    expected_config = dict(op.knobs, seed=seed)
    if doc.get("config") != expected_config:
        problems.append(f"config {doc.get('config')} != requested {expected_config}")
    if doc.get("verdict") is not True:
        problems.append("verdict is not true")
    return [_row_from_json(r) for r in doc.get("rows", [])], problems


# ---------------------------------------------------------------------------
# shared row rules


def _indices(rows: list[Row], last: int) -> list[str]:
    ns = [r.n for r in rows]
    if not ns or ns[0] != 1 or ns[-1] != last or any(a >= b for a, b in zip(ns, ns[1:])):
        return [f"row indices should rise from 1 to {last}, got {ns[:3]}...{ns[-2:]}"]
    return []


def _flag(row: Row, strict: bool) -> list[str]:
    """bound_respected must equal the exact cone comparison of the row."""
    if strict:
        truth = all(d < b for d, b in zip(row.dist, row.bound))
    else:
        truth = all(d <= b for d, b in zip(row.dist, row.bound))
    if row.respected != truth:
        return [f"n={row.n}: bound_respected={row.respected} but exact comparison gives {truth}"]
    return []


def _certified(row: Row) -> list[str]:
    """A row that claims its bound: the flag is exact and says respected."""
    problems = _flag(row, strict=False)
    if not problems and not row.respected:
        problems.append(f"n={row.n}: row not respected")
    return problems


def _dominates(row: Row, exact) -> list[str]:
    if not all(b >= e for b, e in zip(row.bound, exact)):
        return [f"n={row.n}: bound {tuple(map(float, row.bound))} does not dominate "
                f"exact distance {tuple(map(float, exact))}"]
    return []


def _near_in_norm(row: Row, exact, allowed) -> list[str]:
    gap = sum(abs(d - e) for d, e in zip(row.dist, exact))
    if gap > allowed:
        return [f"n={row.n}: dist off the exact distance by {float(gap):.3e} "
                f"in norm, allowed {float(allowed):.3e}"]
    return []


def _near_each(row: Row, exact, allowed) -> list[str]:
    for d, e, a in zip(row.dist, exact, allowed):
        if abs(d - F(e)) > a:
            return [f"n={row.n}: dist {tuple(map(float, row.dist))} off the closed form "
                    f"{tuple(map(float, exact))} by more than {tuple(map(float, allowed))}"]
    return []


def _twice(row: Row) -> list[str]:
    if row.dist[1] != 2 * row.dist[0]:
        return [f"n={row.n}: UT2 second coordinate is not exactly twice the first"]
    return []


# ---------------------------------------------------------------------------
# fixed point families: limit fixed point 0 on IntervalUT2Space(2), so the
# exact distance of member n is (x_n, 2 x_n)


def _ut2_family(fixed_point):
    def check(op: Operation, rows: list[Row]) -> list[str]:
        allowed = F(op.knobs["tol"]) + ROUND
        problems = _indices(rows, min(op.knobs["horizon"], 1000))
        for row in rows:
            x = fixed_point(row.n)
            exact = (x, 2 * x)
            problems += _near_in_norm(row, exact, allowed) + _twice(row)
            problems += _dominates(row, exact) + _certified(row)
        return problems
    return check


def _check_thm_4_1(op: Operation, rows: list[Row]) -> list[str]:
    # members solve to (1/2 + 2/n, 1/4), the limit to (1/2, 1/4); both are
    # Picard solves, so the row carries two solver errors
    allowed = 2 * F(op.knobs["tol"]) + ROUND
    problems = _indices(rows, min(op.knobs["horizon"], 1000))
    for row in rows:
        exact = (F(2, row.n), F(0))
        problems += _near_in_norm(row, exact, allowed)
        problems += _dominates(row, exact) + _certified(row)
    return problems


def _check_thm_3_10(op: Operation, rows: list[Row]) -> list[str]:
    # settling members have fixed point 1/n and cluster at 0; the bound is
    # the cluster ball (10 tol, 10 tol), which early rows honestly exceed
    ball = F(10.0 * op.knobs["tol"])
    problems = _indices(rows, 400)
    for row in rows:
        exact = (F(1, row.n), F(2, row.n))
        problems += _near_in_norm(row, exact, CLUSTER_SOLVER_TOL + ROUND) + _twice(row)
        problems += _flag(row, strict=False)
        if row.bound != (ball, ball):
            problems.append(f"n={row.n}: bound is not the cluster ball")
    return problems


# ---------------------------------------------------------------------------
# probe examples


def _check_example_2_6(op: Operation, rows: list[Row]) -> list[str]:
    finest_probe = F(0.001)
    problems = _indices(rows, op.knobs["horizon"])
    for row in rows:
        nearest = F(1.0 / row.n)  # correctly rounded 1/n
        if row.dist != (nearest, nearest):
            problems.append(f"n={row.n}: dist is not exactly (1/n, 1/n)")
        if row.bound != (finest_probe, finest_probe):
            problems.append(f"n={row.n}: bound is not the finest probe")
        problems += _flag(row, strict=True)
    return problems


def _check_example_2_8(op: Operation, rows: list[Row]) -> list[str]:
    # the travelling witness (5^(-1/n^2), 3^(-1/n)) maps to (1/5, 1/3) under
    # member n; raising a rounded root to the n^2 power multiplies its
    # relative error by about n^2, which bounds the rounding slack
    pinned = (F(1.0 / 11.0), F(1.0 / 8.0))
    problems = _indices(rows, min(op.knobs["horizon"], 300))
    for row in rows:
        slack1 = F(2 * (row.n * row.n + 4) * EPS)
        slack2 = F(2 * (row.n + 4) * EPS)
        low = (F(1, 5) * (1 - slack1), F(1, 3) * (1 - slack2))
        if not (low[0] <= row.dist[0] <= 1 and low[1] <= row.dist[1] <= 1):
            problems.append(f"n={row.n}: sup {tuple(map(float, row.dist))} "
                            "is not pinned at or above (1/5, 1/3)")
        if row.bound != pinned:
            problems.append(f"n={row.n}: bound is not the pinned probe (1/11, 1/8)")
        problems += _flag(row, strict=True)
    return problems


# ---------------------------------------------------------------------------
# ODE pairs.  Both ODE scenarios measure in exp(-tau |x|) weighted sup norms
# on [-h, h].  From the problem data: the slopes are bounded on the box by
# |f| <= 2 (1 + 1/n) * 2 and |g| <= 2 * 2, the certificate inflates these by
# five per cent and takes h = min(x_radius, y_radius / max|slope|), and
# tau = 2 max(lip_f, lip_g, 1/2).  Member 1 and g give h = 1 / (1.05 * 4)
# and tau = 4 for ode_sequence; ode_linear's g gives the same.

ODE_H = 1.0 / (1.05 * 4.0)
ODE_TAU = 4.0
# relative quadrature allowance per unit of (mesh step)^2, fixed from the
# trapezoid rule's O(step^2) error; the worst measured value is 0.68
ODE_SEQUENCE_K = 1.0


def ode_family_gap(n: int) -> float:
    """sup over [-h, h] of |e^{-(1+1/n)x} - e^{-x}| e^{-tau|x|}, in closed form.

    The weighted gap is smooth on each side of 0, so its sup is at an end
    point, at 0 or at the one critical point of each side.
    """
    eps, h, tau = 1.0 / n, ODE_H, ODE_TAU

    def gap(x: float) -> float:
        if x >= 0.0:
            return math.exp(-(1.0 + tau) * x) * -math.expm1(-eps * x)
        return math.exp((tau - 1.0) * x) * math.expm1(-eps * x)

    candidates = [-h, 0.0, h]
    right = math.log((1.0 + eps + tau) / (1.0 + tau)) / eps
    if 0.0 < right < h:
        candidates.append(right)
    left = math.log((tau - 1.0) / (tau - 1.0 - eps)) / eps
    if 0.0 < left < h:
        candidates.append(-left)
    return max(gap(x) for x in candidates)


def _check_ode_sequence(op: Operation, rows: list[Row]) -> list[str]:
    tol = F(op.knobs["tol"])
    step = 2.0 * ODE_H / (op.knobs["grid_pts"] - 1)
    problems = _indices(rows, min(op.knobs["horizon"], 1000))
    for row in rows:
        exact = (ode_family_gap(row.n), 0.0)
        # two solver stops (member and limit) plus the quadrature error
        allowed = (2 * tol + F(ODE_SEQUENCE_K * step * step * exact[0]), 2 * tol)
        problems += _near_each(row, exact, allowed)
        problems += _dominates(row, tuple(map(F, exact))) + _certified(row)
    return problems


def _check_ode_linear(op: Operation, rows: list[Row]) -> list[str]:
    # y' = -y, z' = -2z from 1: sweep k adds (-x)^k / k! and (-2x)^k / k!,
    # whose weighted sups sit at |x| = h because k / tau > h for k >= 1
    step = 2.0 * ODE_H / (op.knobs["grid_pts"] - 1)
    if [r.n for r in rows] != list(range(1, len(rows) + 1)):
        return ["sweep rows are not numbered 1..k"]
    problems = []
    for row in rows:
        k = row.n
        weight = math.exp(-ODE_TAU * ODE_H) / math.factorial(k)
        exact = (ODE_H ** k * weight, (2.0 * ODE_H) ** k * weight)
        # the first two sweeps integrate polynomials of degree <= 1 exactly;
        # later ones carry trapezoid error growing like k^2 (step / h)^2
        rel = k * k * (step / ODE_H) ** 2
        allowed = tuple(F(rel * e + 16 * EPS) for e in exact)
        problems += _near_each(row, exact, allowed) + _certified(row)
    last = rows[-1] if rows else None
    if last is None or sum(last.dist) >= F(op.knobs["tol"]):
        problems.append("the last sweep gap is not below tol")
    return problems


CHECKS = {
    "thm_2_9": _ut2_family(lambda n: F(2, n + 2)),
    "thm_2_10": _ut2_family(lambda n: F(1, n + 2) / (F(1, 2) + F(1, n + 3))),
    "thm_3_6": _ut2_family(lambda n: F(1, n)),
    "thm_3_10": _check_thm_3_10,
    "thm_4_1": _check_thm_4_1,
    "example_2_6": _check_example_2_6,
    "example_2_8": _check_example_2_8,
    "ode_sequence": _check_ode_sequence,
    "ode_linear": _check_ode_linear,
}


def check_payload(op: Operation, seed: int, text: str) -> list[str]:
    """All problems found in one scenario payload, at most MAX_PROBLEMS."""
    try:
        rows, problems = parse_payload(op, seed, text)
    except (ValueError, KeyError, TypeError, IndexError, OverflowError) as exc:
        return [f"{op.label}: unreadable payload: {exc}"]
    problems += CHECKS[op.scenario](op, rows)
    return [f"{op.label}: {p}" for p in problems[:MAX_PROBLEMS]]


def check_same_bytes(op: Operation, reference: bytes, current: bytes) -> list[str]:
    """The determinism contract: one knob set gives one byte string."""
    if reference == current:
        return []
    where = next((i for i, (a, b) in enumerate(zip(reference, current)) if a != b),
                 min(len(reference), len(current)))
    return [f"{op.label}: payload bytes differ from the first pass at offset {where}"]
