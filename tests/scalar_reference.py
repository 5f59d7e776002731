"""The reference the convergence checkers are tested against: each checker's
sequences defined index by index, from the family's members built one
index at a time, and judged by the probe judge's scalar fetch.

Each function returns the report the checker it is named after returns,
or raises what the checker's sequences raise at their first failing index:
the checkers must agree with it bit for bit, in type and message.
"""

import numpy as np

from conefix.errors import WitnessOutsideDomain
from conefix.fixed_point import (
    ApproxPropertyReport,
    PointwiseReport,
    UniformReport,
    dense_sample,
)
from conefix.spaces import is_c_sequence


def scalar_sup(family, space, domain, points, n):
    """The componentwise max of d(T_n x, T x) over points and the family's
    adversarial points for n, NaN where a distance is NaN; each
    adversarial point must lie in domain."""
    extra = list(family.adversarial(n)) if family.adversarial is not None else []
    for p in extra:
        if not domain.contains(p):
            raise WitnessOutsideDomain(f"adversarial point {p!r} at index {n} is outside the domain")
    member_map, limit_map = family.member(n).map, family.limit.map
    values = [space.distance(member_map(x), limit_map(x)) for x in points + extra]
    # np.max, unlike Python's max, keeps a NaN wherever it stands
    return space.kind.of(float(np.max([v.first for v in values])),
                         float(np.max([v.second for v in values])))


def pointwise_reference(family, space, points, cfg) -> PointwiseReport:
    """check_pointwise_convergence: n -> d(T_n x, T x) at each point x."""
    reports = []
    for x in points:
        fx = family.limit.map(x)
        reports.append(is_c_sequence(
            lambda n, x=x, fx=fx: space.distance(family.member(n).map(x), fx), cfg))
    return PointwiseReport(tuple(reports), all(r.passed for r in reports))


def uniform_reference(family, space, cfg, grid_count) -> UniformReport:
    """check_uniform_convergence: n -> scalar_sup over the dense grid."""
    domain = family.limit.domain if family.limit.domain is not None else space.carrier
    points = dense_sample(domain, grid_count)
    report = is_c_sequence(lambda n: scalar_sup(family, space, domain, points, n), cfg)
    return UniformReport(report, len(points), report.passed)


def property_g_reference(family, space, witness, cfg, points) -> ApproxPropertyReport:
    """property_g_check, with witness(x) the sequence n -> x_n on one index
    at a time: n -> d(x_n, x) and n -> d(T_n x_n, T x) at each point x,
    each x_n tested against its member domain first."""
    reports = []
    for x in points:
        seq = witness(x)

        def inside(n, seq=seq):
            y = seq(n)
            domain = family.member(n).domain
            if domain is not None and not domain.contains(y):
                raise WitnessOutsideDomain(
                    f"witness at index {n} is outside the member domain: {y!r}")
            return y

        fx = family.limit.map(x)
        dist = is_c_sequence(lambda n, x=x: space.distance(inside(n), x), cfg)
        image = is_c_sequence(
            lambda n, fx=fx: space.distance(family.member(n).map(inside(n)), fx), cfg)
        reports.append((dist, image))
    return ApproxPropertyReport(tuple(reports), all(a.passed and b.passed for a, b in reports))
