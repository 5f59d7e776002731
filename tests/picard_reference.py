"""The reference the lane solvers are tested against: harness runs whose
members are solved one by one by picard_solve.

Within picard_members(), every fixed point harness takes its members from
a PicardStore instead of solving them on lanes.  The rest of each harness
(rows, bounds, probe) runs as it is, so a harness report, or the error it
raises, can be compared with the lane run bit for bit.
"""

import contextlib

import numpy as np
import pytest

from conefix import fixed_point
from conefix.fixed_point import picard_solve
from conefix.spaces import PlaneR2Space


class PicardStore:
    """What SolvedMembers holds, from picard_solve called per member; a
    member that fails raises at every read, as picard_solve raises."""

    def __init__(self, family, space, start, tol) -> None:
        self._solve = lambda n: picard_solve(family.member(n), space, start, tol)
        self._dim = 2 if isinstance(space, PlaneR2Space) else 1
        self._solved: dict = {}

    def __getitem__(self, n):
        if n not in self._solved:
            self._solved[n] = self._solve(n)
        return self._solved[n]

    def _points(self, ns):
        points = np.array([self[n].point for n in ns.tolist()], dtype=np.float64)
        return tuple(points.reshape(ns.size, self._dim).T)


@contextlib.contextmanager
def picard_members():
    """Within, the fixed point harnesses solve their members by picard_solve."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fixed_point, "_solve_members",
                   lambda family, space, start, tol, store, ns:
                   PicardStore(family, space, start, tol))
        yield


def outcome(call):
    """What call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)
