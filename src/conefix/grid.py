"""Uniform-grid function values and anchored trapezoid integration."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyGrid

__all__ = ["GridFunction", "cumulative_trapezoid_from"]

# relative spacing jitter tolerated before a grid is rejected as non-uniform
_SPACING_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Float samples of a function on a uniform, strictly increasing grid.

    Arrays are copied on construction and marked read-only so instances can
    be shared freely.  Equality is identity (use same_grid plus an explicit
    value comparison when content matters).  Arithmetic between grid
    functions demands identical node arrays; silently resampling would hide
    discretisation bugs.
    """

    nodes: np.ndarray
    values: np.ndarray
    spacing: float = field(init=False)

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float).copy()
        values = np.asarray(self.values, dtype=float).copy()
        if nodes.ndim != 1 or nodes.size < 2:
            raise EmptyGrid("grid needs at least two nodes")
        if values.shape != nodes.shape:
            raise ValueError("values shape must match nodes shape")
        gaps = np.diff(nodes)
        if not np.all(gaps > 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        h = float(gaps[0])
        if np.any(np.abs(gaps - h) > _SPACING_RTOL * max(abs(h), 1.0)):
            raise ValueError("grid spacing must be uniform")
        nodes.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "spacing", h)

    @classmethod
    def from_callable(cls, lo: float, hi: float, count: int, fn) -> "GridFunction":
        nodes = np.linspace(lo, hi, count)
        return cls(nodes, np.asarray(fn(nodes), dtype=float))

    @classmethod
    def constant(cls, lo: float, hi: float, count: int, value: float) -> "GridFunction":
        nodes = np.linspace(lo, hi, count)
        return cls(nodes, np.full(count, float(value)))

    def same_grid(self, other: "GridFunction") -> bool:
        return self.nodes.shape == other.nodes.shape and bool(
            np.array_equal(self.nodes, other.nodes)
        )

    def _require_same_grid(self, other: "GridFunction") -> None:
        if not self.same_grid(other):
            raise ValueError("grid functions live on different grids")

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._require_same_grid(other)
        return GridFunction(self.nodes, self.values - other.values)


def cumulative_trapezoid_from(
    values: np.ndarray, spacing: float, anchor_index: int
) -> np.ndarray:
    """Trapezoid prefix integrals measured from the node at anchor_index.

    Entry i approximates the integral of the sampled function from the
    anchor node to node i; entries left of the anchor come out negative
    automatically because the prefix difference flips sign.  A 2-D array
    is integrated row by row, each row in the same IEEE operations as a
    1-D call on it, so the results agree bit for bit.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] < 2:
        raise EmptyGrid("need at least two samples to integrate")
    if not 0 <= anchor_index < values.shape[-1]:
        raise ValueError("anchor_index outside the grid")
    prefix = np.empty_like(values)
    prefix[..., 0] = 0.0
    np.cumsum((values[..., :-1] + values[..., 1:]) * (0.5 * spacing), axis=-1,
              out=prefix[..., 1:])
    return prefix - prefix[..., anchor_index, None]
