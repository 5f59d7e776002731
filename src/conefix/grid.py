"""Anchored trapezoid integration of samples on a uniform grid."""

from __future__ import annotations

import numpy as np

from .errors import EmptyGrid

__all__ = ["cumulative_trapezoid_from"]


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
