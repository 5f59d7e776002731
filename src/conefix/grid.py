"""Anchored trapezoid integration of samples on a uniform grid."""

from __future__ import annotations

import numpy as np

from .errors import EmptyGrid

__all__ = ["cumulative_trapezoid_from"]


def cumulative_trapezoid_from(
    values: np.ndarray, spacing: float, anchor_index: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Trapezoid prefix integrals measured from the node at anchor_index.

    Entry i approximates the integral of the sampled function from the
    anchor node to node i; entries left of the anchor come out negative
    automatically because the prefix difference flips sign.  A 2-D array
    is integrated row by row, each row in the same IEEE operations as a
    1-D call on it, so the results agree bit for bit.

    The result is written into out when it is given, a float64 array of
    values' shape that shares no memory with values, and out is returned;
    otherwise into a new array.  A C-contiguous 2-D block written into a
    C-contiguous out is summed and scaled as one flat run when the caller
    already ignores overflow and invalid operations: the sums that straddle
    two rows land in column 0, which is then set to 0.0, so only their
    floating-point warnings, which such a caller does not hear, differ from
    a row-by-row pass.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] < 2:
        raise EmptyGrid("need at least two samples to integrate")
    if not 0 <= anchor_index < values.shape[-1]:
        raise ValueError("anchor_index outside the grid")
    if out is None:
        out = np.empty(values.shape)
    elif not (isinstance(out, np.ndarray) and out.shape == values.shape
              and out.dtype == np.float64):
        raise ValueError(f"out must be a float64 array of shape {values.shape}")
    elif np.shares_memory(out, values):
        raise ValueError("out must not share memory with values")
    scale = 0.5 * spacing
    errors = np.geterr()
    if (values.ndim == 2 and values.flags.c_contiguous and out.flags.c_contiguous
            and errors["over"] == errors["invalid"] == "ignore"):
        flat, run = values.reshape(-1), out.reshape(-1)[1:]
        np.add(flat[:-1], flat[1:], out=run)
        run *= scale
    else:
        np.add(values[..., :-1], values[..., 1:], out=out[..., 1:])
        out[..., 1:] *= scale
    out[..., 0] = 0.0
    np.cumsum(out[..., 1:], axis=-1, out=out[..., 1:])
    # the anchor column copied first: a view of out would make numpy copy
    # all of out to resolve the overlap
    out -= out[..., anchor_index, None].copy()
    return out
