"""The trapezoidal depth-response function.

A detector pixel has finite extent, so the differential intensity measured
between two adjacent wire positions does not originate from a single depth
but from a small depth interval with a trapezoidal sensitivity profile.  The
four corner depths are the critical depths of the four (pixel edge, wire
position) combinations — exactly the ``partial_start`` / ``partial_end`` /
``full_start`` / ``full_end`` values the paper's ``setTwo`` kernel computes
before calling ``device_depth_resolve_pixel`` and
``device_get_trapezoid_height``.

The measured difference is distributed over the depth grid proportionally to
the overlap of the trapezoid with each depth bin, normalised by the total
trapezoid area so that intensity is conserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.depth_grid import DepthGrid
from repro.utils.validation import ValidationError

__all__ = [
    "Trapezoid",
    "MIN_TRAPEZOID_AREA",
    "trapezoid_from_depths",
    "trapezoid_height",
    "trapezoid_area",
    "trapezoid_overlap",
    "trapezoid_bin_overlaps",
]

#: Trapezoids with less area than this are treated as degenerate and deposit
#: nothing: dividing overlaps by a near-zero area amplifies floating-point
#: noise into arbitrarily large weights.  Physical responses have areas on the
#: pixel-size scale (micrometres), many orders of magnitude above this cutoff.
#: The per-run trapezoid table (:func:`repro.core.kernels._trapezoid_table`)
#: applies it once, marking degenerate pairs inactive for every kernel.
MIN_TRAPEZOID_AREA = 1e-9


@dataclass(frozen=True)
class Trapezoid:
    """A unit-height trapezoid on the depth axis.

    ``d1 <= d2 <= d3 <= d4``: the response ramps linearly from 0 at ``d1`` to
    1 at ``d2``, stays at 1 until ``d3`` and ramps back to 0 at ``d4``.
    Degenerate cases (triangle, box, zero width) are all representable.
    """

    d1: float
    d2: float
    d3: float
    d4: float

    def __post_init__(self):
        if not (self.d1 <= self.d2 <= self.d3 <= self.d4):
            raise ValidationError(
                f"trapezoid corners must be ordered, got {(self.d1, self.d2, self.d3, self.d4)}"
            )

    @property
    def area(self) -> float:
        """Integral of the unit-height trapezoid over depth."""
        return ((self.d4 - self.d1) + (self.d3 - self.d2)) / 2.0

    @property
    def support(self) -> Tuple[float, float]:
        """``(d1, d4)`` — the depth interval with non-zero response."""
        return (self.d1, self.d4)

    def height(self, depth: float) -> float:
        """Response height at *depth* (0 outside the support, 1 on the plateau)."""
        return trapezoid_height(depth, self.d1, self.d2, self.d3, self.d4)


def trapezoid_from_depths(
    partial_start: float, partial_end: float, full_start: float, full_end: float
) -> Trapezoid:
    """Build the response trapezoid from the four kernel depths.

    The four critical depths are computed from the two pixel edges and the
    two wire positions of a scan step; their sorted order gives the ramp-up,
    plateau and ramp-down breakpoints.  Sorting (rather than assuming an
    order) makes the construction robust to either scan direction and either
    wire edge, which is also what the original code effectively does by
    distinguishing "front edge trailing or back edge trailing" cases.
    """
    values = [float(partial_start), float(partial_end), float(full_start), float(full_end)]
    if any(math.isnan(v) for v in values):
        raise ValidationError("trapezoid corner depths must be finite (got NaN)")
    d1, d2, d3, d4 = sorted(values)
    return Trapezoid(d1, d2, d3, d4)


def trapezoid_height(depth, d1, d2, d3, d4):
    """Unit-height trapezoid evaluated at *depth* (vectorised).

    The direct analogue of ``device_get_trapezoid_height``.
    """
    depth = np.asarray(depth, dtype=np.float64)
    d1 = np.asarray(d1, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    d3 = np.asarray(d3, dtype=np.float64)
    d4 = np.asarray(d4, dtype=np.float64)

    with np.errstate(invalid="ignore", divide="ignore"):
        rising = np.where(d2 > d1, (depth - d1) / (d2 - d1), 1.0)
        falling = np.where(d4 > d3, (d4 - depth) / (d4 - d3), 1.0)
    height = np.minimum(np.minimum(rising, falling), 1.0)
    height = np.where((depth < d1) | (depth > d4), 0.0, height)
    return np.clip(height, 0.0, 1.0)


def trapezoid_area(d1, d2, d3, d4):
    """Area under the unit-height trapezoid (vectorised)."""
    d1 = np.asarray(d1, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    d3 = np.asarray(d3, dtype=np.float64)
    d4 = np.asarray(d4, dtype=np.float64)
    return ((d4 - d1) + (d3 - d2)) / 2.0


def _cumulative_integral(x, d1, d2, d3, d4):
    """∫_{-inf}^{x} h(t) dt for the unit-height trapezoid, vectorised.

    ``x`` broadcasts against the corner arrays.
    """
    x = np.asarray(x, dtype=np.float64)
    d1 = np.asarray(d1, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    d3 = np.asarray(d3, dtype=np.float64)
    d4 = np.asarray(d4, dtype=np.float64)

    with np.errstate(invalid="ignore", divide="ignore"):
        # contribution of the rising ramp on [d1, d2]
        xr = np.clip(x, d1, d2)
        rise_width = d2 - d1
        rise = np.where(rise_width > 0, 0.5 * (xr - d1) ** 2 / rise_width, 0.0)
        # contribution of the plateau on [d2, d3]
        xp = np.clip(x, d2, d3)
        plateau = xp - d2
        # contribution of the falling ramp on [d3, d4]
        xf = np.clip(x, d3, d4)
        fall_width = d4 - d3
        fall = np.where(
            fall_width > 0,
            0.5 * fall_width - 0.5 * (d4 - xf) ** 2 / fall_width,
            0.0,
        )
    # Each piece is clipped to its own segment, so below d1 every term is 0
    # and above d4 the sum equals the full trapezoid area.
    return rise + plateau + fall


def trapezoid_overlap(lo, hi, d1, d2, d3, d4):
    """Exact integral of the unit-height trapezoid over ``[lo, hi]`` (vectorised).

    Scalar inputs give a scalar float; this is the single-interval primitive
    the per-thread kernel body uses so that the scalar and vectorised kernels
    agree to machine precision.
    """
    return np.asarray(
        _cumulative_integral(hi, d1, d2, d3, d4) - _cumulative_integral(lo, d1, d2, d3, d4)
    )


def trapezoid_bin_overlaps(
    grid: DepthGrid,
    d1,
    d2,
    d3,
    d4,
) -> np.ndarray:
    """Overlap integral of unit-height trapezoids with every grid bin.

    Parameters
    ----------
    grid:
        The depth grid.
    d1, d2, d3, d4:
        Corner-depth arrays of shape ``(n,)`` (one trapezoid per element;
        scalars are promoted).

    Returns
    -------
    numpy.ndarray
        Array of shape ``(n, grid.n_bins)`` with
        ``out[i, k] = ∫_bin_k h_i(t) dt``.
    """
    d1 = np.atleast_1d(np.asarray(d1, dtype=np.float64))
    d2 = np.atleast_1d(np.asarray(d2, dtype=np.float64))
    d3 = np.atleast_1d(np.asarray(d3, dtype=np.float64))
    d4 = np.atleast_1d(np.asarray(d4, dtype=np.float64))
    edges = grid.edges  # (n_bins + 1,)
    cumulative = _cumulative_integral(
        edges[None, :], d1[:, None], d2[:, None], d3[:, None], d4[:, None]
    )
    return np.diff(cumulative, axis=1)
