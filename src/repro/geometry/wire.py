"""Occluding wire geometry.

The differential-aperture wire is a polished platinum cylinder (~50 µm
diameter at 34-ID) whose axis is parallel to the detector columns (+x in our
convention).  Only the projection of the wire into the (y, z) plane matters
for occlusion: a circle of radius ``radius`` centred at ``(y, z)``.

``WireEdge`` selects which tangent of the pixel→wire-circle pencil is used:
the *leading* edge is the tangent on the +z side (the edge that first starts
occluding rays from shallow depths as the wire advances), the *trailing* edge
the one on the -z side.  The paper passes the same choice around as the
``wire_edge`` integer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.validation import ValidationError, ensure_positive

__all__ = ["Wire", "WireEdge"]


class WireEdge(enum.IntEnum):
    """Which tangent edge of the wire a ray grazes.

    The integer values (+1 / -1) are used directly as the sign of the
    ``Dphi`` tangent-angle offset in the depth mapping, mirroring the
    ``wire_edge`` parameter of the paper's kernels.
    """

    LEADING = 1
    TRAILING = -1


@dataclass(frozen=True)
class Wire:
    """The occluding wire.

    Parameters
    ----------
    radius:
        Wire radius in micrometres (default 26 µm, i.e. a 52 µm Pt wire).
    axis:
        Wire axis direction; must be (anti)parallel to +x for the canonical
        geometry used by the fast kernels.
    """

    radius: float = 26.0
    axis: Tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self):
        ensure_positive(self.radius, "radius")
        axis = np.asarray(self.axis, dtype=np.float64)
        if axis.shape != (3,):
            raise ValidationError("wire axis must be a 3-vector")
        n = np.linalg.norm(axis)
        if n == 0:
            raise ValidationError("wire axis must be non-zero")
        axis = axis / n
        if not (abs(abs(axis[0]) - 1.0) < 1e-9):
            raise ValidationError(
                "only wires with axis along x are supported by the canonical geometry"
            )

    # ------------------------------------------------------------------ #
    def occludes(
        self,
        source_yz: np.ndarray,
        pixel_yz: np.ndarray,
        center_yz: np.ndarray,
    ) -> np.ndarray:
        """Whether the wire blocks the ray from *source* to *pixel*.

        All inputs are (…, 2) arrays of (y, z) coordinates that broadcast
        against each other.  A ray is blocked when the wire circle intersects
        the open segment between source and pixel.

        This is the geometric ground truth the synthetic forward model uses;
        the reconstruction never calls it (it uses the tangent-depth mapping
        instead), which makes round-trip tests meaningful.
        """
        source_yz = np.asarray(source_yz, dtype=np.float64)
        pixel_yz = np.asarray(pixel_yz, dtype=np.float64)
        center_yz = np.asarray(center_yz, dtype=np.float64)

        sy, sz = source_yz[..., 0], source_yz[..., 1]
        py, pz = pixel_yz[..., 0], pixel_yz[..., 1]
        cy, cz = center_yz[..., 0], center_yz[..., 1]

        dy = py - sy
        dz = pz - sz
        seg_len_sq = dy * dy + dz * dz
        # parameter of the closest point on the segment to the wire centre
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(seg_len_sq > 0, ((cy - sy) * dy + (cz - sz) * dz) / seg_len_sq, 0.0)
        t = np.clip(t, 0.0, 1.0)
        closest_y = sy + t * dy
        closest_z = sz + t * dz
        dist_sq = (closest_y - cy) ** 2 + (closest_z - cz) ** 2
        return dist_sq < self.radius * self.radius
