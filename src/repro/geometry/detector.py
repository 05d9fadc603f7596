"""Area detector geometry.

The detector is a regular grid of pixels on a plane above the sample.  In the
canonical configuration the plane is parallel to the x-z plane at height
``y = distance``; detector *columns* run along +x (parallel to the wire axis)
and detector *rows* run along +z (parallel to the beam), so every detector
row sees a distinct (y, z) occlusion geometry while all pixels of a row share
it.  This is the configuration the paper's row-chunked streaming exploits,
and the only one modelled: a tilted mount would give each pixel its own
occlusion geometry, which a row-at-a-time reconstruction cannot use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.validation import ValidationError, ensure_positive

__all__ = ["Detector"]


@dataclass(frozen=True)
class Detector:
    """Pixelated area detector.

    Parameters
    ----------
    n_rows, n_cols:
        Number of pixel rows (along +z) and columns (along +x).
    pixel_size:
        Pixel pitch (same for both axes), in micrometres.
    distance:
        Height of the detector plane above the beam (y coordinate), in
        micrometres.
    center:
        Lab (x, z) coordinates of the geometric centre of the pixel grid.
    """

    n_rows: int = 256
    n_cols: int = 256
    pixel_size: float = 200.0
    distance: float = 510_000.0
    center: Tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if int(self.n_rows) <= 0 or int(self.n_cols) <= 0:
            raise ValidationError("detector must have positive n_rows and n_cols")
        object.__setattr__(self, "n_rows", int(self.n_rows))
        object.__setattr__(self, "n_cols", int(self.n_cols))
        ensure_positive(self.pixel_size, "pixel_size")
        ensure_positive(self.distance, "distance")

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return (self.n_rows, self.n_cols)

    # ------------------------------------------------------------------ #
    def pixel_positions(self, rows=None, cols=None) -> np.ndarray:
        """Lab coordinates of pixel centres.

        Parameters
        ----------
        rows, cols:
            Optional 1-D index arrays.  When omitted, the full grid is used.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(len(rows), len(cols), 3)`` with lab xyz of each
            requested pixel centre.
        """
        rows = np.arange(self.n_rows) if rows is None else np.atleast_1d(np.asarray(rows))
        cols = np.arange(self.n_cols) if cols is None else np.atleast_1d(np.asarray(cols))
        self._check_indices(rows, self.n_rows, "row")
        self._check_indices(cols, self.n_cols, "col")

        cx, cz = self.center
        x = cx + (cols - (self.n_cols - 1) / 2.0) * self.pixel_size
        z = cz + (rows - (self.n_rows - 1) / 2.0) * self.pixel_size
        xx = np.broadcast_to(x[None, :], (rows.size, cols.size))
        zz = np.broadcast_to(z[:, None], (rows.size, cols.size))
        yy = np.full_like(xx, self.distance, dtype=np.float64)
        return np.stack([xx, yy, zz], axis=-1).astype(np.float64)

    def row_yz(self, rows=None) -> np.ndarray:
        """(y, z) coordinates of pixel rows in the occlusion plane.

        All pixels of a row share the same (y, z); this is what the fast
        reconstruction kernels use.  Shape ``(len(rows), 2)``.
        """
        rows = np.arange(self.n_rows) if rows is None else np.atleast_1d(np.asarray(rows))
        self._check_indices(rows, self.n_rows, "row")
        cz = self.center[1]
        z = cz + (rows - (self.n_rows - 1) / 2.0) * self.pixel_size
        y = np.full_like(z, self.distance, dtype=np.float64)
        return np.stack([y, z], axis=-1)

    def row_edges_yz(self, rows=None) -> Tuple[np.ndarray, np.ndarray]:
        """(y, z) of the leading/trailing edges of each pixel row.

        The paper's kernel uses the *edges* of each pixel (``front_edge`` /
        ``back_edge``) rather than its centre so that the trapezoid response
        accounts for the finite pixel size.  For the canonical detector the
        edges differ from the centre only in z by half a pixel pitch.

        Returns
        -------
        (back_edges, front_edges):
            Two arrays of shape ``(len(rows), 2)`` holding (y, z); the back
            edge is the -z side, the front edge the +z side.
        """
        centres = self.row_yz(rows)
        half = self.pixel_size / 2.0
        back = centres.copy()
        back[:, 1] -= half
        front = centres.copy()
        front[:, 1] += half
        return back, front

    # ------------------------------------------------------------------ #
    def row_window(self, start: int, stop: int) -> "Detector":
        """Detector restricted to rows ``start:stop`` at the same lab position.

        The windowed detector's centre is shifted so that its pixels coincide
        exactly with rows ``start:stop`` of this detector — the geometry the
        row-chunk streaming and windowed file reads rely on.
        """
        if not (0 <= start < stop <= self.n_rows):
            raise ValidationError(f"invalid row window [{start}, {stop}) for {self.n_rows} rows")
        return Detector(
            n_rows=stop - start,
            n_cols=self.n_cols,
            pixel_size=self.pixel_size,
            distance=self.distance,
            center=(
                self.center[0],
                self.center[1]
                + ((start + stop - 1) / 2.0 - (self.n_rows - 1) / 2.0) * self.pixel_size,
            ),
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_indices(indices: np.ndarray, bound: int, name: str) -> None:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= bound):
            raise ValidationError(
                f"{name} indices out of range [0, {bound}): "
                f"min {indices.min()}, max {indices.max()}"
            )
