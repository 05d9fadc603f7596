"""The input data model: a stack of wire-scan detector images.

``WireScanStack`` bundles the intensity cube with the geometry needed to
reconstruct it (wire scan trajectory, detector, beam).  It mirrors what the
original pipeline reads from an HDF5 file: one detector image per wire
position plus positioner metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.geometry.beam import Beam
from repro.geometry.detector import Detector
from repro.geometry.scan import WireScan
from repro.utils.validation import ValidationError

__all__ = ["WireScanStack"]


@dataclass
class WireScanStack:
    """A wire-scan measurement: one detector image per wire position.

    Parameters
    ----------
    images:
        Intensity cube of shape ``(n_positions, n_rows, n_cols)``; the first
        axis follows the wire-scan order.
    scan:
        The wire scan trajectory (``scan.n_points`` must equal the first
        image axis).
    detector:
        Detector geometry (``detector.shape`` must match the image shape).
    beam:
        Incident beam; defines the depth axis.
    pixel_mask:
        Optional boolean mask of shape ``(n_rows, n_cols)``; ``False`` pixels
        are skipped by the reconstruction.  This is how the paper's
        "pixel percentage" experiments (Figs. 4 and 9) restrict the workload.
    metadata:
        Free-form metadata dictionary carried through the pipeline.
    """

    images: np.ndarray
    scan: WireScan
    detector: Detector
    beam: Beam = field(default_factory=Beam)
    pixel_mask: Optional[np.ndarray] = None
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self):
        self._diff_cache: Optional[np.ndarray] = None
        self.images = np.asarray(self.images, dtype=np.float64)
        if self.images.ndim != 3:
            raise ValidationError(
                f"images must have shape (n_positions, n_rows, n_cols), got {self.images.shape}"
            )
        n_pos, n_rows, n_cols = self.images.shape
        if n_pos != self.scan.n_points:
            raise ValidationError(
                f"images first axis ({n_pos}) must equal the number of wire positions "
                f"({self.scan.n_points})"
            )
        if (n_rows, n_cols) != self.detector.shape:
            raise ValidationError(
                f"image shape {(n_rows, n_cols)} does not match detector shape {self.detector.shape}"
            )
        if self.pixel_mask is not None:
            self.pixel_mask = np.asarray(self.pixel_mask, dtype=bool)
            if self.pixel_mask.shape != (n_rows, n_cols):
                raise ValidationError(
                    f"pixel_mask shape {self.pixel_mask.shape} does not match detector shape "
                    f"{self.detector.shape}"
                )

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int, int]:
        """``(n_positions, n_rows, n_cols)``."""
        return tuple(self.images.shape)

    @property
    def n_positions(self) -> int:
        """Number of wire positions (images)."""
        return self.images.shape[0]

    @property
    def n_steps(self) -> int:
        """Number of adjacent-image differences available."""
        return self.images.shape[0] - 1

    @property
    def n_rows(self) -> int:
        """Detector rows."""
        return self.images.shape[1]

    @property
    def n_cols(self) -> int:
        """Detector columns."""
        return self.images.shape[2]

    @property
    def nbytes(self) -> int:
        """Size of the intensity cube in bytes."""
        return int(self.images.nbytes)

    @property
    def active_pixel_fraction(self) -> float:
        """Fraction of pixels enabled by the mask (1.0 when no mask is set)."""
        if self.pixel_mask is None:
            return 1.0
        return float(np.count_nonzero(self.pixel_mask)) / self.pixel_mask.size

    # ------------------------------------------------------------------ #
    def effective_mask(self) -> np.ndarray:
        """Boolean mask of processed pixels (all-true when no mask is set)."""
        if self.pixel_mask is None:
            return np.ones((self.n_rows, self.n_cols), dtype=bool)
        return self.pixel_mask.copy()

    def differences(self, cached: bool = False) -> np.ndarray:
        """Adjacent-position intensity differences ``I[i] - I[i+1]``.

        Shape ``(n_steps, n_rows, n_cols)``.  This is the signal the depth
        reconstruction distributes into the depth histogram.

        With ``cached=True`` the cube is computed once and a read-only view
        of the memoised copy is returned — callers that only inspect it
        (active-element accounting, repeated backend comparisons) avoid
        recomputing the full cube, at the price of keeping it alive.
        """
        if not cached:
            return self.images[:-1] - self.images[1:]
        if self._diff_cache is None:
            diff = self.images[:-1] - self.images[1:]
            diff.setflags(write=False)
            self._diff_cache = diff
        return self._diff_cache

    def with_pixel_mask(self, mask: Optional[np.ndarray]) -> "WireScanStack":
        """Return a copy of this stack with a different pixel mask."""
        return WireScanStack(
            images=self.images,
            scan=self.scan,
            detector=self.detector,
            beam=self.beam,
            pixel_mask=mask,
            metadata=dict(self.metadata),
        )

    def row_slice(self, start: int, stop: int) -> "WireScanStack":
        """Return a stack restricted to detector rows ``start:stop``.

        Used by the row-chunk streaming backends to partition work.
        """
        if not (0 <= start < stop <= self.n_rows):
            raise ValidationError(f"invalid row slice [{start}, {stop}) for {self.n_rows} rows")
        sub_detector = self.detector.row_window(start, stop)
        return WireScanStack(
            images=self.images[:, start:stop, :],
            scan=self.scan,
            detector=sub_detector,
            beam=self.beam,
            pixel_mask=None if self.pixel_mask is None else self.pixel_mask[start:stop, :],
            metadata=dict(self.metadata),
        )
