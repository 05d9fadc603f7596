"""The depth grid: discretisation of the beam path into depth bins.

Depth is measured along the incident beam from the beam origin: with the
canonical beam, along +z from the lab origin (the frame convention stated
in :mod:`repro.geometry`).  ``DepthGrid`` owns the ``[start, stop)`` range
and bin width and provides the index conversions:
:meth:`DepthGrid.index_to_depth` (bin index → depth at the bin centre, the
paper's ``device_index_to_beam_depth``) and its inverse
:meth:`DepthGrid.depth_to_index`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import ValidationError, _is_count, _is_real, ensure_positive

__all__ = ["DepthGrid"]


@dataclass(frozen=True)
class DepthGrid:
    """Uniform grid of depth bins along the beam.

    Parameters
    ----------
    start:
        Depth of the lower edge of the first bin (micrometres), a finite
        number.
    step:
        Bin width ``dDepth`` (micrometres), a finite positive number.
    n_bins:
        Number of depth bins, an integer >= 1 (``maxDepth`` index in the
        paper's kernel is ``n_bins - 1``).
    """

    start: float
    step: float
    n_bins: int

    def __post_init__(self):
        if not _is_real(self.start) or not math.isfinite(self.start):
            raise ValidationError(f"start must be a finite number, got {self.start!r}")
        ensure_positive(self.step, "step")
        if not _is_count(self.n_bins):
            raise ValidationError(f"n_bins must be an integer >= 1, got {self.n_bins!r}")
        object.__setattr__(self, "n_bins", int(self.n_bins))
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "step", float(self.step))

    # ------------------------------------------------------------------ #
    @classmethod
    def from_range(cls, start: float, stop: float, n_bins: int) -> "DepthGrid":
        """Build a grid covering ``[start, stop)`` with *n_bins* equal bins."""
        if stop <= start:
            raise ValidationError("stop must exceed start")
        if not _is_count(n_bins):
            raise ValidationError(f"n_bins must be an integer >= 1, got {n_bins!r}")
        return cls(start=float(start), step=(float(stop) - float(start)) / int(n_bins), n_bins=int(n_bins))

    # ------------------------------------------------------------------ #
    @property
    def stop(self) -> float:
        """Depth of the upper edge of the last bin."""
        return self.start + self.step * self.n_bins

    @property
    def edges(self) -> np.ndarray:
        """Bin edges, shape ``(n_bins + 1,)``."""
        return self.start + self.step * np.arange(self.n_bins + 1, dtype=np.float64)

    @property
    def centers(self) -> np.ndarray:
        """Bin centres, shape ``(n_bins,)``."""
        return self.start + self.step * (np.arange(self.n_bins, dtype=np.float64) + 0.5)

    # ------------------------------------------------------------------ #
    def index_to_depth(self, index) -> np.ndarray:
        """Depth at the centre of bin *index* (``device_index_to_beam_depth``)."""
        index = np.asarray(index, dtype=np.float64)
        return self.start + (index + 0.5) * self.step

    def depth_to_index(self, depth) -> np.ndarray:
        """Bin index containing *depth* (may fall outside ``[0, n_bins)``)."""
        depth = np.asarray(depth, dtype=np.float64)
        return np.floor((depth - self.start) / self.step).astype(np.int64)

    def contains(self, depth) -> np.ndarray:
        """Boolean mask of depths falling inside the grid."""
        depth = np.asarray(depth, dtype=np.float64)
        return (depth >= self.start) & (depth < self.stop)

    def clip_indices(self, index) -> np.ndarray:
        """Clamp indices into the valid ``[0, n_bins - 1]`` range."""
        return np.clip(np.asarray(index, dtype=np.int64), 0, self.n_bins - 1)

    def __len__(self) -> int:
        return self.n_bins
