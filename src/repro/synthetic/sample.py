"""Sample models: what emits intensity at which depth.

Two levels of description are provided:

* :class:`DepthSourceField` — the fully general description: an emission
  intensity for every (depth sample, detector pixel) pair.  The forward model
  consumes this directly and tests construct it by hand.
* :class:`GrainSample` — a physically motivated generator: a stack of grains
  along the beam, each with an orientation and a depth extent, whose Laue
  spots illuminate small regions of the detector from their grain's depth
  interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.crystallography.laue import predict_laue_spots
from repro.crystallography.materials import Material, get_material
from repro.crystallography.orientation import Orientation
from repro.geometry.beam import Beam
from repro.geometry.detector import Detector
from repro.utils.validation import ValidationError

__all__ = ["DepthSourceField", "Grain", "GrainSample"]

#: mean emission of a random column's grains; each grain draws 0.5 to 1.5
#: times it
_COLUMN_EMISSION = 1000.0

#: largest misorientation (degrees) of a random column's grains from the
#: column's base orientation
_MOSAIC_SPREAD_DEG = 5.0

#: Gaussian width (pixels) of a rendered Laue spot
_SPOT_SIGMA_PIXELS = 1.5


@dataclass
class DepthSourceField:
    """Emission intensity as a function of depth and detector pixel.

    Parameters
    ----------
    depth_samples:
        Strictly increasing depth sample positions, shape ``(n_depths,)``.
    source:
        Emission array of shape ``(n_depths, n_rows, n_cols)`` in arbitrary
        intensity units; ``source[d, r, c]`` is the intensity pixel (r, c)
        would record from depth ``depth_samples[d]`` with no wire present.
    """

    depth_samples: np.ndarray
    source: np.ndarray

    def __post_init__(self):
        self.depth_samples = np.asarray(self.depth_samples, dtype=np.float64)
        self.source = np.asarray(self.source, dtype=np.float64)
        if self.depth_samples.ndim != 1 or self.depth_samples.size < 1:
            raise ValidationError("depth_samples must be a non-empty 1-D array")
        if np.any(np.diff(self.depth_samples) <= 0):
            raise ValidationError("depth_samples must be strictly increasing")
        if self.source.ndim != 3 or self.source.shape[0] != self.depth_samples.size:
            raise ValidationError(
                "source must have shape (n_depths, n_rows, n_cols) matching depth_samples, "
                f"got {self.source.shape}"
            )
        if np.any(self.source < 0):
            raise ValidationError("source intensities must be non-negative")

    # ------------------------------------------------------------------ #
    @property
    def n_depths(self) -> int:
        """Number of depth samples."""
        return self.depth_samples.size

    @property
    def n_rows(self) -> int:
        """Detector rows."""
        return self.source.shape[1]

    @property
    def n_cols(self) -> int:
        """Detector columns."""
        return self.source.shape[2]

    def total_image(self) -> np.ndarray:
        """Wire-free detector image (depth integral of the source)."""
        return self.source.sum(axis=0)

    def true_centroid_depth(self) -> np.ndarray:
        """Ground-truth intensity-weighted mean depth per pixel (NaN when dark)."""
        total = self.source.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            centroid = np.tensordot(self.depth_samples, self.source, axes=(0, 0)) / total
        return np.where(total > 0, centroid, np.nan)

    # ------------------------------------------------------------------ #
    @classmethod
    def point_source(
        cls,
        detector: Detector,
        depth: float,
        depth_samples: np.ndarray,
        intensity: float = 1000.0,
    ) -> "DepthSourceField":
        """A delta-like emitter at one depth illuminating every pixel."""
        depth_samples = np.asarray(depth_samples, dtype=np.float64)
        source = np.zeros((depth_samples.size, detector.n_rows, detector.n_cols))
        source[int(np.argmin(np.abs(depth_samples - depth)))] = intensity
        return cls(depth_samples=depth_samples, source=source)


@dataclass(frozen=True)
class Grain:
    """One grain of the sample: a depth interval with one orientation."""

    depth_start: float
    depth_stop: float
    orientation: Orientation
    emission: float = 1000.0

    def __post_init__(self):
        if self.depth_stop <= self.depth_start:
            raise ValidationError("grain depth_stop must exceed depth_start")
        if self.emission <= 0:
            raise ValidationError("grain emission must be positive")

    @property
    def center_depth(self) -> float:
        """Mid-depth of the grain."""
        return 0.5 * (self.depth_start + self.depth_stop)


@dataclass
class GrainSample:
    """A columnar stack of grains along the incident beam.

    Parameters
    ----------
    material:
        Crystal structure shared by all grains (a ``Material`` or its symbol).
    grains:
        The grains; their depth intervals may overlap (e.g. sub-grains).
    """

    material: Material | str
    grains: List[Grain] = field(default_factory=list)

    def __post_init__(self):
        if isinstance(self.material, str):
            self.material = get_material(self.material)
        if not self.grains:
            raise ValidationError("GrainSample needs at least one grain")

    # ------------------------------------------------------------------ #
    @classmethod
    def random_column(
        cls,
        material: Material | str,
        n_grains: int,
        depth_range: tuple,
        rng: np.random.Generator,
    ) -> "GrainSample":
        """Random columnar grain structure filling *depth_range*.

        The grains share a random base orientation, each misoriented from it
        by up to :data:`_MOSAIC_SPREAD_DEG`, and emit 0.5 to 1.5 times
        :data:`_COLUMN_EMISSION`.
        """
        if n_grains < 1:
            raise ValidationError("n_grains must be >= 1")
        lo, hi = float(depth_range[0]), float(depth_range[1])
        if hi <= lo:
            raise ValidationError("depth_range must be increasing")
        boundaries = np.sort(rng.uniform(lo, hi, size=n_grains - 1)) if n_grains > 1 else np.array([])
        edges = np.concatenate([[lo], boundaries, [hi]])
        base = Orientation.random(rng)
        grains = []
        for grain_index in range(n_grains):
            tilt_axis = rng.normal(size=3)
            tilt_angle = np.radians(_MOSAIC_SPREAD_DEG) * rng.random()
            orientation = base.perturbed(tilt_axis, tilt_angle)
            grains.append(
                Grain(
                    depth_start=float(edges[grain_index]),
                    depth_stop=float(edges[grain_index + 1]),
                    orientation=orientation,
                    emission=_COLUMN_EMISSION * (0.5 + rng.random()),
                )
            )
        return cls(material=material, grains=grains)

    # ------------------------------------------------------------------ #
    def to_source_field(
        self,
        detector: Detector,
        beam: Beam,
        depth_samples: np.ndarray,
        max_hkl: int = 5,
        background: float = 0.0,
    ) -> DepthSourceField:
        """Render the grains into a :class:`DepthSourceField`.

        Each grain's Laue spots are painted as Gaussian blobs of width
        :data:`_SPOT_SIGMA_PIXELS` on the detector; every blob emits
        uniformly from the grain's depth interval.  An
        optional flat background emits uniformly from all depths.
        """
        depth_samples = np.asarray(depth_samples, dtype=np.float64)
        n_rows, n_cols = detector.shape
        source = np.zeros((depth_samples.size, n_rows, n_cols), dtype=np.float64)

        row_coords = np.arange(n_rows, dtype=np.float64)[:, None]
        col_coords = np.arange(n_cols, dtype=np.float64)[None, :]

        for grain in self.grains:
            inside = (depth_samples >= grain.depth_start) & (depth_samples < grain.depth_stop)
            if not np.any(inside):
                # grain thinner than the sampling: attach it to the nearest sample
                nearest = int(np.argmin(np.abs(depth_samples - grain.center_depth)))
                inside = np.zeros(depth_samples.size, dtype=bool)
                inside[nearest] = True
            depth_weight = inside.astype(np.float64)
            depth_weight /= depth_weight.sum()

            spots = predict_laue_spots(
                self.material, grain.orientation, beam, detector, max_hkl=max_hkl
            )
            if not spots:
                continue
            footprint = np.zeros((n_rows, n_cols), dtype=np.float64)
            for spot in spots:
                blob = np.exp(
                    -0.5
                    * (
                        (row_coords - spot.row) ** 2 + (col_coords - spot.col) ** 2
                    )
                    / _SPOT_SIGMA_PIXELS**2
                )
                footprint += spot.intensity * blob
            source += grain.emission * depth_weight[:, None, None] * footprint[None, :, :]

        if background > 0:
            source += background / depth_samples.size
        return DepthSourceField(depth_samples=depth_samples, source=source)

    def true_grain_boundaries(self) -> np.ndarray:
        """Sorted unique grain boundary depths (useful for plots/validation)."""
        edges = set()
        for grain in self.grains:
            edges.add(grain.depth_start)
            edges.add(grain.depth_stop)
        return np.array(sorted(edges))
