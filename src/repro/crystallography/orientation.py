"""Grain orientation wrapper."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.rotations import is_rotation_matrix, random_rotation
from repro.utils.validation import ValidationError

__all__ = ["Orientation"]


@dataclass(frozen=True)
class Orientation:
    """A crystal orientation: the rotation taking crystal axes to lab axes."""

    matrix: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if not is_rotation_matrix(matrix, atol=1e-6):
            raise ValidationError("Orientation requires a proper rotation matrix")
        object.__setattr__(self, "matrix", matrix)

    # ------------------------------------------------------------------ #
    @classmethod
    def identity(cls) -> "Orientation":
        """The reference orientation."""
        return cls(np.eye(3))

    @classmethod
    def random(cls, rng: np.random.Generator) -> "Orientation":
        """Uniformly random orientation."""
        return cls(random_rotation(rng))

    # ------------------------------------------------------------------ #
    def rotate(self, vectors: np.ndarray) -> np.ndarray:
        """Rotate crystal-frame vectors into the lab frame."""
        vectors = np.asarray(vectors, dtype=np.float64)
        return vectors @ self.matrix.T

    def perturbed(self, axis, angle: float) -> "Orientation":
        """A new orientation rotated by *angle* radians about *axis* (lab frame)."""
        from repro.geometry.rotations import rotation_about_axis

        return Orientation(rotation_about_axis(axis, angle) @ self.matrix)
