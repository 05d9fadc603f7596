"""Incident beam description.

The depth axis of the reconstruction is the incident-beam path inside the
sample: depth ``d`` corresponds to the lab point ``origin + d * direction``.
For the canonical 34-ID-style configuration used throughout this library the
beam travels along +z from the lab origin, so depth is simply the z
coordinate of the emitting point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import ValidationError, ensure_positive

__all__ = ["Beam"]


@dataclass(frozen=True)
class Beam:
    """Polychromatic incident micro-beam.

    Parameters
    ----------
    direction:
        Unit propagation direction in the lab frame.  Default ``(0, 0, 1)``.
    origin:
        Point on the beam from which depth is measured (typically where the
        beam enters the sample).  Default lab origin.
    energy_min_kev, energy_max_kev:
        Energy band of the polychromatic beam; only used by the Laue forward
        model, not by the reconstruction itself.
    """

    direction: tuple = (0.0, 0.0, 1.0)
    origin: tuple = (0.0, 0.0, 0.0)
    energy_min_kev: float = 7.0
    energy_max_kev: float = 30.0

    _dir_arr: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=np.float64)
        if d.shape != (3,):
            raise ValidationError(f"beam direction must be a 3-vector, got shape {d.shape}")
        n = np.linalg.norm(d)
        if n == 0:
            raise ValidationError("beam direction must be non-zero")
        object.__setattr__(self, "_dir_arr", d / n)
        o = np.asarray(self.origin, dtype=np.float64)
        if o.shape != (3,):
            raise ValidationError(f"beam origin must be a 3-vector, got shape {o.shape}")
        ensure_positive(self.energy_min_kev, "energy_min_kev")
        ensure_positive(self.energy_max_kev, "energy_max_kev")
        if self.energy_max_kev <= self.energy_min_kev:
            raise ValidationError("energy_max_kev must exceed energy_min_kev")

    @property
    def unit_direction(self) -> np.ndarray:
        """Unit propagation direction as a float64 array."""
        return self._dir_arr.copy()

    @property
    def origin_array(self) -> np.ndarray:
        """Beam origin as a float64 array."""
        return np.asarray(self.origin, dtype=np.float64)

    def is_canonical(self) -> bool:
        """True if the beam is the canonical +z beam through the origin.

        The depth mapping and the forward model assume this configuration
        (as does the original 34-ID code).
        """
        return bool(
            np.allclose(self._dir_arr, (0.0, 0.0, 1.0), atol=1e-12)
            and np.allclose(self.origin_array, (0.0, 0.0, 0.0), atol=1e-12)
        )
