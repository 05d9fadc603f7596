"""Wire scan trajectory.

A depth-resolved measurement records one detector image per wire position as
the wire steps across the diffracted beams.  ``WireScan`` holds the sequence
of wire-centre positions; step ``i`` of the reconstruction differences the
images at positions ``i`` and ``i+1``.

At 34-ID the wire is carried diagonally (roughly 45°) so that it cuts the
diffracted rays travelling up towards the detector; here the default
trajectory moves the wire along +z at constant height, which produces the
same occlusion sweep for the canonical geometry and keeps the synthetic
configuration easy to reason about.  Arbitrary trajectories in the (y, z)
plane are supported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.wire import Wire
from repro.utils.validation import ValidationError, ensure_positive

__all__ = ["WireScan"]


@dataclass(frozen=True)
class WireScan:
    """Sequence of wire positions for a depth scan.

    Parameters
    ----------
    wire:
        The :class:`~repro.geometry.wire.Wire` being scanned.
    positions_yz:
        Array of shape ``(n_steps + 1, 2)`` with the (y, z) coordinates of
        the wire centre at each scan point.  ``n_steps`` image *differences*
        are produced from ``n_steps + 1`` images.
    """

    wire: Wire
    positions_yz: np.ndarray

    _pos: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        pos = np.asarray(self.positions_yz, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 2:
            raise ValidationError(
                "positions_yz must have shape (n_points >= 2, 2), "
                f"got {pos.shape}"
            )
        if not np.all(np.isfinite(pos)):
            raise ValidationError("positions_yz contains non-finite values")
        object.__setattr__(self, "_pos", pos)

    # ------------------------------------------------------------------ #
    @classmethod
    def linear(
        cls,
        wire: Wire | None = None,
        n_points: int = 101,
        height: float = 1_500.0,
        z_start: float = -250.0,
        z_stop: float = 450.0,
    ) -> "WireScan":
        """Canonical linear scan: the wire moves along +z at fixed height.

        The defaults follow the real differential-aperture setup: the wire
        travels a few hundred micrometres just above the sample surface
        (``height`` is small compared with the detector distance), so the
        depth resolution is set by the wire step rather than by the wire
        diameter.

        Parameters
        ----------
        wire:
            Wire to scan (default 26 µm radius).
        n_points:
            Number of wire positions (images); ``n_points - 1`` differences.
        height:
            y coordinate of the wire centre (between sample and detector).
        z_start, z_stop:
            z range swept by the wire centre.
        """
        wire = wire if wire is not None else Wire()
        if n_points < 2:
            raise ValidationError("a scan needs at least 2 wire positions")
        ensure_positive(height, "height")
        if z_stop <= z_start:
            raise ValidationError("z_stop must exceed z_start")
        z = np.linspace(z_start, z_stop, int(n_points))
        y = np.full_like(z, float(height))
        return cls(wire=wire, positions_yz=np.stack([y, z], axis=-1))

    # ------------------------------------------------------------------ #
    @property
    def positions(self) -> np.ndarray:
        """Wire-centre (y, z) positions, shape ``(n_points, 2)``."""
        return self._pos.copy()

    @property
    def n_points(self) -> int:
        """Number of wire positions (= number of recorded images)."""
        return self._pos.shape[0]

    @property
    def n_steps(self) -> int:
        """Number of adjacent-position differences (= depth-resolving steps)."""
        return self._pos.shape[0] - 1
