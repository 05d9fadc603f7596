"""Polychromatic Laue spot prediction.

For a white (polychromatic) incident beam every reciprocal-lattice vector
``g`` with ``g · k̂_in < 0`` selects its own Bragg wavelength; the reflection
appears on the detector if that wavelength lies inside the beam's energy band
and the diffracted ray hits the detector plane.  This is the standard Laue
geometry used at 34-ID-E and is exactly the structure of the images the
depth-reconstruction program processes: a few tens of sharp spots on a weak
background.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.crystallography.materials import Material
from repro.crystallography.orientation import Orientation
from repro.crystallography.structure_factor import structure_factor_magnitude
from repro.geometry.beam import Beam
from repro.geometry.detector import Detector
from repro.utils.validation import ValidationError

__all__ = ["LaueSpot", "predict_laue_spots"]

#: E[keV] * λ[Å] for photons
_HC_KEV_ANGSTROM = 12.39842

#: spots weaker than this fraction of the strongest spot are dropped
_MIN_RELATIVE_INTENSITY = 1e-3


@dataclass(frozen=True)
class LaueSpot:
    """One predicted Laue reflection on the detector."""

    hkl: tuple
    energy_kev: float
    row: float
    col: float
    direction: tuple
    intensity: float


def predict_laue_spots(
    material: Material,
    orientation: Orientation,
    beam: Beam,
    detector: Detector,
    max_hkl: int = 5,
) -> List[LaueSpot]:
    """Predict the Laue spots of one grain on the detector.

    Parameters
    ----------
    material:
        Crystal structure and scattering strength.
    orientation:
        Grain orientation (crystal → lab rotation).
    beam:
        Incident polychromatic beam (direction + energy band).
    detector:
        Detector geometry.
    max_hkl:
        Miller indices are enumerated over ``[-max_hkl, max_hkl]^3``.

    Returns
    -------
    list of LaueSpot with at least :data:`_MIN_RELATIVE_INTENSITY` of the
    strongest spot's intensity, sorted by decreasing intensity.
    """
    if max_hkl < 1:
        raise ValidationError("max_hkl must be >= 1")

    k_in = beam.unit_direction

    hkl_list = np.array(
        [
            hkl
            for hkl in itertools.product(range(-max_hkl, max_hkl + 1), repeat=3)
            if hkl != (0, 0, 0)
        ],
        dtype=np.int64,
    )
    magnitudes = structure_factor_magnitude(hkl_list, material.centering, material.atomic_number)
    keep = magnitudes > 0
    hkl_list = hkl_list[keep]
    magnitudes = magnitudes[keep]

    # reciprocal vectors in the lab frame
    g_crystal = material.lattice.g_vector(hkl_list)  # (n, 3), 1/Å
    g_lab = orientation.rotate(g_crystal)

    g_dot_k = g_lab @ k_in
    g_sq = np.einsum("ij,ij->i", g_lab, g_lab)
    with np.errstate(divide="ignore", invalid="ignore"):
        k_mag = np.where(g_dot_k < 0, -g_sq / (2.0 * g_dot_k), np.nan)  # 1/Å
    energies = _HC_KEV_ANGSTROM * k_mag / (2.0 * np.pi)

    in_band = (
        np.isfinite(energies)
        & (energies >= beam.energy_min_kev)
        & (energies <= beam.energy_max_kev)
    )

    spots: List[LaueSpot] = []
    if not np.any(in_band):
        return spots

    k_out = k_mag[:, None] * k_in[None, :] + g_lab
    with np.errstate(invalid="ignore"):
        k_out_unit = k_out / np.linalg.norm(k_out, axis=1, keepdims=True)

    # intersect the diffracted rays (from the lab origin) with the detector plane
    cx, cz = detector.center
    u_y = k_out_unit[:, 1]
    hits = in_band & (u_y > 1e-6)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(hits, detector.distance / u_y, np.nan)
    x = t * k_out_unit[:, 0]
    z = t * k_out_unit[:, 2]
    col = (x - cx) / detector.pixel_size + (detector.n_cols - 1) / 2.0
    row = (z - cz) / detector.pixel_size + (detector.n_rows - 1) / 2.0
    on_detector = hits & (row >= 0) & (row <= detector.n_rows - 1) & (col >= 0) & (col <= detector.n_cols - 1)

    if not np.any(on_detector):
        return spots

    # kinematic-ish intensity: |F|^2 falling with energy squared (spectral weight)
    with np.errstate(divide="ignore", invalid="ignore"):
        intensity = np.where(on_detector, magnitudes**2 / np.maximum(energies, 1e-6) ** 2, 0.0)
    max_intensity = float(intensity.max())
    if max_intensity <= 0:
        return spots
    selected = on_detector & (intensity >= _MIN_RELATIVE_INTENSITY * max_intensity)

    for index in np.nonzero(selected)[0]:
        spots.append(
            LaueSpot(
                hkl=tuple(int(v) for v in hkl_list[index]),
                energy_kev=float(energies[index]),
                row=float(row[index]),
                col=float(col[index]),
                direction=tuple(float(v) for v in k_out_unit[index]),
                intensity=float(intensity[index] / max_intensity),
            )
        )
    spots.sort(key=lambda s: s.intensity, reverse=True)
    return spots
