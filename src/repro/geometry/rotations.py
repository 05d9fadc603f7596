"""Rotation utilities (matrices, axis-angle, quaternions).

Used by the crystallography subpackage to orient grains.  Only the pieces
the synthetic forward model needs are implemented — this is not a general
orientation library.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import ValidationError

__all__ = [
    "rotation_about_axis",
    "random_rotation",
    "quaternion_to_matrix",
    "is_rotation_matrix",
]


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix for a rotation of *angle* radians about *axis*."""
    axis = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(axis)
    if n == 0:
        raise ValidationError("rotation axis must be non-zero")
    x, y, z = axis / n
    c, s = np.cos(angle), np.sin(angle)
    one_c = 1.0 - c
    return np.array(
        [
            [c + x * x * one_c, x * y * one_c - z * s, x * z * one_c + y * s],
            [y * x * one_c + z * s, c + y * y * one_c, y * z * one_c - x * s],
            [z * x * one_c - y * s, z * y * one_c + x * s, c + z * z * one_c],
        ],
        dtype=np.float64,
    )


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly distributed random rotation matrix (Shoemake's method)."""
    u1, u2, u3 = rng.random(3)
    q = np.array(
        [
            np.sqrt(1.0 - u1) * np.sin(2.0 * np.pi * u2),
            np.sqrt(1.0 - u1) * np.cos(2.0 * np.pi * u2),
            np.sqrt(u1) * np.sin(2.0 * np.pi * u3),
            np.sqrt(u1) * np.cos(2.0 * np.pi * u3),
        ]
    )
    return quaternion_to_matrix(q)


def quaternion_to_matrix(q) -> np.ndarray:
    """Rotation matrix from quaternion ``(x, y, z, w)`` (normalised internally)."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (4,):
        raise ValidationError(f"quaternion must have shape (4,), got {q.shape}")
    n = np.linalg.norm(q)
    if n == 0:
        raise ValidationError("quaternion must be non-zero")
    x, y, z, w = q / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ],
        dtype=np.float64,
    )


def is_rotation_matrix(rot: np.ndarray, atol: float = 1e-8) -> bool:
    """True if *rot* is a proper rotation (orthogonal, determinant +1)."""
    rot = np.asarray(rot, dtype=np.float64)
    if rot.shape != (3, 3):
        return False
    if not np.allclose(rot @ rot.T, np.eye(3), atol=atol):
        return False
    return bool(np.isclose(np.linalg.det(rot), 1.0, atol=atol))
