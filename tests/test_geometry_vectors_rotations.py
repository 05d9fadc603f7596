"""Unit tests for repro.geometry.rotations."""

import numpy as np
import pytest

from repro.geometry.rotations import (
    is_rotation_matrix,
    quaternion_to_matrix,
    random_rotation,
    rotation_about_axis,
)
from repro.utils.validation import ValidationError


class TestRotations:
    def test_rotation_about_z_90_degrees(self):
        rot = rotation_about_axis((0, 0, 1), np.pi / 2)
        np.testing.assert_allclose(rot @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_rotation_matrix_is_proper(self):
        rot = rotation_about_axis((1, 2, 3), 0.7)
        assert is_rotation_matrix(rot)

    def test_rotation_zero_axis_raises(self):
        with pytest.raises(ValidationError):
            rotation_about_axis((0, 0, 0), 0.5)

    def test_random_rotation_is_proper(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert is_rotation_matrix(random_rotation(rng))

    def test_quaternion_roundtrip(self):
        # a turn by angle about the unit axis n is the quaternion
        # (n sin(angle / 2), cos(angle / 2))
        rng = np.random.default_rng(5)
        for _ in range(10):
            axis = rng.normal(size=3)
            angle = rng.uniform(-np.pi, np.pi)
            q = np.append(axis / np.linalg.norm(axis) * np.sin(angle / 2), np.cos(angle / 2))
            np.testing.assert_allclose(
                quaternion_to_matrix(q), rotation_about_axis(axis, angle), atol=1e-10
            )

    def test_quaternion_identity(self):
        np.testing.assert_allclose(quaternion_to_matrix([0, 0, 0, 1]), np.eye(3), atol=1e-15)

    def test_quaternion_bad_shape(self):
        with pytest.raises(ValidationError):
            quaternion_to_matrix([1, 0, 0])

    def test_is_rotation_matrix_rejects_reflection(self):
        reflection = np.diag([1.0, 1.0, -1.0])
        assert not is_rotation_matrix(reflection)

    def test_is_rotation_matrix_rejects_wrong_shape(self):
        assert not is_rotation_matrix(np.eye(2))
