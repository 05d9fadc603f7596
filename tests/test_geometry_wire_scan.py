"""Unit tests for repro.geometry.wire and repro.geometry.scan."""

import numpy as np
import pytest

from repro.geometry.wire import Wire, WireEdge
from repro.geometry.scan import WireScan
from repro.utils.validation import ValidationError


class TestWireEdge:
    def test_enum_values_match_sign_convention(self):
        assert int(WireEdge.LEADING) == 1
        assert int(WireEdge.TRAILING) == -1


class TestWire:
    def test_default_radius(self):
        assert Wire().radius == 26.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            Wire(radius=-1.0)

    def test_non_x_axis_rejected(self):
        with pytest.raises(ValidationError):
            Wire(axis=(0.0, 1.0, 0.0))

    def test_occludes_direct_hit(self):
        wire = Wire(radius=26.0)
        source = np.array([0.0, 0.0])
        pixel = np.array([510_000.0, 0.0])
        center_on_path = np.array([1_500.0, 0.0])
        assert bool(wire.occludes(source, pixel, center_on_path))

    def test_occludes_far_miss(self):
        wire = Wire(radius=26.0)
        source = np.array([0.0, 0.0])
        pixel = np.array([510_000.0, 0.0])
        center_far = np.array([1_500.0, 5_000.0])
        assert not bool(wire.occludes(source, pixel, center_far))

    def test_occludes_wire_behind_pixel_does_not_block(self):
        wire = Wire(radius=26.0)
        source = np.array([0.0, 0.0])
        pixel = np.array([510_000.0, 0.0])
        center_beyond = np.array([600_000.0, 0.0])
        assert not bool(wire.occludes(source, pixel, center_beyond))

    def test_occludes_broadcasts(self):
        wire = Wire(radius=26.0)
        sources = np.stack([np.zeros(5), np.linspace(0, 100, 5)], axis=-1)  # (5, 2)
        pixel = np.array([510_000.0, 0.0])
        center = np.array([1_500.0, 0.3])
        blocked = wire.occludes(sources, pixel, center)
        assert blocked.shape == (5,)

    def test_occlusion_boundary_matches_radius(self):
        # moving the wire centre perpendicular to the ray by slightly more
        # than the radius unblocks the ray
        wire = Wire(radius=26.0)
        source = np.array([0.0, 0.0])
        pixel = np.array([510_000.0, 0.0])
        just_inside = np.array([1_500.0, 25.9])
        just_outside = np.array([1_500.0, 26.2])
        assert bool(wire.occludes(source, pixel, just_inside))
        assert not bool(wire.occludes(source, pixel, just_outside))


class TestWireScan:
    def test_linear_scan_counts(self):
        scan = WireScan.linear(n_points=11)
        assert scan.n_points == 11
        assert scan.n_steps == 10

    def test_linear_scan_monotonic_z(self):
        scan = WireScan.linear(n_points=21, z_start=-100.0, z_stop=100.0)
        z = scan.positions[:, 1]
        assert np.all(np.diff(z) > 0)

    def test_linear_scan_constant_height(self):
        scan = WireScan.linear(n_points=7, height=2_000.0)
        np.testing.assert_allclose(scan.positions[:, 0], 2_000.0)

    def test_step_size(self):
        scan = WireScan.linear(n_points=11, z_start=0.0, z_stop=100.0)
        steps = np.linalg.norm(np.diff(scan.positions, axis=0), axis=1)
        assert np.isclose(np.mean(steps), 10.0)

    def test_invalid_positions_shape(self):
        with pytest.raises(ValidationError):
            WireScan(wire=Wire(), positions_yz=np.zeros((3, 3)))

    def test_single_position_rejected(self):
        with pytest.raises(ValidationError):
            WireScan(wire=Wire(), positions_yz=np.zeros((1, 2)))

    def test_linear_requires_increasing_range(self):
        with pytest.raises(ValidationError):
            WireScan.linear(z_start=10.0, z_stop=-10.0)

    def test_positions_returns_copy(self):
        scan = WireScan.linear(n_points=5)
        pos = scan.positions
        pos[0, 0] = -1.0
        assert scan.positions[0, 0] != -1.0
