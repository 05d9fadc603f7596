"""Unit tests for the depth grid and the pixel->depth mapping."""

import math

import numpy as np
import pytest

from repro.core.depth_grid import DepthGrid
from repro.core.depth_mapping import (
    critical_wire_z_for_depth,
    pixel_yz_to_depth,
    pixel_yz_to_depth_scalar,
)
from repro.geometry.wire import WireEdge
from repro.utils.validation import ValidationError


class TestDepthGrid:
    def test_from_range(self):
        grid = DepthGrid.from_range(0.0, 100.0, 50)
        assert grid.n_bins == 50
        assert np.isclose(grid.step, 2.0)
        assert np.isclose(grid.stop, 100.0)

    def test_edges_and_centers(self):
        grid = DepthGrid(start=10.0, step=5.0, n_bins=4)
        np.testing.assert_allclose(grid.edges, [10, 15, 20, 25, 30])
        np.testing.assert_allclose(grid.centers, [12.5, 17.5, 22.5, 27.5])

    def test_index_depth_roundtrip(self):
        grid = DepthGrid(start=0.0, step=2.0, n_bins=10)
        for index in range(10):
            depth = grid.index_to_depth(index)
            assert grid.depth_to_index(depth) == index

    def test_index_to_depth_matches_kernel_formula(self):
        # device_index_to_beam_depth: start + (index + 0.5) * step
        grid = DepthGrid(start=-5.0, step=0.5, n_bins=30)
        np.testing.assert_allclose(
            grid.index_to_depth(np.arange(5)), [-4.75, -4.25, -3.75, -3.25, -2.75]
        )

    def test_contains(self):
        grid = DepthGrid(start=0.0, step=1.0, n_bins=5)
        assert grid.contains(0.0)
        assert grid.contains(4.99)
        assert not grid.contains(5.0)
        assert not grid.contains(-0.01)

    def test_clip_indices(self):
        grid = DepthGrid(start=0.0, step=1.0, n_bins=5)
        np.testing.assert_array_equal(grid.clip_indices([-3, 2, 9]), [0, 2, 4])

    def test_len(self):
        assert len(DepthGrid(0.0, 1.0, 7)) == 7

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            DepthGrid(0.0, -1.0, 5)
        with pytest.raises(ValidationError):
            DepthGrid(0.0, 1.0, 0)
        with pytest.raises(ValidationError):
            DepthGrid.from_range(10.0, 0.0, 5)
        # a start is a finite number; a count is an integer, never
        # truncated and never a bool
        for start in (float("nan"), float("inf"), "0.0", True):
            with pytest.raises(ValidationError):
                DepthGrid(start, 10.0, 10)
        for n_bins in (2.5, True, "2", None):
            with pytest.raises(ValidationError):
                DepthGrid(0.0, 1.0, n_bins)
        with pytest.raises(ValidationError):
            DepthGrid.from_range(0.0, 1.0, 2.5)
        with pytest.raises(ValidationError):
            DepthGrid(0.0, "1.0", 5)
        assert type(DepthGrid(0.0, 1.0, np.int64(3)).n_bins) is int

    def test_depth_to_index_helper(self):
        grid = DepthGrid(start=0.0, step=1.0, n_bins=5)
        np.testing.assert_array_equal(grid.depth_to_index([0.1, 3.9]), [0, 3])


class TestPixelToDepth:
    PIXEL_Y = 510_000.0
    WIRE_Y = 1_500.0
    RADIUS = 26.0

    def test_scalar_and_vectorized_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pixel_z = rng.uniform(-30_000, 30_000)
            wire_z = rng.uniform(-300, 500)
            for edge in (WireEdge.LEADING, WireEdge.TRAILING):
                scalar = pixel_yz_to_depth_scalar(self.PIXEL_Y, pixel_z, self.WIRE_Y, wire_z, self.RADIUS, edge)
                vector = float(pixel_yz_to_depth(self.PIXEL_Y, pixel_z, self.WIRE_Y, wire_z, self.RADIUS, edge))
                assert np.isclose(scalar, vector, rtol=1e-12, atol=1e-9)

    def test_leading_edge_is_deeper_than_trailing(self):
        leading = pixel_yz_to_depth_scalar(self.PIXEL_Y, 10_000.0, self.WIRE_Y, 50.0, self.RADIUS, WireEdge.LEADING)
        trailing = pixel_yz_to_depth_scalar(self.PIXEL_Y, 10_000.0, self.WIRE_Y, 50.0, self.RADIUS, WireEdge.TRAILING)
        assert leading > trailing

    def test_edges_straddle_zero_radius_limit(self):
        # with a vanishingly small radius both edges converge to the same depth
        centre = pixel_yz_to_depth_scalar(self.PIXEL_Y, 10_000.0, self.WIRE_Y, 50.0, 1e-9, WireEdge.LEADING)
        leading = pixel_yz_to_depth_scalar(self.PIXEL_Y, 10_000.0, self.WIRE_Y, 50.0, self.RADIUS, WireEdge.LEADING)
        trailing = pixel_yz_to_depth_scalar(self.PIXEL_Y, 10_000.0, self.WIRE_Y, 50.0, self.RADIUS, WireEdge.TRAILING)
        assert trailing < centre < leading

    def test_zero_radius_matches_straight_line_geometry(self):
        pixel_z, wire_z = 10_000.0, 50.0
        depth = pixel_yz_to_depth_scalar(self.PIXEL_Y, pixel_z, self.WIRE_Y, wire_z, 1e-12, WireEdge.LEADING)
        # straight line from the pixel through the wire centre to y = 0
        expected = pixel_z + (wire_z - pixel_z) * self.PIXEL_Y / (self.PIXEL_Y - self.WIRE_Y)
        assert np.isclose(depth, expected, atol=1e-3)

    def test_depth_moves_with_wire(self):
        # moving the wire towards +z moves the critical depth towards +z
        d1 = pixel_yz_to_depth_scalar(self.PIXEL_Y, 10_000.0, self.WIRE_Y, 0.0, self.RADIUS, WireEdge.LEADING)
        d2 = pixel_yz_to_depth_scalar(self.PIXEL_Y, 10_000.0, self.WIRE_Y, 20.0, self.RADIUS, WireEdge.LEADING)
        assert d2 > d1

    def test_pixel_inside_wire_returns_nan(self):
        assert math.isnan(
            pixel_yz_to_depth_scalar(self.WIRE_Y, 0.0, self.WIRE_Y, 10.0, self.RADIUS, WireEdge.LEADING)
        )

    def test_vectorized_broadcasting(self):
        pixel_z = np.linspace(-5_000, 5_000, 7)[:, None]
        wire_z = np.linspace(-100, 100, 5)[None, :]
        depths = pixel_yz_to_depth(self.PIXEL_Y, pixel_z, self.WIRE_Y, wire_z, self.RADIUS, WireEdge.LEADING)
        assert depths.shape == (7, 5)
        assert np.all(np.isfinite(depths))

    def test_invalid_radius_rejected(self):
        with pytest.raises(ValidationError):
            pixel_yz_to_depth(self.PIXEL_Y, 0.0, self.WIRE_Y, 0.0, -1.0)

    def test_inverse_mapping_roundtrip(self):
        # pixel_yz_to_depth and critical_wire_z_for_depth are mutual inverses
        rng = np.random.default_rng(3)
        for _ in range(30):
            pixel_z = rng.uniform(-20_000, 20_000)
            depth = rng.uniform(0.0, 150.0)
            for edge in (WireEdge.LEADING, WireEdge.TRAILING):
                wire_z = float(
                    critical_wire_z_for_depth(depth, self.PIXEL_Y, pixel_z, self.WIRE_Y, self.RADIUS, edge)
                )
                recovered = pixel_yz_to_depth_scalar(self.PIXEL_Y, pixel_z, self.WIRE_Y, wire_z, self.RADIUS, edge)
                assert np.isclose(recovered, depth, atol=1e-6)
