"""Unit tests for the trapezoidal depth-response function."""

import numpy as np
import pytest

from repro.core.depth_grid import DepthGrid
from repro.core.trapezoid import (
    Trapezoid,
    trapezoid_area,
    trapezoid_bin_overlaps,
    trapezoid_from_depths,
    trapezoid_height,
    trapezoid_overlap,
)
from repro.utils.validation import ValidationError


class TestTrapezoidConstruction:
    def test_sorted_corners(self):
        trap = trapezoid_from_depths(3.0, 1.0, 4.0, 2.0)
        assert (trap.d1, trap.d2, trap.d3, trap.d4) == (1.0, 2.0, 3.0, 4.0)

    def test_area_formula(self):
        trap = Trapezoid(0.0, 1.0, 3.0, 4.0)
        assert np.isclose(trap.area, 3.0)

    def test_triangle_degenerate(self):
        trap = Trapezoid(0.0, 1.0, 1.0, 2.0)
        assert np.isclose(trap.area, 1.0)

    def test_box_degenerate(self):
        trap = Trapezoid(0.0, 0.0, 2.0, 2.0)
        assert np.isclose(trap.area, 2.0)

    def test_zero_width(self):
        trap = Trapezoid(1.0, 1.0, 1.0, 1.0)
        assert trap.area == 0.0

    def test_unordered_corners_rejected(self):
        with pytest.raises(ValidationError):
            Trapezoid(2.0, 1.0, 3.0, 4.0)

    def test_nan_corner_rejected(self):
        with pytest.raises(ValidationError):
            trapezoid_from_depths(float("nan"), 1.0, 2.0, 3.0)

    def test_support(self):
        assert Trapezoid(0.0, 1.0, 2.0, 5.0).support == (0.0, 5.0)


class TestTrapezoidHeight:
    def test_zero_outside_support(self):
        assert trapezoid_height(-1.0, 0.0, 1.0, 2.0, 3.0) == 0.0
        assert trapezoid_height(4.0, 0.0, 1.0, 2.0, 3.0) == 0.0

    def test_one_on_plateau(self):
        assert trapezoid_height(1.5, 0.0, 1.0, 2.0, 3.0) == 1.0

    def test_linear_on_ramps(self):
        assert np.isclose(trapezoid_height(0.5, 0.0, 1.0, 2.0, 3.0), 0.5)
        assert np.isclose(trapezoid_height(2.75, 0.0, 1.0, 2.0, 3.0), 0.25)

    def test_vectorised_evaluation(self):
        x = np.linspace(-1, 4, 101)
        h = trapezoid_height(x, 0.0, 1.0, 2.0, 3.0)
        assert h.shape == x.shape
        assert np.all((h >= 0) & (h <= 1))

    def test_box_has_unit_height_inside(self):
        assert trapezoid_height(1.0, 0.0, 0.0, 2.0, 2.0) == 1.0

    def test_object_height_matches_function(self):
        trap = Trapezoid(0.0, 1.0, 2.0, 3.0)
        assert np.isclose(trap.height(0.5), trapezoid_height(0.5, 0.0, 1.0, 2.0, 3.0))


class TestOverlaps:
    def test_overlap_of_full_support_equals_area(self):
        corners = (0.0, 1.0, 3.0, 4.0)
        assert np.isclose(float(trapezoid_overlap(-10.0, 10.0, *corners)), trapezoid_area(*corners))

    def test_overlap_additivity(self):
        corners = (0.0, 1.0, 3.0, 4.0)
        left = float(trapezoid_overlap(-1.0, 2.0, *corners))
        right = float(trapezoid_overlap(2.0, 5.0, *corners))
        total = float(trapezoid_overlap(-1.0, 5.0, *corners))
        assert np.isclose(left + right, total)

    def test_overlap_matches_numerical_integration(self):
        corners = (0.3, 1.7, 2.2, 5.9)
        lo, hi = 1.0, 3.0
        x = np.linspace(lo, hi, 20001)
        numerical = np.trapezoid(trapezoid_height(x, *corners), x)
        assert np.isclose(float(trapezoid_overlap(lo, hi, *corners)), numerical, rtol=1e-6)

    def test_bin_overlaps_sum_to_area_when_grid_covers_support(self):
        grid = DepthGrid.from_range(-10.0, 10.0, 80)
        corners = (0.0, 0.5, 1.5, 2.0)
        overlaps = trapezoid_bin_overlaps(grid, *corners)
        assert overlaps.shape == (1, 80)
        assert np.isclose(overlaps.sum(), trapezoid_area(*corners))

    def test_bin_overlaps_vectorised_over_trapezoids(self):
        grid = DepthGrid.from_range(0.0, 10.0, 20)
        d1 = np.array([0.0, 2.0])
        d2 = np.array([1.0, 3.0])
        d3 = np.array([2.0, 4.0])
        d4 = np.array([3.0, 5.0])
        overlaps = trapezoid_bin_overlaps(grid, d1, d2, d3, d4)
        assert overlaps.shape == (2, 20)
        np.testing.assert_allclose(overlaps.sum(axis=1), trapezoid_area(d1, d2, d3, d4))

    def test_overlaps_are_non_negative(self):
        grid = DepthGrid.from_range(0.0, 10.0, 10)
        overlaps = trapezoid_bin_overlaps(grid, -5.0, -1.0, 2.0, 30.0)
        assert np.all(overlaps >= 0)


def _distribute(grid, intensity, d1, d2, d3, d4):
    """Per-bin weights as the kernels form them: ``intensity * overlap / area``."""
    intensity = np.atleast_1d(np.asarray(intensity, dtype=np.float64))
    area = np.atleast_1d(trapezoid_area(d1, d2, d3, d4))
    return intensity[:, None] * trapezoid_bin_overlaps(grid, d1, d2, d3, d4) / area[:, None]


class TestDistributeIntensity:
    def test_intensity_conserved_inside_grid(self):
        grid = DepthGrid.from_range(0.0, 10.0, 40)
        weights = _distribute(grid, 7.0, 2.0, 3.0, 4.0, 5.0)
        assert np.isclose(weights.sum(), 7.0)

    def test_partial_overlap_drops_outside_fraction(self):
        grid = DepthGrid.from_range(0.0, 10.0, 40)
        # trapezoid half inside the grid (support [-2, 2], symmetric box)
        weights = _distribute(grid, 10.0, -2.0, -2.0, 2.0, 2.0)
        assert np.isclose(weights.sum(), 5.0)

    def test_zero_area_gives_zero_weights(self):
        # a zero-area trapezoid overlaps nothing; the trapezoid table marks
        # it inactive, so no kernel ever divides by its area
        grid = DepthGrid.from_range(0.0, 10.0, 10)
        overlaps = trapezoid_bin_overlaps(grid, 1.0, 1.0, 1.0, 1.0)
        assert np.array_equal(overlaps, np.zeros((1, 10)))

    def test_negative_intensity_distributes_negatively(self):
        grid = DepthGrid.from_range(0.0, 10.0, 10)
        weights = _distribute(grid, -4.0, 2.0, 3.0, 4.0, 5.0)
        assert np.isclose(weights.sum(), -4.0)

    def test_multiple_trapezoids(self):
        grid = DepthGrid.from_range(0.0, 10.0, 10)
        weights = _distribute(
            grid,
            np.array([1.0, 2.0]),
            np.array([1.0, 6.0]),
            np.array([2.0, 7.0]),
            np.array([3.0, 8.0]),
            np.array([4.0, 9.0]),
        )
        assert weights.shape == (2, 10)
        np.testing.assert_allclose(weights.sum(axis=1), [1.0, 2.0])
