"""Unit tests for repro.geometry.beam and repro.geometry.detector."""

import numpy as np
import pytest

from repro.geometry.beam import Beam
from repro.geometry.detector import Detector
from repro.utils.validation import ValidationError


class TestBeam:
    def test_default_is_canonical(self):
        assert Beam().is_canonical()

    def test_non_canonical_detection(self):
        assert not Beam(direction=(0.0, 1.0, 0.0)).is_canonical()
        assert not Beam(origin=(0.0, 0.0, 5.0)).is_canonical()

    def test_direction_normalised(self):
        beam = Beam(direction=(0.0, 0.0, 10.0))
        np.testing.assert_allclose(beam.unit_direction, [0, 0, 1])

    def test_zero_direction_rejected(self):
        with pytest.raises(ValidationError):
            Beam(direction=(0.0, 0.0, 0.0))

    def test_bad_energy_band_rejected(self):
        with pytest.raises(ValidationError):
            Beam(energy_min_kev=20.0, energy_max_kev=10.0)


class TestDetector:
    def test_shape_and_pixel_count(self):
        det = Detector(n_rows=4, n_cols=6)
        assert det.shape == (4, 6)
        assert int(np.prod(det.shape)) == 24

    def test_pixel_positions_full_grid_shape(self):
        det = Detector(n_rows=3, n_cols=5)
        pts = det.pixel_positions()
        assert pts.shape == (3, 5, 3)

    def test_pixel_positions_center_symmetry(self):
        det = Detector(n_rows=5, n_cols=5, pixel_size=100.0, center=(0.0, 0.0))
        pts = det.pixel_positions()
        # centre pixel sits exactly above the origin at the detector distance
        np.testing.assert_allclose(pts[2, 2], [0.0, det.distance, 0.0], atol=1e-9)

    def test_pixel_pitch_spacing(self):
        det = Detector(n_rows=4, n_cols=4, pixel_size=150.0)
        pts = det.pixel_positions()
        np.testing.assert_allclose(pts[0, 1, 0] - pts[0, 0, 0], 150.0)
        np.testing.assert_allclose(pts[1, 0, 2] - pts[0, 0, 2], 150.0)

    def test_row_yz_matches_pixel_positions(self):
        det = Detector(n_rows=6, n_cols=3)
        rows_yz = det.row_yz()
        pts = det.pixel_positions()
        np.testing.assert_allclose(rows_yz[:, 0], pts[:, 0, 1])
        np.testing.assert_allclose(rows_yz[:, 1], pts[:, 0, 2])

    def test_row_edges_straddle_center(self):
        det = Detector(n_rows=4, n_cols=4, pixel_size=200.0)
        back, front = det.row_edges_yz()
        centres = det.row_yz()
        np.testing.assert_allclose(front[:, 1] - centres[:, 1], 100.0)
        np.testing.assert_allclose(centres[:, 1] - back[:, 1], 100.0)

    def test_row_index_out_of_range(self):
        det = Detector(n_rows=4, n_cols=4)
        with pytest.raises(ValidationError):
            det.row_yz([5])

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValidationError):
            Detector(n_rows=0, n_cols=5)
        with pytest.raises(ValidationError):
            Detector(n_rows=5, n_cols=5, pixel_size=-1.0)
