"""Unit tests for the synthetic sample models and the wire-scan forward model."""

import numpy as np
import pytest

from repro.geometry.beam import Beam
from repro.geometry.detector import Detector
from repro.geometry.wire import Wire
from repro.synthetic.forward_model import (
    design_scan_for_depth_range,
    simulate_wire_scan,
    visibility_matrix,
)
from repro.synthetic.sample import DepthSourceField, Grain, GrainSample
from repro.utils.validation import ValidationError


@pytest.fixture()
def detector():
    return Detector(n_rows=6, n_cols=4, pixel_size=200.0, distance=510_000.0)


@pytest.fixture()
def depth_samples():
    return np.linspace(0.0, 100.0, 50, endpoint=False) + 1.0


class TestDepthSourceField:
    def test_point_source_construction(self, detector, depth_samples):
        field = DepthSourceField.point_source(detector, 40.0, depth_samples, intensity=10.0)
        assert field.n_depths == 50
        assert field.source.sum() == pytest.approx(10.0 * np.prod(detector.shape))

    def test_true_centroid_depth(self, detector, depth_samples):
        field = DepthSourceField.point_source(detector, 40.0, depth_samples)
        centroid = field.true_centroid_depth()
        nearest = depth_samples[np.argmin(np.abs(depth_samples - 40.0))]
        np.testing.assert_allclose(centroid[np.isfinite(centroid)], nearest)

    def test_total_image(self, detector, depth_samples):
        field = DepthSourceField.point_source(detector, 40.0, depth_samples, intensity=5.0)
        np.testing.assert_allclose(field.total_image(), 5.0)

    def test_validation(self, detector, depth_samples):
        with pytest.raises(ValidationError):
            DepthSourceField(depth_samples=depth_samples[::-1], source=np.zeros((50, 6, 4)))
        with pytest.raises(ValidationError):
            DepthSourceField(depth_samples=depth_samples, source=np.zeros((10, 6, 4)))
        with pytest.raises(ValidationError):
            DepthSourceField(depth_samples=depth_samples, source=-np.ones((50, 6, 4)))

    def test_depth_range(self, depth_samples, detector):
        field = DepthSourceField.point_source(detector, 40.0, depth_samples)
        lo, hi = field.depth_samples[0], field.depth_samples[-1]
        assert lo == depth_samples[0] and hi == depth_samples[-1]


class TestGrainSample:
    def test_grain_validation(self):
        with pytest.raises(ValidationError):
            Grain(depth_start=10.0, depth_stop=5.0, orientation=None)

    def test_random_column_fills_range(self, rng):
        sample = GrainSample.random_column("Cu", 4, (0.0, 100.0), rng)
        assert len(sample.grains) == 4
        boundaries = sample.true_grain_boundaries()
        assert boundaries[0] == 0.0 and boundaries[-1] == 100.0
        total = sum(g.depth_stop - g.depth_start for g in sample.grains)
        assert np.isclose(total, 100.0)

    def test_material_symbol_resolved(self, rng):
        sample = GrainSample.random_column("Si", 2, (0.0, 50.0), rng)
        assert sample.material.name == "Si"

    def test_empty_grain_list_rejected(self):
        with pytest.raises(ValidationError):
            GrainSample(material="Cu", grains=[])

    def test_to_source_field_emits_from_grain_depths(self, rng):
        detector = Detector(n_rows=48, n_cols=48, pixel_size=8000.0, distance=510_000.0)
        sample = GrainSample.random_column("Cu", 2, (0.0, 100.0), rng)
        depth_samples = np.linspace(0.0, 100.0, 64, endpoint=False) + 0.5
        field = sample.to_source_field(detector, Beam(), depth_samples)
        assert field.source.shape == (64, 48, 48)
        assert field.source.sum() > 0
        # every depth sample with emission must lie inside some grain interval
        per_depth = field.source.sum(axis=(1, 2))
        emitting = depth_samples[per_depth > 1e-12]
        for depth in emitting:
            assert any(g.depth_start - 1.0 <= depth <= g.depth_stop + 1.0 for g in sample.grains)


class TestVisibilityMatrix:
    def test_shape_and_range(self, detector, depth_samples):
        scan = design_scan_for_depth_range(detector, (0.0, 100.0), n_points=21)
        vis = visibility_matrix(scan, detector, depth_samples)
        assert vis.shape == (21, detector.n_rows, 50)
        assert np.all((vis >= 0) & (vis <= 1))

    def test_wire_far_away_everything_visible(self, detector, depth_samples):
        from repro.geometry.scan import WireScan

        scan = WireScan.linear(wire=Wire(radius=26.0), n_points=3, height=1500.0,
                               z_start=500_000.0, z_stop=500_100.0)
        vis = visibility_matrix(scan, detector, depth_samples)
        np.testing.assert_allclose(vis, 1.0)

    def test_each_depth_gets_occluded_somewhere_in_scan(self, detector, depth_samples):
        scan = design_scan_for_depth_range(detector, (0.0, 100.0), n_points=101)
        vis = visibility_matrix(scan, detector, depth_samples)
        # for every (row, depth), at least one wire position blocks the ray
        blocked_somewhere = (vis < 0.5).any(axis=0)
        assert blocked_somewhere.all()

    def test_subpixel_gives_fractional_values(self, detector, depth_samples):
        scan = design_scan_for_depth_range(detector, (0.0, 100.0), n_points=41)
        vis = visibility_matrix(scan, detector, depth_samples, subpixel=4)
        assert np.any((vis > 0) & (vis < 1))

    def test_invalid_subpixel(self, detector, depth_samples):
        scan = design_scan_for_depth_range(detector, (0.0, 100.0), n_points=11)
        with pytest.raises(ValidationError):
            visibility_matrix(scan, detector, depth_samples, subpixel=0)


class TestSimulateWireScan:
    def test_stack_shape_and_metadata(self, detector, depth_samples):
        field = DepthSourceField.point_source(detector, 30.0, depth_samples, intensity=100.0)
        scan = design_scan_for_depth_range(detector, (0.0, 100.0), n_points=31)
        stack = simulate_wire_scan(field, scan, detector, metadata={"id": 1})
        assert stack.shape == (31, detector.n_rows, detector.n_cols)
        assert stack.metadata["id"] == 1

    def test_intensity_bounded_by_wire_free_image(self, detector, depth_samples):
        field = DepthSourceField.point_source(detector, 30.0, depth_samples, intensity=100.0)
        scan = design_scan_for_depth_range(detector, (0.0, 100.0), n_points=31)
        stack = simulate_wire_scan(field, scan, detector)
        assert np.all(stack.images <= field.total_image()[None, :, :] + 1e-9)

    def test_occlusion_happens_during_scan(self, detector, depth_samples):
        field = DepthSourceField.point_source(detector, 30.0, depth_samples, intensity=100.0)
        scan = design_scan_for_depth_range(detector, (0.0, 100.0), n_points=61)
        stack = simulate_wire_scan(field, scan, detector)
        # every pixel sees the emitter at the start of the scan and loses it
        # at some point (single-edge regime designed by design_scan_...)
        assert np.all(stack.images.min(axis=0) < stack.images.max(axis=0))

    def test_shape_mismatch_rejected(self, detector, depth_samples):
        other = Detector(n_rows=3, n_cols=3)
        field = DepthSourceField.point_source(other, 30.0, depth_samples)
        scan = design_scan_for_depth_range(detector, (0.0, 100.0), n_points=11)
        with pytest.raises(ValidationError):
            simulate_wire_scan(field, scan, detector)

    def test_non_canonical_beam_rejected(self, detector, depth_samples):
        field = DepthSourceField.point_source(detector, 30.0, depth_samples)
        scan = design_scan_for_depth_range(detector, (0.0, 100.0), n_points=11)
        with pytest.raises(ValidationError):
            simulate_wire_scan(field, scan, detector, beam=Beam(direction=(0, 1, 0)))


class TestScanDesign:
    def test_single_edge_regime(self, detector):
        scan = design_scan_for_depth_range(detector, (0.0, 100.0), n_points=51)
        travel = np.ptp(scan.positions[:, 1])
        assert 2.0 * scan.wire.radius > travel

    def test_depth_range_validation(self, detector):
        with pytest.raises(ValidationError):
            design_scan_for_depth_range(detector, (100.0, 0.0))

    def test_larger_detector_needs_longer_scan(self):
        small = Detector(n_rows=4, n_cols=4)
        large = Detector(n_rows=64, n_cols=4)
        scan_small = design_scan_for_depth_range(small, (0.0, 100.0))
        scan_large = design_scan_for_depth_range(large, (0.0, 100.0))
        assert np.ptp(scan_large.positions[:, 1]) > np.ptp(scan_small.positions[:, 1])
