"""Unit tests for ReconstructionConfig, WireScanStack and DepthResolvedStack."""

import numpy as np
import pytest

from repro.core.config import DifferenceMode, ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.core.result import DepthResolvedStack, ReconstructionReport
from repro.core.stack import WireScanStack
from repro.geometry.beam import Beam
from repro.geometry.detector import Detector
from repro.geometry.scan import WireScan
from repro.geometry.wire import WireEdge
from repro.utils.validation import ValidationError

from tests.helpers import make_tiny_stack


@pytest.fixture()
def grid():
    return DepthGrid.from_range(0.0, 100.0, 20)


class TestReconstructionConfig:
    def test_defaults(self, grid):
        config = ReconstructionConfig(grid=grid)
        assert config.backend == "vectorized"
        assert config.wire_edge is WireEdge.LEADING
        assert config.difference_mode is DifferenceMode.SIGNED
        assert config.layout == "flat1d"

    def test_with_backend_returns_copy(self, grid):
        config = ReconstructionConfig(grid=grid)
        other = config.with_backend("gpusim", layout="pointer3d")
        assert other.backend == "gpusim"
        assert other.layout == "pointer3d"
        assert config.backend == "vectorized"

    def test_with_overrides(self, grid):
        config = ReconstructionConfig(grid=grid).with_overrides(intensity_cutoff=1.5)
        assert config.intensity_cutoff == 1.5

    def test_invalid_layout(self, grid):
        with pytest.raises(ValidationError):
            ReconstructionConfig(grid=grid, layout="2d")

    def test_invalid_cutoff(self, grid):
        for cutoff in (-1.0, "x", None, True):
            with pytest.raises(ValidationError):
                ReconstructionConfig(grid=grid, intensity_cutoff=cutoff)

    def test_invalid_rows_per_chunk(self, grid):
        for value in (0, "x", 2.5, True):
            with pytest.raises(ValidationError):
                ReconstructionConfig(grid=grid, rows_per_chunk=value)
        # the other optional count: None or an integer >= 1, never a bool
        for value in ("x", 2.5, True):
            with pytest.raises(ValidationError):
                ReconstructionConfig(grid=grid, device_memory_limit=value)

    def test_invalid_workers(self, grid):
        for workers in (0, None, 2.5, True):
            with pytest.raises(ValidationError):
                ReconstructionConfig(grid=grid, n_workers=workers)
        # NumPy integers are counts too, stored as plain ints
        config = ReconstructionConfig(
            grid=grid, rows_per_chunk=np.int64(4), device_memory_limit=np.int64(10**6),
            n_workers=np.int32(3),
        )
        assert [type(value) for value in (
            config.rows_per_chunk, config.device_memory_limit, config.n_workers
        )] == [int, int, int]
        assert (config.rows_per_chunk, config.device_memory_limit, config.n_workers) == (4, 10**6, 3)

    def test_grid_type_checked(self):
        with pytest.raises(ValidationError):
            ReconstructionConfig(grid="not a grid")


class TestWireScanStack:
    def test_tiny_stack_properties(self):
        stack = make_tiny_stack(n_rows=3, n_cols=2, n_positions=9)
        assert stack.shape == (9, 3, 2)
        assert stack.n_steps == 8
        assert stack.nbytes == 9 * 3 * 2 * 8
        assert stack.active_pixel_fraction == 1.0

    def test_differences_shape_and_values(self):
        stack = make_tiny_stack(n_positions=9)
        diffs = stack.differences()
        assert diffs.shape == (8, stack.n_rows, stack.n_cols)
        np.testing.assert_allclose(diffs, stack.images[:-1] - stack.images[1:])

    def test_pixel_mask_fraction(self):
        stack = make_tiny_stack(n_rows=4, n_cols=4)
        mask = np.zeros((4, 4), dtype=bool)
        mask[:2] = True
        masked = stack.with_pixel_mask(mask)
        assert np.isclose(masked.active_pixel_fraction, 0.5)
        np.testing.assert_array_equal(masked.effective_mask(), mask)

    def test_effective_mask_default_all_true(self):
        stack = make_tiny_stack()
        assert stack.effective_mask().all()

    def test_row_slice_geometry_consistent(self):
        stack = make_tiny_stack(n_rows=6, n_cols=3, n_positions=9)
        sub = stack.row_slice(2, 5)
        assert sub.n_rows == 3
        # the sliced detector rows must be at the same lab coordinates as the
        # corresponding rows of the full detector
        np.testing.assert_allclose(sub.detector.row_yz(), stack.detector.row_yz()[2:5], atol=1e-9)
        np.testing.assert_allclose(sub.images, stack.images[:, 2:5, :])

    def test_row_slice_invalid(self):
        stack = make_tiny_stack(n_rows=4)
        with pytest.raises(ValidationError):
            stack.row_slice(3, 2)

    def test_shape_mismatch_rejected(self):
        detector = Detector(n_rows=4, n_cols=4)
        scan = WireScan.linear(n_points=5)
        with pytest.raises(ValidationError):
            WireScanStack(images=np.zeros((5, 3, 4)), scan=scan, detector=detector, beam=Beam())

    def test_positions_mismatch_rejected(self):
        detector = Detector(n_rows=3, n_cols=4)
        scan = WireScan.linear(n_points=5)
        with pytest.raises(ValidationError):
            WireScanStack(images=np.zeros((6, 3, 4)), scan=scan, detector=detector, beam=Beam())

    def test_mask_shape_rejected(self):
        stack = make_tiny_stack(n_rows=3, n_cols=2)
        with pytest.raises(ValidationError):
            stack.with_pixel_mask(np.ones((2, 2), dtype=bool))


class TestDepthResolvedStack:
    def test_basic_accessors(self, grid):
        data = np.zeros((20, 3, 4))
        data[5, 1, 2] = 7.0
        result = DepthResolvedStack(data=data, grid=grid)
        assert result.shape == (20, 3, 4)
        assert result.total_intensity() == 7.0
        np.testing.assert_allclose(result.depth_profile(1, 2)[5], 7.0)
        assert result.integrated_profile()[5] == 7.0

    def test_image_at_depth(self, grid):
        data = np.zeros((20, 2, 2))
        data[3] = 1.0
        result = DepthResolvedStack(data=data, grid=grid)
        depth = grid.index_to_depth(3)
        np.testing.assert_allclose(result.image_at_depth(depth), 1.0)
        with pytest.raises(ValidationError):
            result.image_at_depth(1e6)

    def test_dominant_depth_nan_for_dark_pixels(self, grid):
        data = np.zeros((20, 2, 2))
        data[4, 0, 0] = 3.0
        result = DepthResolvedStack(data=data, grid=grid)
        dominant = result.dominant_depth()
        assert np.isclose(dominant[0, 0], grid.index_to_depth(4))
        assert np.isnan(dominant[1, 1])

    def test_centroid_depth(self, grid):
        data = np.zeros((20, 1, 1))
        data[4, 0, 0] = 1.0
        data[6, 0, 0] = 1.0
        result = DepthResolvedStack(data=data, grid=grid)
        expected = 0.5 * (grid.index_to_depth(4) + grid.index_to_depth(6))
        assert np.isclose(result.centroid_depth()[0, 0], expected)

    def test_addition(self, grid):
        a = DepthResolvedStack(data=np.ones((20, 2, 2)), grid=grid)
        b = DepthResolvedStack(data=np.ones((20, 2, 2)), grid=grid)
        total = a + b
        assert total.total_intensity() == 2 * a.total_intensity()

    def test_addition_mismatched_grid_rejected(self, grid):
        a = DepthResolvedStack(data=np.ones((20, 2, 2)), grid=grid)
        other_grid = DepthGrid.from_range(0.0, 50.0, 20)
        b = DepthResolvedStack(data=np.ones((20, 2, 2)), grid=other_grid)
        # the error must name the differing grids, not just refuse
        with pytest.raises(ValidationError, match=r"different depth grids.*step=5\.0.*step=2\.5"):
            _ = a + b

    def test_addition_mismatched_shape_rejected(self, grid):
        a = DepthResolvedStack(data=np.ones((20, 2, 2)), grid=grid)
        b = DepthResolvedStack(data=np.ones((20, 3, 3)), grid=grid)
        with pytest.raises(ValidationError, match=r"detector shapes.*\(20, 2, 2\).*\(20, 3, 3\)"):
            _ = a + b

    def test_sum_reduction(self, grid):
        stacks = [DepthResolvedStack(data=np.ones((20, 2, 2)), grid=grid) for _ in range(3)]
        total = sum(stacks)
        assert isinstance(total, DepthResolvedStack)
        assert total.total_intensity() == 3 * stacks[0].total_intensity()

    def test_sum_reduction_mismatched_grid_rejected(self, grid):
        other_grid = DepthGrid.from_range(0.0, 50.0, 20)
        stacks = [
            DepthResolvedStack(data=np.ones((20, 2, 2)), grid=grid),
            DepthResolvedStack(data=np.ones((20, 2, 2)), grid=other_grid),
        ]
        with pytest.raises(ValidationError, match="different depth grids"):
            sum(stacks)

    def test_radd_rejects_nonzero(self, grid):
        a = DepthResolvedStack(data=np.ones((20, 2, 2)), grid=grid)
        with pytest.raises(TypeError):
            _ = 1 + a

    def test_shape_validation(self, grid):
        with pytest.raises(ValidationError):
            DepthResolvedStack(data=np.zeros((19, 2, 2)), grid=grid)


class TestReconstructionReport:
    def test_transfer_fraction(self):
        report = ReconstructionReport(backend="x", compute_time=3.0, transfer_time=1.0)
        assert np.isclose(report.transfer_fraction, 0.25)

    def test_transfer_fraction_zero_when_no_time(self):
        assert ReconstructionReport(backend="x").transfer_fraction == 0.0

    def test_summary_contains_backend_and_notes(self):
        report = ReconstructionReport(backend="gpusim", notes=["hello"])
        text = report.summary()
        assert "gpusim" in text
        assert "hello" in text

    def test_to_dict_from_dict_round_trip(self):
        report = ReconstructionReport(
            backend="gpusim", wall_time=1.25, compute_time=0.75, transfer_time=0.5,
            simulated_device_time=1.0, h2d_bytes=1024, d2h_bytes=512, n_chunks=3,
            n_kernel_launches=3, n_threads_launched=300, n_active_pixels=42,
            n_steps=40, layout="pointer3d", notes=["plan[x]", "extra"],
        )
        rebuilt = ReconstructionReport.from_dict(report.to_dict())
        assert rebuilt == report
        # and through a JSON cycle (what the h5lite run record stores)
        import json

        rebuilt = ReconstructionReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert rebuilt == report

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown report field"):
            ReconstructionReport.from_dict({"backend": "x", "warp_factor": 9})

    def test_from_dict_requires_backend(self):
        with pytest.raises(ValidationError, match="backend"):
            ReconstructionReport.from_dict({"wall_time": 1.0})
