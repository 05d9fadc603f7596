"""Tests for the deprecated shims (DepthReconstructor, file pipeline).

The old entry points must keep working — same signatures, same return
shapes, bitwise-identical outputs — while emitting ``DeprecationWarning``
and delegating to the Session front door.  New code should use
``repro.session`` / ``repro.open`` (tested in ``test_session_source.py``).
"""

import numpy as np
import pytest

from repro.core.config import ReconstructionConfig
from repro.core.pipeline import reconstruct_file
from repro.core.reconstruction import DepthReconstructor
from repro.core.session import session
from repro.io.h5lite import H5LiteError
from repro.io.image_stack import load_depth_resolved, save_wire_scan
from repro.io.text_output import read_depth_profiles
from repro.utils.validation import ValidationError


def _reconstructor(*args, **kwargs) -> DepthReconstructor:
    """Build the deprecated reconstructor, asserting it warns."""
    with pytest.warns(DeprecationWarning, match="DepthReconstructor is deprecated"):
        return DepthReconstructor(*args, **kwargs)


class TestDepthReconstructorShim:
    def test_construct_from_grid(self, depth_grid):
        reconstructor = _reconstructor(grid=depth_grid, backend="vectorized")
        assert reconstructor.backend_name == "vectorized"
        assert reconstructor.grid is depth_grid

    def test_construct_from_config(self, depth_grid):
        config = ReconstructionConfig(grid=depth_grid, backend="gpusim")
        reconstructor = _reconstructor(config=config)
        assert reconstructor.backend_name == "gpusim"

    def test_requires_grid_or_config(self):
        with pytest.raises(ValidationError):
            DepthReconstructor()

    def test_rejects_both_config_and_overrides(self, depth_grid):
        config = ReconstructionConfig(grid=depth_grid)
        with pytest.raises(ValidationError):
            DepthReconstructor(config=config, backend="gpusim")

    def test_reconstruct_returns_report_by_default(self, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        reconstructor = _reconstructor(grid=depth_grid)
        result, report = reconstructor.reconstruct(stack)
        assert result.shape[0] == depth_grid.n_bins
        assert report.backend == "vectorized"

    def test_reconstruct_without_report_keeps_report_on_last_run(
        self, point_source_stack, depth_grid
    ):
        """return_report=False keeps the old return shape but no longer loses
        the report: the full RunResult stays on .last_run."""
        stack, _ = point_source_stack
        reconstructor = _reconstructor(grid=depth_grid)
        result = reconstructor.reconstruct(stack, return_report=False)
        assert result.shape[0] == depth_grid.n_bins
        assert reconstructor.last_run is not None
        assert reconstructor.last_run.result is result
        assert reconstructor.last_run.report.backend == "vectorized"
        assert reconstructor.last_run.report.n_chunks >= 1

    def test_with_backend(self, depth_grid):
        reconstructor = _reconstructor(grid=depth_grid).with_backend("gpusim", layout="pointer3d")
        assert reconstructor.backend_name == "gpusim"
        assert reconstructor.config.layout == "pointer3d"

    def test_exposes_equivalent_session(self, depth_grid):
        reconstructor = _reconstructor(grid=depth_grid, backend="gpusim")
        assert reconstructor.session.config == reconstructor.config

    def test_config_remains_assignable(self, depth_grid):
        """The historical class exposed config as a writable attribute."""
        reconstructor = _reconstructor(grid=depth_grid)
        reconstructor.config = reconstructor.config.with_overrides(rows_per_chunk=4)
        assert reconstructor.config.rows_per_chunk == 4
        assert reconstructor.session.config.rows_per_chunk == 4

    def test_compare_backends(self, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        reconstructor = _reconstructor(grid=depth_grid)
        results = reconstructor.compare_backends(stack, ["vectorized", "gpusim"])
        assert set(results) == {"vectorized", "gpusim"}
        np.testing.assert_array_equal(results["vectorized"][0].data, results["gpusim"][0].data)

    def test_point_source_recovered_near_true_depth(self, point_source_stack, depth_grid):
        stack, _source = point_source_stack
        result, _ = _reconstructor(grid=depth_grid).reconstruct(stack)
        integrated = result.integrated_profile()
        peak_depth = depth_grid.index_to_depth(int(np.argmax(integrated)))
        assert abs(peak_depth - 40.0) <= 2.5 * depth_grid.step


class TestPipelineShims:
    def test_file_to_file_roundtrip(self, point_source_stack, depth_grid, tmp_path):
        stack, _ = point_source_stack
        input_path = tmp_path / "scan.h5lite"
        output_path = tmp_path / "depth.h5lite"
        text_path = tmp_path / "profiles.txt"
        save_wire_scan(input_path, stack)

        config = ReconstructionConfig(grid=depth_grid, backend="vectorized")
        with pytest.warns(DeprecationWarning, match="reconstruct_file"):
            outcome = reconstruct_file(
                str(input_path), config, output_path=str(output_path), text_path=str(text_path)
            )
        assert outcome.result.total_intensity() > 0
        assert output_path.exists()
        assert text_path.exists()
        assert outcome.input_path == str(input_path)
        assert outcome.output_path == str(output_path)

        # the saved depth-resolved stack must round-trip
        loaded = load_depth_resolved(output_path)
        np.testing.assert_allclose(loaded.data, outcome.result.data)
        assert loaded.grid == outcome.result.grid

        # the text profile of the brightest pixel must match the result
        depths, profiles = read_depth_profiles(text_path)
        (pixel, profile), = profiles.items()
        np.testing.assert_allclose(profile, outcome.result.depth_profile(*pixel), rtol=1e-6)
        np.testing.assert_allclose(depths, depth_grid.centers)

    def test_pipeline_matches_in_memory_reconstruction(self, point_source_stack, depth_grid, tmp_path):
        stack, _ = point_source_stack
        input_path = tmp_path / "scan.h5lite"
        save_wire_scan(input_path, stack)
        config = ReconstructionConfig(grid=depth_grid, backend="vectorized")
        with pytest.warns(DeprecationWarning, match="reconstruct_file"):
            outcome = reconstruct_file(str(input_path), config)
        direct = session(config=config).run(stack).result
        np.testing.assert_allclose(outcome.result.data, direct.data, rtol=1e-9, atol=1e-12)

    def test_pipeline_with_explicit_text_pixels(self, point_source_stack, depth_grid, tmp_path):
        stack, _ = point_source_stack
        input_path = tmp_path / "scan.h5lite"
        text_path = tmp_path / "profiles.txt"
        save_wire_scan(input_path, stack)
        config = ReconstructionConfig(grid=depth_grid)
        with pytest.warns(DeprecationWarning, match="reconstruct_file"):
            reconstruct_file(
                str(input_path), config, text_path=str(text_path), text_pixels=[(0, 0), (1, 1)]
            )
        _, profiles = read_depth_profiles(text_path)
        assert set(profiles) == {(0, 0), (1, 1)}

    def test_missing_input_raises(self, depth_grid, tmp_path):
        config = ReconstructionConfig(grid=depth_grid)
        with pytest.warns(DeprecationWarning, match="reconstruct_file"):
            with pytest.raises(H5LiteError):
                reconstruct_file(str(tmp_path / "nope.h5lite"), config)
