"""Unit tests for image-stack IO and text output."""

import numpy as np
import pytest

from repro.core.depth_grid import DepthGrid
from repro.core.result import DepthResolvedStack
from repro.io.h5lite import H5LiteError, H5LiteFile
from repro.io.image_stack import (
    load_depth_resolved,
    load_wire_scan,
    save_depth_resolved,
    save_wire_scan,
)
from repro.io.text_output import read_depth_profiles, write_depth_profiles

from tests.helpers import make_tiny_stack


class TestWireScanIO:
    def test_roundtrip_preserves_everything(self, tmp_path, point_source_stack):
        stack, _ = point_source_stack
        stack.metadata["note"] = "roundtrip"
        path = tmp_path / "scan.h5lite"
        save_wire_scan(path, stack)
        loaded = load_wire_scan(path)

        np.testing.assert_allclose(loaded.images, stack.images)
        np.testing.assert_allclose(loaded.scan.positions, stack.scan.positions)
        assert loaded.scan.wire.radius == stack.scan.wire.radius
        assert loaded.detector.shape == stack.detector.shape
        assert loaded.detector.pixel_size == stack.detector.pixel_size
        assert loaded.detector.distance == stack.detector.distance
        assert tuple(loaded.detector.center) == tuple(stack.detector.center)
        np.testing.assert_allclose(loaded.beam.unit_direction, stack.beam.unit_direction)
        assert loaded.metadata["note"] == "roundtrip"
        assert loaded.pixel_mask is None

    def test_roundtrip_with_pixel_mask(self, tmp_path):
        stack = make_tiny_stack(n_rows=4, n_cols=3)
        mask = np.zeros((4, 3), dtype=bool)
        mask[1, 2] = True
        stack = stack.with_pixel_mask(mask)
        path = tmp_path / "masked.h5lite"
        save_wire_scan(path, stack)
        loaded = load_wire_scan(path)
        np.testing.assert_array_equal(loaded.pixel_mask, mask)

    def test_reconstruction_identical_after_roundtrip(self, tmp_path, point_source_stack, depth_grid):
        from repro.core.session import session

        stack, _ = point_source_stack
        path = tmp_path / "scan.h5lite"
        save_wire_scan(path, stack)
        loaded = load_wire_scan(path)
        sess = session(grid=depth_grid)
        original = sess.run(stack).result
        reloaded = sess.run(loaded).result
        np.testing.assert_allclose(reloaded.data, original.data, rtol=1e-12, atol=1e-14)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_group("entry").attrs["format"] = "something-else"
        with pytest.raises(H5LiteError):
            load_wire_scan(path)

    def test_missing_entry_rejected(self, tmp_path):
        path = tmp_path / "empty.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("misc", np.zeros(1))
        with pytest.raises(H5LiteError):
            load_wire_scan(path)


class TestDepthResolvedIO:
    def test_roundtrip(self, tmp_path):
        grid = DepthGrid.from_range(0.0, 50.0, 10)
        data = np.random.default_rng(2).random((10, 3, 4))
        result = DepthResolvedStack(data=data, grid=grid, metadata={"backend": "vectorized"})
        path = tmp_path / "depth.h5lite"
        save_depth_resolved(path, result)
        loaded = load_depth_resolved(path)
        np.testing.assert_allclose(loaded.data, data)
        assert loaded.grid == grid
        assert loaded.metadata["backend"] == "vectorized"

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_group("entry").attrs["format"] = "repro-wire-scan"
        with pytest.raises(H5LiteError):
            load_depth_resolved(path)


class TestTextOutput:
    def test_roundtrip_profiles(self, tmp_path):
        grid = DepthGrid.from_range(0.0, 20.0, 8)
        data = np.random.default_rng(3).random((8, 2, 2))
        result = DepthResolvedStack(data=data, grid=grid)
        path = tmp_path / "profiles.txt"
        write_depth_profiles(path, result, [(0, 0), (1, 1)])
        depths, profiles = read_depth_profiles(path)
        np.testing.assert_allclose(depths, grid.centers)
        np.testing.assert_allclose(profiles[(0, 0)], data[:, 0, 0], rtol=1e-9)
        np.testing.assert_allclose(profiles[(1, 1)], data[:, 1, 1], rtol=1e-9)

    def test_file_is_human_readable(self, tmp_path):
        grid = DepthGrid.from_range(0.0, 10.0, 4)
        result = DepthResolvedStack(data=np.ones((4, 1, 1)), grid=grid)
        path = tmp_path / "p.txt"
        write_depth_profiles(path, result, [(0, 0)])
        text = path.read_text()
        assert text.startswith("# repro depth profiles")
        assert "depth_um" in text
