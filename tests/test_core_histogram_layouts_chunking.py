"""Unit tests for the histogram accumulator, device layouts and chunk planner."""

import itertools

import numpy as np
import pytest

from repro.core.chunking import (
    ChunkPlan,
    estimate_chunk_device_bytes,
    plan_row_chunks,
    plan_worker_bands,
)
from repro.core.depth_grid import DepthGrid
from repro.core.histogram import DepthHistogram, add_pixel_intensity_at_index
from repro.core.layouts import Flat1DLayout, Pointer3DLayout, get_layout
from repro.cudasim.device import Device, GENERIC_LAPTOP_GPU
from repro.utils.validation import ValidationError


@pytest.fixture()
def grid():
    return DepthGrid.from_range(0.0, 10.0, 5)


class TestDepthHistogram:
    def test_shape(self, grid):
        hist = DepthHistogram(grid, n_rows=3, n_cols=4)
        assert hist.shape == (5, 3, 4)

    def test_add_contributions_accumulates_repeats(self, grid):
        hist = DepthHistogram(grid, 2, 2)
        weights = np.ones((3, 5))
        hist.add_contributions(rows=[0, 0, 1], cols=[1, 1, 0], bin_weights=weights)
        assert np.isclose(hist.data[:, 0, 1].sum(), 10.0)
        assert np.isclose(hist.data[:, 1, 0].sum(), 5.0)

    def test_total_is_conserved(self, grid):
        hist = DepthHistogram(grid, 4, 4)
        rng = np.random.default_rng(0)
        weights = rng.random((20, 5))
        rows = rng.integers(0, 4, 20)
        cols = rng.integers(0, 4, 20)
        hist.add_contributions(rows, cols, weights)
        assert np.isclose(hist.data.sum(), weights.sum())

    def test_shape_validation(self, grid):
        hist = DepthHistogram(grid, 2, 2)
        with pytest.raises(ValidationError):
            hist.add_contributions([0], [0], np.ones((1, 3)))
        with pytest.raises(ValidationError):
            hist.add_contributions([0, 1], [0], np.ones((2, 5)))

    def test_out_of_range_pixels_rejected(self, grid):
        hist = DepthHistogram(grid, 2, 2)
        with pytest.raises(ValidationError):
            hist.add_contributions([2], [0], np.ones((1, 5)))

    def test_merge_partial(self, grid):
        hist = DepthHistogram(grid, 4, 3)
        partial = np.ones((5, 2, 3))
        hist.merge_partial(partial, row_start=1)
        assert hist.data[:, 0, :].sum() == 0
        assert np.isclose(hist.data[:, 1:3, :].sum(), partial.sum())

    def test_merge_partial_bad_rows(self, grid):
        hist = DepthHistogram(grid, 4, 3)
        with pytest.raises(ValidationError):
            hist.merge_partial(np.ones((5, 2, 3)), row_start=3)

    def test_add_histogram(self, grid):
        a = DepthHistogram(grid, 2, 2)
        b = DepthHistogram(grid, 2, 2)
        a.data[0, 0, 0] = 1.0
        b.data[0, 0, 0] = 2.0
        a.add_histogram(b)
        assert a.data[0, 0, 0] == 3.0

    def test_reset(self, grid):
        hist = DepthHistogram(grid, 2, 2)
        hist.data[...] = 5.0
        hist.reset()
        assert hist.data.sum() == 0.0

    def test_to_result(self, grid):
        hist = DepthHistogram(grid, 2, 2)
        result = hist.to_result({"note": "x"})
        assert result.shape == (5, 2, 2)
        assert result.metadata["note"] == "x"

    def test_to_result_hands_over_the_buffer(self, grid):
        """The output cube is handed over, never copied."""
        hist = DepthHistogram(grid, 2, 2)
        buffer = hist.data
        buffer[1, 0, 1] = 3.0
        result = hist.to_result()
        assert np.shares_memory(result.data, buffer)
        assert result.data[1, 0, 1] == 3.0

    def test_flat_index_scatter(self, grid):
        cube = np.zeros((5, 2, 2))
        add_pixel_intensity_at_index(cube, [0, 0, 19], [1.0, 1.0, 3.0])
        assert cube[0, 0, 0] == 2.0
        assert cube[4, 1, 1] == 3.0


class TestLayouts:
    def test_get_layout(self):
        assert isinstance(get_layout("flat1d"), Flat1DLayout)
        assert isinstance(get_layout("pointer3d"), Pointer3DLayout)
        with pytest.raises(ValidationError):
            get_layout("bogus")

    def test_flat1d_single_transfer(self):
        device = Device(GENERIC_LAPTOP_GPU)
        cube = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        upload = Flat1DLayout().upload(device, cube)
        assert upload.n_transfers == 1
        assert upload.bytes_transferred == cube.nbytes
        np.testing.assert_array_equal(Flat1DLayout().read_cube(upload, cube.shape), cube)
        upload.free()

    def test_pointer3d_transfers_per_slab_plus_pointer_table(self):
        device = Device(GENERIC_LAPTOP_GPU)
        cube = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        layout = Pointer3DLayout()
        upload = layout.upload(device, cube)
        assert upload.n_transfers == cube.shape[0] + 1
        assert upload.bytes_transferred > cube.nbytes
        np.testing.assert_array_equal(layout.read_cube(upload, cube.shape), cube)
        upload.free()

    def test_pointer3d_needs_more_device_bytes(self):
        shape = (10, 8, 8)
        assert Pointer3DLayout().device_bytes_for(shape) > Flat1DLayout().device_bytes_for(shape)

    def test_pointer3d_costs_more_simulated_transfer_time(self):
        cube = np.ones((16, 8, 8), dtype=np.float64)
        device_flat = Device(GENERIC_LAPTOP_GPU)
        Flat1DLayout().upload(device_flat, cube)
        device_ptr = Device(GENERIC_LAPTOP_GPU)
        Pointer3DLayout().upload(device_ptr, cube)
        assert device_ptr.simulated_time > device_flat.simulated_time

    def test_download_roundtrip_both_layouts(self):
        cube = np.random.default_rng(0).random((3, 4, 5))
        for name in ("flat1d", "pointer3d"):
            device = Device(GENERIC_LAPTOP_GPU)
            layout = get_layout(name)
            upload = layout.upload(device, cube)
            out = np.zeros_like(cube)
            layout.download(device, upload, out)
            np.testing.assert_allclose(out, cube)
            upload.free()
            assert device.memory.used_bytes == 0

    def test_free_releases_memory(self):
        device = Device(GENERIC_LAPTOP_GPU)
        upload = Pointer3DLayout().upload(device, np.ones((4, 2, 2)))
        assert device.memory.used_bytes > 0
        upload.free()
        assert device.memory.used_bytes == 0

    def test_index_arithmetic_cost_differs(self):
        assert Flat1DLayout().index_arithmetic_flops > Pointer3DLayout().index_arithmetic_flops


class TestChunkPlanning:
    def test_estimate_grows_with_rows(self):
        small = estimate_chunk_device_bytes(1, 64, 50, 40)
        large = estimate_chunk_device_bytes(8, 64, 50, 40)
        assert large > small

    def test_estimate_counts_full_working_set(self):
        """The estimate must include the pixel-mask slab and the background
        terms (levels + resident image slab) — they used to be omitted, so
        the streaming planner could pick chunks overshooting the declared
        device budget on masked/background-subtracted runs."""
        rows, n_cols, n_positions, n_bins = 4, 64, 50, 40
        estimate = estimate_chunk_device_bytes(rows, n_cols, n_positions, n_bins, "flat1d")
        input_bytes = Flat1DLayout().device_bytes_for((n_positions, rows, n_cols), 8)
        output_bytes = n_bins * rows * n_cols * 8
        mask_bytes = rows * n_cols * 1
        background_bytes = n_positions * 8 + rows * n_cols * 8
        wire_table = n_positions * 2 * 8
        edge_tables = rows * 4 * 8
        assert estimate == (
            input_bytes + output_bytes + mask_bytes + background_bytes
            + wire_table + edge_tables
        )
        # the omitted terms are really in there: strictly above input+output
        # plus the small tables alone
        assert estimate > input_bytes + output_bytes + wire_table + edge_tables

    def test_plan_covers_all_rows(self):
        plan = plan_row_chunks(100, 64, 50, 40, device_memory_bytes=10 * 1024**2)
        assert plan.covers_all_rows()

    def test_fixed_rows_per_chunk(self):
        plan = plan_row_chunks(10, 16, 20, 10, device_memory_bytes=64 * 1024**2, rows_per_chunk=2)
        assert plan.rows_per_chunk == 2
        assert plan.n_chunks == 5

    def test_auto_rows_respect_memory(self):
        plan = plan_row_chunks(256, 128, 60, 50, device_memory_bytes=2 * 1024**2)
        assert plan.bytes_per_chunk <= 0.9 * 2 * 1024**2
        assert plan.covers_all_rows()

    def test_single_row_does_not_fit(self):
        with pytest.raises(ValidationError):
            plan_row_chunks(10, 4096, 500, 400, device_memory_bytes=1024)

    def test_worker_bands_honour_the_element_floor(self):
        # 30,000 elements per row give a 3-row floor: one 4-row band, not
        # two 2-row bands below the floor
        assert plan_worker_bands(4, 600, 50, 2) == [(0, 4)]
        assert plan_worker_bands(87, 176, 48, 2) == [(0, 44), (44, 87)]
        for n_rows, n_cols, n_steps, n_workers, floor in itertools.product(
            (1, 3, 7, 40), (1, 5, 64), (1, 9), (1, 2, 3, 8), (1, 100, 2000)
        ):
            bands = plan_worker_bands(n_rows, n_cols, n_steps, n_workers, floor)
            assert bands[0][0] == 0 and bands[-1][1] == n_rows
            assert all(a[1] == b[0] for a, b in zip(bands, bands[1:]))
            assert len(bands) <= n_workers
            if len(bands) > 1:
                assert all((stop - start) * n_cols * n_steps >= floor for start, stop in bands)

    def test_fixed_chunk_too_big_rejected(self):
        with pytest.raises(ValidationError):
            plan_row_chunks(64, 1024, 100, 50, device_memory_bytes=1024**2, rows_per_chunk=64)

    def test_larger_memory_means_fewer_chunks(self):
        small = plan_row_chunks(128, 64, 50, 40, device_memory_bytes=2 * 1024**2)
        large = plan_row_chunks(128, 64, 50, 40, device_memory_bytes=64 * 1024**2)
        assert large.n_chunks <= small.n_chunks

    def test_pointer3d_layout_needs_more_chunks_or_equal(self):
        flat = plan_row_chunks(128, 64, 50, 40, device_memory_bytes=2 * 1024**2, layout="flat1d")
        ptr = plan_row_chunks(128, 64, 50, 40, device_memory_bytes=2 * 1024**2, layout="pointer3d")
        assert ptr.n_chunks >= flat.n_chunks

    def test_summary_mentions_chunks(self):
        plan = plan_row_chunks(16, 16, 20, 10, device_memory_bytes=64 * 1024**2, rows_per_chunk=4)
        assert "chunk" in plan.summary()

    def test_invalid_dimensions(self):
        with pytest.raises(ValidationError):
            plan_row_chunks(0, 4, 10, 10, device_memory_bytes=1024**2)
        with pytest.raises(ValidationError):
            plan_row_chunks(4, 4, 1, 10, device_memory_bytes=1024**2)

    def test_plan_is_frozen_dataclass(self):
        plan = plan_row_chunks(8, 8, 10, 10, device_memory_bytes=1024**2)
        assert isinstance(plan, ChunkPlan)
        with pytest.raises(AttributeError):
            plan.n_rows = 3
