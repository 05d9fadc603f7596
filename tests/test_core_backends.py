"""Cross-backend tests: every backend must produce the same reconstruction."""

import numpy as np
import pytest

from repro.core.backends import available_backends, get_backend, register_backend
from repro.core.backends.base import Backend, build_kernel_context
from repro.core.config import ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.cudasim.device import Device, GENERIC_LAPTOP_GPU
from repro.utils.validation import ValidationError

ALL_BACKENDS = ("cpu_reference", "vectorized", "gpusim", "threaded")


class TestRegistry:
    def test_all_expected_backends_registered(self):
        names = available_backends()
        for name in ALL_BACKENDS:
            assert name in names

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError):
            get_backend("does-not-exist")

    def test_register_requires_name(self):
        with pytest.raises(ValidationError):
            @register_backend
            class Nameless(Backend):  # pragma: no cover - definition only
                name = ""

                def reconstruct(self, stack, config):
                    raise NotImplementedError


class TestBackendEquivalence:
    @pytest.fixture()
    def reference_result(self, point_source_stack, default_config):
        stack, _ = point_source_stack
        result, _ = get_backend("cpu_reference").reconstruct(stack, default_config.with_backend("cpu_reference"))
        return result

    @pytest.mark.parametrize("backend_name", ["vectorized", "gpusim", "threaded"])
    def test_backend_matches_reference(self, backend_name, point_source_stack, default_config, reference_result):
        stack, _ = point_source_stack
        config = default_config.with_backend(backend_name)
        result, report = get_backend(backend_name).reconstruct(stack, config)
        np.testing.assert_allclose(result.data, reference_result.data, rtol=1e-8, atol=1e-10)
        assert report.backend == backend_name
        assert report.wall_time >= 0

    def test_gpusim_layouts_agree(self, point_source_stack, default_config):
        stack, _ = point_source_stack
        flat, _ = get_backend("gpusim").reconstruct(stack, default_config.with_backend("gpusim", layout="flat1d"))
        ptr, _ = get_backend("gpusim").reconstruct(stack, default_config.with_backend("gpusim", layout="pointer3d"))
        np.testing.assert_allclose(flat.data, ptr.data, rtol=1e-12, atol=1e-14)

    def test_gpusim_chunked_equals_unchunked(self, point_source_stack, default_config):
        stack, _ = point_source_stack
        unchunked, rep_a = get_backend("gpusim").reconstruct(
            stack, default_config.with_backend("gpusim")
        )
        chunked, rep_b = get_backend("gpusim").reconstruct(
            stack, default_config.with_backend("gpusim", rows_per_chunk=2)
        )
        np.testing.assert_allclose(chunked.data, unchunked.data, rtol=1e-12, atol=1e-14)
        assert rep_b.n_chunks > rep_a.n_chunks

    def test_gpusim_small_memory_forces_chunking(self, point_source_stack, default_config):
        stack, _ = point_source_stack
        config = default_config.with_backend("gpusim", device_memory_limit=16 * 1024)
        result, report = get_backend("gpusim").reconstruct(stack, config)
        assert report.n_chunks > 1
        assert result.total_intensity() > 0

    def test_threaded_worker_counts_agree(self, point_source_stack, default_config):
        stack, _ = point_source_stack
        one, _ = get_backend("threaded").reconstruct(stack, default_config.with_backend("threaded", n_workers=1))
        three, _ = get_backend("threaded").reconstruct(stack, default_config.with_backend("threaded", n_workers=3))
        np.testing.assert_allclose(one.data, three.data, rtol=1e-12, atol=1e-14)


class TestGpuSimAccounting:
    def test_transfer_and_compute_times_reported(self, point_source_stack, default_config):
        stack, _ = point_source_stack
        _, report = get_backend("gpusim").reconstruct(stack, default_config.with_backend("gpusim"))
        assert report.simulated_device_time > 0
        assert report.transfer_time > 0
        assert report.compute_time > 0
        assert np.isclose(report.simulated_device_time, report.transfer_time + report.compute_time, rtol=1e-6)
        assert report.h2d_bytes >= stack.nbytes
        assert report.d2h_bytes > 0

    def test_pointer3d_transfers_more_bytes(self, point_source_stack, default_config):
        stack, _ = point_source_stack
        _, flat = get_backend("gpusim").reconstruct(stack, default_config.with_backend("gpusim", layout="flat1d"))
        _, ptr = get_backend("gpusim").reconstruct(stack, default_config.with_backend("gpusim", layout="pointer3d"))
        assert ptr.h2d_bytes > flat.h2d_bytes
        assert ptr.transfer_time > flat.transfer_time

    def test_device_memory_is_released(self, point_source_stack, default_config):
        stack, _ = point_source_stack
        device = Device(GENERIC_LAPTOP_GPU)
        from repro.core.backends.gpusim import GpuSimBackend

        backend = GpuSimBackend(device=device)
        backend.reconstruct(stack, default_config.with_backend("gpusim"))
        assert device.memory.used_bytes == 0

    def test_per_thread_launch_mode_matches_vectorized(self, depth_grid):
        # run the faithful per-thread simulated launch on a very small stack
        from tests.helpers import make_tiny_stack
        from repro.core.backends.gpusim import GpuSimBackend

        stack = make_tiny_stack(n_rows=3, n_cols=2, n_positions=7)
        config = ReconstructionConfig(grid=DepthGrid.from_range(0.0, 100.0, 10), backend="gpusim")
        fast, _ = GpuSimBackend(launch_mode="vectorized").reconstruct(stack, config)
        slow, _ = GpuSimBackend(launch_mode="per_thread").reconstruct(stack, config)
        np.testing.assert_allclose(slow.data, fast.data, rtol=1e-9, atol=1e-12)


class TestBackendHelpers:
    def test_count_active_elements_respects_mask_and_cutoff(self, point_source_stack, default_config):
        stack, _ = point_source_stack
        full = Backend.count_active_elements(stack, default_config)
        masked_stack = stack.with_pixel_mask(np.zeros((stack.n_rows, stack.n_cols), dtype=bool))
        assert Backend.count_active_elements(masked_stack, default_config) == 0
        high_cutoff = default_config.with_overrides(intensity_cutoff=1e12)
        assert Backend.count_active_elements(stack, high_cutoff) == 0
        assert full > 0

    def test_build_kernel_context_row_range_validation(self, point_source_stack, default_config):
        stack, _ = point_source_stack
        with pytest.raises(ValidationError):
            build_kernel_context(stack, default_config, 4, 2)

    def test_build_kernel_context_background_subtraction(self, point_source_stack, default_config):
        stack, _ = point_source_stack
        plain = build_kernel_context(stack, default_config)
        config = default_config.with_overrides(subtract_background=True)
        subtracted = build_kernel_context(stack, config)
        assert not np.allclose(plain.images, subtracted.images) or np.allclose(
            np.median(stack.images, axis=(1, 2)), 0.0
        )
