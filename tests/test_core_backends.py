"""Cross-backend tests: every backend must produce the same reconstruction."""

import numpy as np
import pytest

from repro.core.backends import available_backends, get_backend, register_backend
from repro.core.backends.base import Backend
from repro.core.config import ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.core.engine import StackChunkSource, build_chunk_context, build_execution_plan
from repro.cudasim.device import Device, GENERIC_LAPTOP_GPU
from repro.utils.validation import ValidationError
from tests.helpers import RUNS

ALL_BACKENDS = ("cpu_reference", "vectorized", "gpusim")


class TestRegistry:
    def test_all_expected_backends_registered(self):
        names = available_backends()
        for name in ALL_BACKENDS:
            assert name in names
        assert "threaded" not in names  # an executor now, not a backend

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

    @pytest.mark.parametrize("run", ["vectorized", "gpusim", "threaded"])
    def test_backend_matches_reference(self, run, point_source_stack, default_config, reference_result):
        stack, _ = point_source_stack
        config = default_config.with_overrides(**RUNS[run])
        result, report = get_backend(config.backend).reconstruct(stack, config)
        assert np.array_equal(result.data, reference_result.data)
        assert report.backend == config.backend  # "vectorized" for the threads run
        assert report.wall_time >= 0

    def test_gpusim_layouts_agree(self, point_source_stack, default_config):
        stack, _ = point_source_stack
        flat, _ = get_backend("gpusim").reconstruct(stack, default_config.with_backend("gpusim", layout="flat1d"))
        ptr, _ = get_backend("gpusim").reconstruct(stack, default_config.with_backend("gpusim", layout="pointer3d"))
        assert np.array_equal(flat.data, ptr.data)

    def test_gpusim_chunked_equals_unchunked(self, point_source_stack, default_config):
        stack, _ = point_source_stack
        unchunked, rep_a = get_backend("gpusim").reconstruct(
            stack, default_config.with_backend("gpusim")
        )
        chunked, rep_b = get_backend("gpusim").reconstruct(
            stack, default_config.with_backend("gpusim", rows_per_chunk=2)
        )
        assert np.array_equal(chunked.data, unchunked.data)
        assert rep_b.n_chunks > rep_a.n_chunks

    def test_gpusim_small_memory_forces_chunking(self, point_source_stack, default_config):
        stack, _ = point_source_stack
        config = default_config.with_backend("gpusim", device_memory_limit=16 * 1024)
        result, report = get_backend("gpusim").reconstruct(stack, config)
        assert report.n_chunks > 1
        assert result.total_intensity() > 0

    def test_threaded_worker_counts_agree(self, point_source_stack, default_config):
        stack, _ = point_source_stack
        threads = default_config.with_overrides(executor="threads")
        one, _ = get_backend("vectorized").reconstruct(stack, threads.with_overrides(n_workers=1))
        three, _ = get_backend("vectorized").reconstruct(stack, threads.with_overrides(n_workers=3))
        assert np.array_equal(one.data, three.data)


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
        assert np.array_equal(slow.data, fast.data)


class TestBackendHelpers:
    def test_build_chunk_context_row_range_validation(self, point_source_stack, default_config):
        stack, _ = point_source_stack
        source = StackChunkSource(stack)
        plan = build_execution_plan(source, default_config)
        with pytest.raises(ValidationError):
            build_chunk_context(source, default_config, plan, 4, 2)

    def test_build_chunk_context_background_subtraction(self, point_source_stack, default_config):
        stack, _ = point_source_stack
        source = StackChunkSource(stack)
        plain_plan = build_execution_plan(source, default_config)
        plain = build_chunk_context(source, default_config, plain_plan, 0, source.n_rows)
        config = default_config.with_overrides(subtract_background=True)
        plan = build_execution_plan(source, config)
        subtracted = build_chunk_context(source, config, plan, 0, source.n_rows)
        assert not np.allclose(plain.images, subtracted.images) or np.allclose(
            np.median(stack.images, axis=(1, 2)), 0.0
        )
