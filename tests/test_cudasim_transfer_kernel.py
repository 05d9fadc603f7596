"""Unit tests for simulated transfers and kernel launches."""

import numpy as np
import pytest

from repro.cudasim.device import Device, GENERIC_LAPTOP_GPU
from repro.cudasim.errors import LaunchConfigError, TransferError
from repro.cudasim.kernel import Kernel, LaunchConfig, launch
from repro.cudasim.transfer import memcpy_device_to_host, memcpy_host_to_device


@pytest.fixture()
def device():
    return Device(GENERIC_LAPTOP_GPU)


class TestTransfers:
    def test_h2d_then_d2h_roundtrip(self, device):
        data = np.arange(24, dtype=np.float64).reshape(4, 6)
        buf = device.memory.allocate(data.shape, data.dtype)
        memcpy_host_to_device(device, buf, data)
        out = np.zeros_like(data)
        memcpy_device_to_host(device, out, buf)
        np.testing.assert_array_equal(out, data)

    def test_transfers_advance_clock(self, device):
        data = np.ones(1000, dtype=np.float64)
        buf = device.memory.allocate(data.shape, data.dtype)
        before = device.simulated_time
        memcpy_host_to_device(device, buf, data)
        assert device.simulated_time > before

    def test_transfer_time_matches_model(self, device):
        data = np.ones(1 << 16, dtype=np.float64)
        buf = device.memory.allocate(data.shape, data.dtype)
        seconds = memcpy_host_to_device(device, buf, data)
        assert np.isclose(seconds, device.perf.transfer_time(data.nbytes))

    def test_dtype_mismatch_rejected(self, device):
        buf = device.memory.allocate((4,), np.float64)
        with pytest.raises(TransferError):
            memcpy_host_to_device(device, buf, np.zeros(4, dtype=np.float32))

    def test_size_mismatch_rejected(self, device):
        buf = device.memory.allocate((4,), np.float64)
        with pytest.raises(TransferError):
            memcpy_host_to_device(device, buf, np.zeros(5, dtype=np.float64))

    def test_d2h_requires_contiguous_destination(self, device):
        buf = device.memory.allocate((4,), np.float64)
        strided = np.zeros(8, dtype=np.float64)[::2]
        with pytest.raises(TransferError):
            memcpy_device_to_host(device, strided, buf)

    def test_profiler_kinds_recorded(self, device):
        data = np.arange(8, dtype=np.float64)
        buf = device.memory.allocate(data.shape, data.dtype)
        memcpy_host_to_device(device, buf, data)
        memcpy_device_to_host(device, np.zeros_like(data), buf)
        kinds = device.profiler.count_by_kind()
        assert kinds == {"memcpy_h2d": 1, "memcpy_d2h": 1}


class TestLaunchConfig:
    def test_for_volume_ceiling_division(self):
        cfg = LaunchConfig.for_volume((9, 2, 4), block_dim=(4, 2, 4))
        assert cfg.grid_dim == (3, 1, 1)
        assert cfg.threads_per_block == 32

    def test_total_threads_includes_overhang(self):
        cfg = LaunchConfig.for_volume((9, 2, 4), block_dim=(4, 2, 4))
        assert cfg.total_threads == 3 * 1 * 1 * 32
        assert cfg.thread_extent() == (12, 2, 4)

    def test_paper_example_thread_count(self):
        # the paper's Fig. 6 example: 2 rows x 9 cols x 4 images = 72 threads
        cfg = LaunchConfig.for_volume((9, 2, 4), block_dim=(9, 2, 4))
        assert cfg.total_threads == 72

    def test_thread_indices_cover_lattice_uniquely(self):
        cfg = LaunchConfig.for_volume((3, 2, 2), block_dim=(3, 2, 2))
        ix, iy, iz = cfg.thread_indices()
        coords = set(zip(ix.tolist(), iy.tolist(), iz.tolist()))
        assert len(coords) == cfg.total_threads

    def test_invalid_volume_rejected(self):
        with pytest.raises(LaunchConfigError):
            LaunchConfig.for_volume((0, 2, 2))

    def test_invalid_block_rejected(self):
        with pytest.raises(LaunchConfigError):
            LaunchConfig(grid_dim=(1, 1, 1), block_dim=(0, 1, 1))


class TestKernelLaunch:
    def test_vectorized_and_per_thread_agree(self, device):
        counts_a = np.zeros(64)
        counts_b = np.zeros(64)

        def per_thread(tx, ty, tz, out):
            if tx < 4 and ty < 4 and tz < 4:
                out[tx + 4 * ty + 16 * tz] += tx + ty + tz

        def vectorized(ix, iy, iz, out):
            mask = (ix < 4) & (iy < 4) & (iz < 4)
            np.add.at(out, ix[mask] + 4 * iy[mask] + 16 * iz[mask], (ix + iy + iz)[mask])

        kernel = Kernel(name="sum3", per_thread=per_thread, vectorized=vectorized)
        cfg = LaunchConfig.for_volume((4, 4, 4), block_dim=(2, 2, 2))
        launch(device, kernel, cfg, counts_a, mode="per_thread")
        launch(device, kernel, cfg, counts_b, mode="vectorized")
        np.testing.assert_array_equal(counts_a, counts_b)

    def test_launch_advances_clock_and_profiles(self, device):
        kernel = Kernel(name="noop", vectorized=lambda ix, iy, iz: None)
        cfg = LaunchConfig.for_volume((8, 8, 1))
        seconds = launch(device, kernel, cfg)
        assert seconds > 0
        assert device.profiler.count_by_kind()["kernel"] == 1

    def test_launch_validates_against_device(self, device):
        kernel = Kernel(name="noop", vectorized=lambda ix, iy, iz: None)
        too_big_block = LaunchConfig(grid_dim=(1, 1, 1), block_dim=(64, 32, 2))
        with pytest.raises(LaunchConfigError):
            launch(device, kernel, too_big_block)

    def test_forcing_missing_body_raises(self, device):
        kernel = Kernel(name="vec-only", vectorized=lambda ix, iy, iz: None)
        cfg = LaunchConfig.for_volume((2, 2, 1))
        with pytest.raises(LaunchConfigError):
            launch(device, kernel, cfg, mode="per_thread")

    def test_kernel_requires_some_body(self):
        with pytest.raises(ValueError):
            Kernel(name="empty")

    def test_unknown_mode_rejected(self, device):
        kernel = Kernel(name="noop", vectorized=lambda ix, iy, iz: None)
        cfg = LaunchConfig.for_volume((2, 2, 1))
        with pytest.raises(ValueError):
            launch(device, kernel, cfg, mode="bogus")
