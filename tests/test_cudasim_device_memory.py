"""Unit tests for the simulated device and its memory pool."""

import numpy as np
import pytest

from repro.cudasim.device import Device, DeviceProperties, GENERIC_LAPTOP_GPU, TESLA_M2070
from repro.cudasim.errors import DeviceMemoryError, InvalidBufferError, LaunchConfigError
from repro.utils.validation import ValidationError


class TestDeviceProperties:
    def test_tesla_m2070_matches_paper(self):
        # the evaluation section: 6 GB memory, 1024 threads/block,
        # block dims 1024x1024x64, grid dims 65535x65535x1
        assert TESLA_M2070.total_memory_bytes == 6 * 1024**3
        assert TESLA_M2070.max_threads_per_block == 1024
        assert TESLA_M2070.max_block_dim == (1024, 1024, 64)
        assert TESLA_M2070.max_grid_dim == (65535, 65535, 1)

    def test_performance_model_uses_device_numbers(self):
        model = TESLA_M2070.performance_model()
        assert model.peak_flops == TESLA_M2070.peak_flops
        assert model.pcie_bandwidth == TESLA_M2070.pcie_bandwidth

    def test_invalid_properties_rejected(self):
        with pytest.raises(ValidationError):
            DeviceProperties(total_memory_bytes=0)


class TestDeviceClock:
    def test_clock_starts_at_zero(self):
        assert Device(GENERIC_LAPTOP_GPU).simulated_time == 0.0

    def test_advance_clock_accumulates_and_records(self):
        device = Device(GENERIC_LAPTOP_GPU)
        device.advance_clock(0.25, label="x", kind="kernel")
        device.advance_clock(0.5, label="y", kind="memcpy_h2d")
        assert np.isclose(device.simulated_time, 0.75)
        assert len(device.profiler.records) == 2

    def test_advance_clock_rejects_negative(self):
        device = Device(GENERIC_LAPTOP_GPU)
        with pytest.raises(ValueError):
            device.advance_clock(-1.0, label="bad", kind="kernel")

    def test_reset_clock(self):
        device = Device(GENERIC_LAPTOP_GPU)
        device.advance_clock(1.0, label="x", kind="kernel")
        device.reset_clock()
        assert device.simulated_time == 0.0
        assert device.profiler.records == []


class TestLaunchValidation:
    def test_valid_launch_accepted(self):
        Device(TESLA_M2070).validate_launch((10, 10, 1), (32, 8, 4))

    def test_too_many_threads_per_block(self):
        with pytest.raises(LaunchConfigError):
            Device(TESLA_M2070).validate_launch((1, 1, 1), (32, 32, 2))

    def test_grid_z_limit_of_the_m2070(self):
        with pytest.raises(LaunchConfigError):
            Device(TESLA_M2070).validate_launch((1, 1, 2), (1, 1, 1))

    def test_block_dim_axis_limit(self):
        with pytest.raises(LaunchConfigError):
            Device(TESLA_M2070).validate_launch((1, 1, 1), (1, 1, 128))

    def test_zero_dimension_rejected(self):
        with pytest.raises(LaunchConfigError):
            Device(TESLA_M2070).validate_launch((0, 1, 1), (1, 1, 1))


class TestMemoryPool:
    def test_allocation_accounting(self):
        device = Device(GENERIC_LAPTOP_GPU, memory_limit_bytes=1024)
        buf = device.memory.allocate((16,), np.float64)  # 128 bytes
        assert device.memory.used_bytes == 128
        assert device.memory.free_bytes == 1024 - 128
        buf.free()
        assert device.memory.used_bytes == 0

    def test_out_of_memory(self):
        device = Device(GENERIC_LAPTOP_GPU, memory_limit_bytes=100)
        with pytest.raises(DeviceMemoryError):
            device.memory.allocate((100,), np.float64)

    def test_oom_after_partial_fill(self):
        device = Device(GENERIC_LAPTOP_GPU, memory_limit_bytes=1000)
        device.memory.allocate((100,), np.float64)  # 800 bytes
        with pytest.raises(DeviceMemoryError):
            device.memory.allocate((50,), np.float64)  # +400 would exceed

    def test_peak_tracking(self):
        device = Device(GENERIC_LAPTOP_GPU, memory_limit_bytes=4096)
        a = device.memory.allocate((64,), np.float64)
        b = device.memory.allocate((64,), np.float64)
        assert device.memory.used_bytes == 1024
        a.free()
        b.free()
        assert device.memory.used_bytes == 0

    def test_use_after_free_raises(self):
        device = Device(GENERIC_LAPTOP_GPU)
        buf = device.memory.allocate((8,), np.float64)
        buf.free()
        with pytest.raises(InvalidBufferError):
            buf.device_array()

    def test_double_free_is_idempotent(self):
        device = Device(GENERIC_LAPTOP_GPU)
        buf = device.memory.allocate((8,), np.float64)
        buf.free()
        buf.free()
        assert device.memory.used_bytes == 0

    def test_fill(self):
        device = Device(GENERIC_LAPTOP_GPU)
        buf = device.memory.allocate((4, 4), np.float64)
        buf.fill(3.0)
        np.testing.assert_allclose(buf.device_array(), 3.0)

    def test_reset(self):
        device = Device(GENERIC_LAPTOP_GPU, memory_limit_bytes=1000)
        buf = device.memory.allocate((10,), np.float64)
        device.memory.reset()
        assert device.memory.used_bytes == 0
        # the pool forgot the live allocation: freeing it releases nothing
        buf.free()
        assert device.memory.used_bytes == 0
