"""Unit tests for atomics, the performance models and the profiler."""

import numpy as np
import pytest

from repro.cudasim.atomic import atomic_add, atomic_add_double_cas
from repro.cudasim.perfmodel import HostPerformanceModel, PerformanceModel
from repro.cudasim.profiler import Profiler


class TestAtomicAdd:
    def test_repeated_indices_accumulate(self):
        out = np.zeros(4)
        atomic_add(out, [1, 1, 1, 3], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(out, [0.0, 6.0, 0.0, 4.0])

    def test_matches_serial_loop(self):
        rng = np.random.default_rng(0)
        indices = rng.integers(0, 50, size=500)
        values = rng.normal(size=500)
        fast = np.zeros(50)
        atomic_add(fast, indices, values)
        slow = np.zeros(50)
        for i, v in zip(indices, values):
            slow[i] += v
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            atomic_add(np.zeros(3), [3], [1.0])

    def test_requires_flat_buffer(self):
        with pytest.raises(ValueError):
            atomic_add(np.zeros((2, 2)), [0], [1.0])

    def test_cas_emulation_matches_plain_add(self):
        plain = np.zeros(8)
        cas = np.zeros(8)
        values = [0.5, 1.25, -2.0, 3.75]
        for v in values:
            plain[3] += v
            old = atomic_add_double_cas(cas, 3, v)
        assert np.isclose(cas[3], plain[3])
        # atomicAdd returns the pre-addition value
        assert np.isclose(old, sum(values[:-1]))

    def test_cas_requires_float64(self):
        with pytest.raises(ValueError):
            atomic_add_double_cas(np.zeros(4, dtype=np.float32), 0, 1.0)

    def test_cas_index_bounds(self):
        with pytest.raises(IndexError):
            atomic_add_double_cas(np.zeros(4), 9, 1.0)

    def test_flat_offsets_address_a_cube(self):
        """The kernels' ``x + y*NX + z*NX*NY`` offsets into a flattened cube."""
        cube = np.zeros((2, 3, 4))
        atomic_add(cube.reshape(-1), [0, 0, 23], [1.0, 2.0, 5.0])
        assert cube[0, 0, 0] == 3.0
        assert cube[1, 2, 3] == 5.0


class TestPerformanceModel:
    def test_transfer_time_increases_with_bytes(self):
        model = PerformanceModel()
        assert model.transfer_time(2e9) > model.transfer_time(1e9)

    def test_transfer_latency_per_transfer(self):
        model = PerformanceModel(pcie_latency=1e-3)
        one = model.transfer_time(1e6, n_transfers=1)
        many = model.transfer_time(1e6, n_transfers=10)
        assert np.isclose(many - one, 9e-3)

    def test_kernel_time_roofline(self):
        model = PerformanceModel(peak_flops=1e9, memory_bandwidth=1e12)
        compute_bound = model.kernel_time(1_000_000, flops_per_thread=1000, bytes_per_thread=1)
        assert compute_bound >= 1.0  # 1e9 flops on 1e9 flops/s

    def test_kernel_memory_bound(self):
        model = PerformanceModel(peak_flops=1e15, memory_bandwidth=1e9)
        t = model.kernel_time(1_000_000, flops_per_thread=1, bytes_per_thread=1000)
        assert t >= 1.0

    def test_invalid_arguments(self):
        model = PerformanceModel()
        with pytest.raises(ValueError):
            model.transfer_time(-1)
        with pytest.raises(ValueError):
            model.kernel_time(-1, 1, 1)

    def test_host_model_scaling(self):
        host = HostPerformanceModel(time_per_element=1e-6)
        assert np.isclose(host.total_time(1_000_000), 1.0)

    def test_host_model_multicore(self):
        serial = HostPerformanceModel(time_per_element=1e-6, cores=1)
        parallel = HostPerformanceModel(time_per_element=1e-6, cores=4)
        assert parallel.total_time(10**6) < serial.total_time(10**6)

    def test_host_model_validation(self):
        with pytest.raises(ValueError):
            HostPerformanceModel(cores=0)
        with pytest.raises(ValueError):
            HostPerformanceModel(parallel_efficiency=1.5)


class TestStreamAndProfiler:
    def test_profiler_aggregation(self):
        profiler = Profiler()
        profiler.record("kernel", "k1", 0.0, 1.0)
        profiler.record("kernel", "k2", 1.0, 2.0)
        profiler.record("memcpy_h2d", "t", 3.0, 0.5)
        assert profiler.total_time() == 3.5
        assert profiler.total_time("kernel") == 3.0
        assert profiler.time_by_kind()["memcpy_h2d"] == 0.5
        assert profiler.count_by_kind()["kernel"] == 2

    def test_profiler_transfer_fraction(self):
        profiler = Profiler()
        profiler.record("kernel", "k", 0.0, 3.0)
        profiler.record("memcpy_h2d", "t", 3.0, 1.0)
        assert np.isclose(profiler.transfer_fraction(), 0.25)

    def test_profiler_empty_transfer_fraction(self):
        assert Profiler().transfer_fraction() == 0.0

    def test_profiler_summary_mentions_kinds(self):
        profiler = Profiler()
        profiler.record("kernel", "k", 0.0, 1.0)
        assert "kernel" in profiler.summary()

    def test_record_end_property(self):
        profiler = Profiler()
        rec = profiler.record("kernel", "k", 1.5, 0.25)
        assert np.isclose(rec.end, 1.75)
