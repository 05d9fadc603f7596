"""Analytic performance models for the simulated device and the host CPU.

The models are intentionally simple — a roofline-style decomposition into
data movement and arithmetic — because their purpose is to reproduce the
*shape* of the paper's timing figures (which configuration wins, by roughly
what factor, and how the gap evolves with data size), not to predict absolute
hardware timings.

Device kernel time
    ``max(compute_time, memory_time)`` where compute time is
    ``flops / peak_flops`` and memory time is ``bytes_touched /
    memory_bandwidth`` — the kernel is modelled as perfectly overlapping
    arithmetic with device-memory traffic.

Transfer time
    ``latency + bytes / pcie_bandwidth`` per ``cudaMemcpy``; the pointer-table
    layout of Fig. 4 pays this once per image row (one pointer array per 2-D
    slab) while the flat 1-D layout pays it once per chunk.

Host time
    ``elements * time_per_element`` with a per-element cost calibrated from
    the scalar reference implementation; an optional multi-core factor allows
    modelling a parallel CPU baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import ensure_positive

__all__ = ["PerformanceModel", "HostPerformanceModel"]


@dataclass(frozen=True)
class PerformanceModel:
    """Cost model of the simulated GPU.

    Parameters
    ----------
    peak_flops:
        Peak double-precision throughput in FLOP/s.
    memory_bandwidth:
        Device (global) memory bandwidth in bytes/s.
    pcie_bandwidth:
        Effective host<->device bandwidth in bytes/s.
    pcie_latency:
        Fixed per-transfer latency in seconds (driver + DMA setup).
    kernel_launch_overhead:
        Fixed per-launch overhead in seconds.
    """

    peak_flops: float = 515e9
    memory_bandwidth: float = 150e9
    pcie_bandwidth: float = 6e9
    pcie_latency: float = 20e-6
    kernel_launch_overhead: float = 8e-6

    def __post_init__(self):
        ensure_positive(self.peak_flops, "peak_flops")
        ensure_positive(self.memory_bandwidth, "memory_bandwidth")
        ensure_positive(self.pcie_bandwidth, "pcie_bandwidth")
        ensure_positive(self.pcie_latency + 1e-300, "pcie_latency")
        ensure_positive(self.kernel_launch_overhead + 1e-300, "kernel_launch_overhead")

    # ------------------------------------------------------------------ #
    def transfer_time(self, n_bytes: float, n_transfers: int = 1) -> float:
        """Modelled time for moving *n_bytes* split over *n_transfers* memcpys."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        if n_transfers < 1:
            raise ValueError("n_transfers must be >= 1")
        return n_transfers * self.pcie_latency + n_bytes / self.pcie_bandwidth

    def kernel_time(self, n_threads: int, flops_per_thread: float, bytes_per_thread: float) -> float:
        """Modelled execution time of one kernel launch."""
        if n_threads < 0:
            raise ValueError("n_threads must be non-negative")
        compute = n_threads * flops_per_thread / self.peak_flops
        memory = n_threads * bytes_per_thread / self.memory_bandwidth
        return self.kernel_launch_overhead + max(compute, memory)


@dataclass(frozen=True)
class HostPerformanceModel:
    """Cost model of the host-CPU reference implementation.

    Parameters
    ----------
    time_per_element:
        Seconds of CPU time spent reconstructing one (pixel, wire-step)
        element in the scalar reference code.
    cores:
        Number of cores used (the original program is single-threaded).
    parallel_efficiency:
        Fraction of ideal speed-up achieved when ``cores > 1``.
    """

    time_per_element: float = 8.0e-7
    cores: int = 1
    parallel_efficiency: float = 0.85

    def __post_init__(self):
        ensure_positive(self.time_per_element, "time_per_element")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if not (0.0 < self.parallel_efficiency <= 1.0):
            raise ValueError("parallel_efficiency must lie in (0, 1]")

    def total_time(self, n_elements: int) -> float:
        """Modelled host time to process *n_elements* (pixel, step) pairs."""
        if n_elements < 0:
            raise ValueError("n_elements must be non-negative")
        speedup = 1.0 if self.cores == 1 else 1.0 + (self.cores - 1) * self.parallel_efficiency
        return n_elements * self.time_per_element / speedup
