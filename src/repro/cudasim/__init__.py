"""A software model of the CUDA execution environment.

The paper runs the depth-reconstruction kernel on an NVIDIA Tesla M2070 with
CUDA C.  No GPU is available in this reproduction, so this subpackage models
the pieces of the CUDA programming model that shape the paper's design:

* a **device** with fixed memory capacity (6 GB on the M2070) and launch
  limits (threads per block, block/grid dimensions) — these force the
  row-chunked streaming of Fig. 2 and constrain launch configurations;
* explicit **device memory allocation** and ``cudaMemcpy``-style host↔device
  transfers whose cost is modelled with a PCIe bandwidth/latency model — the
  transfer-vs-compute trade-off behind the Fig. 4 layout study;
* **kernel launches** over a ``grid × block`` thread lattice with the same
  ``(threadIdx + blockIdx * blockDim)`` index arithmetic as the CUDA kernel,
  executable either one simulated thread at a time (faithful, slow) or in a
  vectorised data-parallel form (fast);
* **atomicAdd** accumulation including the double-precision
  compare-and-swap emulation the paper mentions;
* an analytic **performance model** used to extrapolate laptop-scale runs to
  the paper's hardware scale.

The simulated device keeps a *simulated clock*: every transfer and kernel
launch advances it by the modelled cost, so experiments can report both the
measured wall-clock of this Python process and the modelled device time.
"""

from repro.cudasim.errors import (
    CudaSimError,
    DeviceMemoryError,
    LaunchConfigError,
    TransferError,
)
from repro.cudasim.device import Device, DeviceProperties, TESLA_M2070, GENERIC_LAPTOP_GPU
from repro.cudasim.memory import DeviceBuffer, MemoryPool
from repro.cudasim.kernel import Kernel, LaunchConfig
from repro.cudasim.atomic import atomic_add, atomic_add_double_cas
from repro.cudasim.perfmodel import PerformanceModel, HostPerformanceModel
from repro.cudasim.profiler import Profiler, ProfileRecord

__all__ = [
    "CudaSimError",
    "DeviceMemoryError",
    "LaunchConfigError",
    "TransferError",
    "Device",
    "DeviceProperties",
    "TESLA_M2070",
    "GENERIC_LAPTOP_GPU",
    "DeviceBuffer",
    "MemoryPool",
    "Kernel",
    "LaunchConfig",
    "atomic_add",
    "atomic_add_double_cas",
    "PerformanceModel",
    "HostPerformanceModel",
    "Profiler",
    "ProfileRecord",
]
