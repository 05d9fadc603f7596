"""Execution backends for the depth reconstruction.

Four backends implement the same reconstruction with different execution
strategies:

* ``cpu_reference`` — the scalar per-element loop (the paper's original CPU
  program);
* ``vectorized`` — NumPy data-parallel execution on the host (its executor
  strategy — serial or threads — is selected by ``config.executor``);
* ``gpusim`` — the CUDA-style design of the paper on the simulated device:
  row-chunk streaming, explicit host↔device transfers, grid/block kernel
  launches and atomic accumulation;
* ``threaded`` — detector row bands on a shared GIL-releasing thread pool.

All backends must produce numerically identical results (the test-suite
cross-checks them); only their performance characteristics differ.

Every backend routes through the shared execution engine
(:mod:`repro.core.engine`) and contributes only its per-chunk compute as a
:class:`~repro.core.engine.ChunkExecutor`.
"""

from repro.core.backends.base import Backend, available_backends, get_backend, register_backend
from repro.core.backends.cpu_reference import CpuReferenceBackend, CpuReferenceExecutor
from repro.core.backends.vectorized import VectorizedBackend, VectorizedExecutor
from repro.core.backends.gpusim import GpuSimBackend, GpuSimExecutor
from repro.core.backends.threaded import ThreadedBackend, ThreadedExecutor

__all__ = [
    "Backend",
    "available_backends",
    "get_backend",
    "register_backend",
    "CpuReferenceBackend",
    "CpuReferenceExecutor",
    "VectorizedBackend",
    "VectorizedExecutor",
    "GpuSimBackend",
    "GpuSimExecutor",
    "ThreadedBackend",
    "ThreadedExecutor",
]
