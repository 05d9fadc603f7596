"""Execution backends for the depth reconstruction.

Three backends implement the same reconstruction; the backend says *what*
computes:

* ``cpu_reference`` — the scalar per-element loop (the paper's original CPU
  program);
* ``vectorized`` — the fused NumPy kernel on the host;
* ``gpusim`` — the CUDA-style design of the paper on the simulated device:
  row-chunk streaming, explicit host↔device transfers, grid/block kernel
  launches and atomic accumulation.

``config.executor`` says *where* the vectorized kernel runs: ``serial`` in
the calling thread (:class:`VectorizedExecutor`) or ``threads``, detector
row bands on the shared GIL-releasing thread pool
(:class:`ThreadedExecutor`).  The retired ``threaded`` backend name resolves
to ``vectorized`` with ``executor="threads"``.

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
from repro.core.backends.threaded import ThreadedExecutor

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
    "ThreadedExecutor",
]
