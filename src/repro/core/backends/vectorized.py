"""Vectorised host backend.

Runs the reconstruction as NumPy array operations in host memory — the
fastest single-process path when the working set fits in RAM.  It is the
numerical twin of the GPU-sim backend without the device-memory constraint
and transfer accounting.

The chunk loop, accounting and reporting live in the shared engine; this
module only supplies the vectorised per-chunk compute.  The per-chunk kernel
is the fused single-pass form (:func:`depth_resolve_chunk_fused`), bitwise
identical to the scalar reference; ``config.executor`` selects where it runs
(serial / threads) via :func:`make_strategy_executor`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.core.backends.base import Backend, register_backend
from repro.core.config import ReconstructionConfig
from repro.core.engine import ChunkExecutor, make_strategy_executor
from repro.core.kernels import KernelContext, depth_resolve_chunk_fused

__all__ = ["VectorizedBackend", "VectorizedExecutor"]


class VectorizedExecutor(ChunkExecutor):
    """NumPy data-parallel execution of each chunk, serial in the caller."""

    name = "vectorized"

    def __init__(self):
        self._n_launches = 0
        self._n_threads = 0
        self._n_active = 0

    def execute_chunk(
        self, ctx: KernelContext, row_start: int, row_stop: int
    ) -> Iterable[Tuple[int, np.ndarray]]:
        partial = np.zeros((ctx.grid.n_bins, ctx.n_rows, ctx.n_cols), dtype=np.float64)
        self._n_active += depth_resolve_chunk_fused(ctx, partial)
        self._n_launches += 1
        self._n_threads += ctx.n_steps * ctx.n_rows * ctx.n_cols
        yield row_start, partial

    def report_extras(self) -> Dict:
        return {
            "n_kernel_launches": self._n_launches,
            "n_threads_launched": self._n_threads,
            "n_active_pixels": self._n_active,
        }

    def notes(self) -> List[str]:
        return ["host NumPy fused single-pass execution"]


@register_backend(
    "vectorized",
    supports_streaming=True,
    description="NumPy data-parallel execution on the host (default)",
)
class VectorizedBackend(Backend):
    """NumPy data-parallel reconstruction on the host."""

    name = "vectorized"

    def make_executor(self, config: ReconstructionConfig) -> ChunkExecutor:
        return make_strategy_executor(config)
