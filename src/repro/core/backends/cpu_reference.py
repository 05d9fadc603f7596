"""The scalar CPU reference backend (the paper's baseline).

Processes one (column, row, wire-step) element at a time with scalar
arithmetic, exactly as the original single-threaded CPU program does.  It is
deliberately not vectorised: it is the baseline every speed-up in the paper
(and in our benchmarks) is measured against, and it doubles as the ground
truth the faster backends are validated against.

The chunk loop, accounting and reporting live in the shared engine; this
module only supplies the scalar per-chunk compute.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.core.backends.base import Backend, register_backend
from repro.core.config import ReconstructionConfig
from repro.core.engine import ChunkExecutor
from repro.core.kernels import KernelContext, depth_resolve_chunk_scalar

__all__ = ["CpuReferenceBackend", "CpuReferenceExecutor"]


class CpuReferenceExecutor(ChunkExecutor):
    """Scalar triple loop over each chunk's elements."""

    name = "cpu_reference"

    def __init__(self):
        self._n_active = 0

    def execute_chunk(
        self, ctx: KernelContext, row_start: int, row_stop: int
    ) -> Iterable[Tuple[int, np.ndarray]]:
        partial = np.zeros((ctx.grid.n_bins, ctx.n_rows, ctx.n_cols), dtype=np.float64)
        self._n_active += depth_resolve_chunk_scalar(ctx, partial)
        yield row_start, partial

    def report_extras(self) -> Dict:
        return {"n_active_pixels": self._n_active}

    def notes(self) -> List[str]:
        return ["scalar per-element loop (original CPU program)"]


@register_backend(
    "cpu_reference",
    supports_streaming=True,
    description="scalar per-element loop (the paper's original CPU program)",
)
class CpuReferenceBackend(Backend):
    """Scalar per-element reconstruction on the host CPU."""

    name = "cpu_reference"

    def make_executor(self, config: ReconstructionConfig) -> ChunkExecutor:
        return CpuReferenceExecutor()
