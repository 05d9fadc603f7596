"""The scalar CPU reference backend (the paper's baseline).

Processes one (column, row, wire-step) element at a time with scalar
arithmetic, exactly as the original single-threaded CPU program does.  It is
deliberately not vectorised: it is the baseline every speed-up in the paper
(and in our benchmarks) is measured against, and it doubles as the ground
truth the faster backends are validated against.

The chunk loop, accounting and reporting live in the shared engine; this
module only supplies the scalar per-chunk compute, which writes each chunk's
rows of the run's output cube in place.  It differences every element, so
its chunks read every wire position (the default plan).
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.backends.base import Backend, register_backend
from repro.core.config import ReconstructionConfig
from repro.core.engine import ChunkExecutor, ChunkSource, ExecutionPlan
from repro.core.kernels import KernelContext, depth_resolve_chunk_scalar

__all__ = ["CpuReferenceBackend", "CpuReferenceExecutor"]


class CpuReferenceExecutor(ChunkExecutor):
    """Scalar triple loop over each chunk's elements, into the run's cube."""

    name = "cpu_reference"

    def prepare(
        self, source: ChunkSource, config: ReconstructionConfig, plan: ExecutionPlan
    ) -> None:
        self._out = plan.output

    def execute_chunk(self, ctx: KernelContext, row_start: int, row_stop: int) -> Iterable[int]:
        yield depth_resolve_chunk_scalar(ctx, self._out)

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
