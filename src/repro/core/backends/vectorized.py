"""Vectorised host backend.

Runs the reconstruction as NumPy array operations in host memory — the
fastest single-process path when the working set fits in RAM.  It is the
numerical twin of the GPU-sim backend without the device-memory constraint
and transfer accounting.

The chunk loop, accounting and reporting live in the shared engine; this
module only supplies the vectorised per-chunk compute.  The per-chunk kernel
is the fused single-pass form (:func:`depth_resolve_chunk_fused`), the one
production kernel; it reads the run's trapezoid table like the scalar
reference does, so the two are bitwise identical.  It distributes each chunk
straight into that chunk's rows of the plan's output cube; the serial
executor lets every chunk's sparse row blocks collect in one element batch
per run, which distributes as it fills and in ``drain()``.  The kernel never
differences a step its rows cannot use, so both executors plan trimmed
windows: each chunk reads only the wire positions its usable steps span.

``config.executor`` selects where the kernel runs, an axis orthogonal to
the backend: ``serial`` in the calling thread (:class:`VectorizedExecutor`)
or ``threads`` on the shared GIL-releasing thread pool
(:class:`~repro.core.backends.threaded.ThreadedExecutor`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.backends.base import Backend, register_backend
from repro.core.backends.threaded import ThreadedExecutor
from repro.core.config import ReconstructionConfig
from repro.core.engine import ChunkExecutor, ChunkSource, ExecutionPlan, build_execution_plan
from repro.core.kernels import KernelContext, _ElementBatch, depth_resolve_chunk_fused

__all__ = ["VectorizedBackend", "VectorizedExecutor"]


class VectorizedExecutor(ChunkExecutor):
    """NumPy data-parallel execution of each chunk, serial in the caller,
    straight into the run's output cube."""

    name = "vectorized"

    def __init__(self):
        self._n_launches = 0
        self._n_threads = 0
        self._batch: Optional[_ElementBatch] = None

    def plan(self, source: ChunkSource, config: ReconstructionConfig) -> ExecutionPlan:
        """The host plan, each chunk reading only the positions its span needs."""
        return build_execution_plan(source, config, trim_positions=True)

    def prepare(
        self, source: ChunkSource, config: ReconstructionConfig, plan: ExecutionPlan
    ) -> None:
        self._out = plan.output
        # every chunk's sparse row blocks collect into this one batch, which
        # distributes as it fills and in drain()
        self._batch = _ElementBatch(plan.output, config.grid)

    def execute_chunk(self, ctx: KernelContext, row_start: int, row_stop: int) -> Iterable[int]:
        self._n_launches += 1
        self._n_threads += ctx.n_steps * ctx.n_rows * ctx.n_cols
        yield depth_resolve_chunk_fused(ctx, self._out, batch=self._batch)

    def drain(self) -> Iterable[int]:
        """Distribute the sparse elements the chunks left in the batch.

        Their counts were yielded with their chunks, so this yields none.
        """
        self._batch.flush()
        yield from ()

    def close(self) -> None:
        """Drop what a failed run left undistributed."""
        if self._batch is not None:
            self._batch.clear()

    def report_extras(self) -> Dict:
        return {
            "n_kernel_launches": self._n_launches,
            "n_threads_launched": self._n_threads,
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
        """The executor for ``config.executor``: threads, or serial.

        An unresolved ``auto`` runs serially: the session resolves ``auto``
        against the tuner cache *before* execution, so seeing it here means
        the caller bypassed the session, and serial is the one choice every
        machine can honour.
        """
        if config.executor == "threads":
            return ThreadedExecutor()
        return VectorizedExecutor()
