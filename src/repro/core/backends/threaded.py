"""The ``threads`` executor: detector row bands on a shared thread pool.

:class:`ThreadedExecutor` runs the vectorized backend's kernel when
``config.executor`` is ``threads``; it is an executor, not a backend (the
retired ``threaded`` backend name resolves to ``backend="vectorized",
executor="threads"``).

The fused kernel (:func:`~repro.core.kernels.depth_resolve_chunk_fused`)
spends its time inside NumPy ufunc loops, which release the GIL.  That makes
plain threads the parallel substrate for the vectorised compute: no fork, no
pickling, no shared-memory leases or slab copies.  Each worker thread
reconstructs a contiguous band of detector rows directly from views of the
chunk slab and writes straight into the band's own rows of the run's output
cube, so dispatch cost is a ``submit()`` call and nothing else.  Depth
reconstruction is embarrassingly parallel across rows because every
(pixel, step) element writes only to its own pixel's depth profile: bands
cover disjoint rows, so no two threads ever write the same output slot.

Band granularity comes from :func:`~repro.core.chunking.plan_worker_bands`:
one near-equal band per worker, coarsened so every dispatch carries at least
a minimum number of ``(step, row, col)`` elements — tiny bands would make
the per-dispatch bookkeeping (Python-level, GIL-holding) rival the kernel
time and bend the scaling curve back down.

The pool is the persistent :func:`~repro.core.workerpool.shared_thread_pool`,
reused across runs and files; thread start-up is cheap but not free, and a
long batch should not pay it per run.

A bounded number of bands is kept in flight so a streamed out-of-core run
holds at most ``max_inflight`` band slabs in host memory regardless of how
many chunks the plan has.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future
from typing import Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.chunking import DEFAULT_MIN_ELEMENTS_PER_DISPATCH, plan_worker_bands
from repro.core.config import AUTO, ReconstructionConfig
from repro.core.engine import (
    ChunkExecutor,
    ChunkSource,
    ExecutionPlan,
    build_execution_plan,
)
from repro.core.kernels import KernelContext, depth_resolve_chunk_fused
from repro.core.workerpool import ThreadPool, shared_thread_pool

__all__ = ["ThreadedExecutor"]


def _band_context(ctx: KernelContext, band_start: int, band_stop: int) -> KernelContext:
    """The kernel context of one row band — pure views, nothing copied.

    Its rows map to the output rows ``ctx.row_offset + band_start`` onwards,
    and its slab holds the chunk slab's positions: a band's spans lie inside
    its chunk's, so a trimmed window holds every position the band reads.
    """
    return KernelContext(
        images=ctx.images[:, band_start:band_stop, :],
        back_edge_yz=ctx.back_edge_yz[band_start:band_stop],
        front_edge_yz=ctx.front_edge_yz[band_start:band_stop],
        wire_positions_yz=ctx.wire_positions_yz,
        trapezoids=tuple(part[:, band_start:band_stop] for part in ctx.trapezoids),
        grid=ctx.grid,
        wire_edge=ctx.wire_edge,
        difference_mode=ctx.difference_mode,
        intensity_cutoff=ctx.intensity_cutoff,
        mask=None if ctx.mask is None else ctx.mask[band_start:band_stop],
        row_offset=ctx.row_offset + band_start,
        position_start=ctx.position_start,
    )


def _reconstruct_band(ctx: KernelContext, band_start: int, band_stop: int, out: np.ndarray) -> int:
    """Thread task: fused reconstruction of rows ``band_start:band_stop`` of
    *ctx* into their rows of the output cube *out*.

    Returns the band's active-element count; the count travels back through
    the future so no worker thread writes executor state.
    """
    return depth_resolve_chunk_fused(_band_context(ctx, band_start, band_stop), out)


class ThreadedExecutor(ChunkExecutor):
    """Row bands on the shared thread pool, bounded bands in flight."""

    name = "threaded"

    def __init__(self, min_elements_per_dispatch: int = DEFAULT_MIN_ELEMENTS_PER_DISPATCH):
        #: band granularity floor; tests pass 1 to split tiny stacks into
        #: several bands
        self._min_elements = min_elements_per_dispatch
        self._pool: Optional[ThreadPool] = None
        self._pending: Deque[Future] = deque()
        self._out: Optional[np.ndarray] = None
        self._n_workers = 1
        self._max_inflight = 1
        self._n_bands = 0
        self._n_threads = 0
        #: peak number of bands simultaneously pending in the pool
        self.peak_inflight = 0

    # ------------------------------------------------------------------ #
    def plan(self, source: ChunkSource, config: ReconstructionConfig) -> ExecutionPlan:
        return build_execution_plan(source, config, strategy="threaded", trim_positions=True)

    def prepare(
        self, source: ChunkSource, config: ReconstructionConfig, plan: ExecutionPlan
    ) -> None:
        self._out = plan.output
        # an unresolved "auto" runs one worker in line, as an unresolved
        # executor="auto" runs serially: the session resolves both before
        # the engine runs, so seeing one here means the caller bypassed it
        requested = 1 if config.n_workers == AUTO else int(config.n_workers)
        self._n_workers = max(1, min(requested, source.n_rows))
        self._max_inflight = 2 * self._n_workers
        self.peak_inflight = 0
        if self._n_workers > 1:
            # sized by the requested width, not the row-clamped one: a batch
            # mixing small files then asks the shared pool for one width
            self._pool = shared_thread_pool(requested)

    # ------------------------------------------------------------------ #
    def _bands(self, ctx: KernelContext) -> List[Tuple[int, int]]:
        return plan_worker_bands(
            ctx.n_rows, ctx.n_cols, ctx.n_steps, self._n_workers, self._min_elements
        )

    def execute_chunk(self, ctx: KernelContext, row_start: int, row_stop: int) -> Iterable[int]:
        if self._pool is None:
            # single-worker fall-back: fused kernel inline, no dispatch at all
            self._n_bands += 1
            self._n_threads += ctx.n_steps * ctx.n_rows * ctx.n_cols
            yield depth_resolve_chunk_fused(ctx, self._out)
            return
        for band_start, band_stop in self._bands(ctx):
            self._n_bands += 1
            self._n_threads += ctx.n_steps * (band_stop - band_start) * ctx.n_cols
            self._pending.append(
                self._pool.submit(_reconstruct_band, ctx, band_start, band_stop, self._out)
            )
            self.peak_inflight = max(self.peak_inflight, len(self._pending))
            while len(self._pending) >= self._max_inflight:
                yield self._collect(self._pending.popleft())

    def _collect(self, future: Future) -> int:
        """Wait for one pending band's count; on failure cancel the rest and re-raise."""
        try:
            return future.result()
        except BaseException:
            self._cancel_pending()
            raise

    def _cancel_pending(self) -> None:
        while self._pending:
            self._pending.popleft().cancel()

    def drain(self) -> Iterable[int]:
        while self._pending:
            yield self._collect(self._pending.popleft())

    def close(self) -> None:
        """Drop per-run state; the shared thread pool itself stays alive."""
        self._cancel_pending()
        self._pool = None

    # ------------------------------------------------------------------ #
    def report_extras(self) -> Dict:
        return {
            "n_kernel_launches": self._n_bands,
            "n_threads_launched": self._n_threads,
        }

    def notes(self) -> List[str]:
        mode = "thread-pool" if self._n_workers > 1 else "in-line"
        return [
            f"{self._n_workers} worker thread(s), {self._n_bands} row band(s), "
            f"{mode} fused dispatch"
        ]
