"""Threaded backend: detector row bands dispatched to a shared thread pool.

The fused kernel (:func:`~repro.core.kernels.depth_resolve_chunk_fused`)
spends its time inside NumPy ufunc loops, which release the GIL.  That makes
plain threads the parallel substrate for the vectorised compute: no fork, no
pickling, no shared-memory leases or slab copies.  Each worker thread
reconstructs a contiguous band of detector rows directly from views of the
chunk slab and writes its partial cube into memory the engine merges at a
disjoint row offset, so dispatch cost is a ``submit()`` call and nothing
else.  Depth reconstruction is embarrassingly parallel across rows because
every (pixel, step) element writes only to its own pixel's depth profile.

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

from repro.core.backends.base import Backend, register_backend
from repro.core.chunking import plan_worker_bands
from repro.core.config import ReconstructionConfig
from repro.core.engine import (
    ChunkExecutor,
    ChunkSource,
    ExecutionPlan,
    build_execution_plan,
)
from repro.core.kernels import KernelContext, depth_resolve_chunk_fused
from repro.core.workerpool import ThreadPool, shared_thread_pool

__all__ = ["ThreadedBackend", "ThreadedExecutor"]

#: A pending band: (absolute row start, future resolving to the band's
#: (partial cube, active-element count)).
_Pending = Tuple[int, Future]


def _band_context(ctx: KernelContext, band_start: int, band_stop: int) -> KernelContext:
    """The kernel context of one row band — pure views, nothing copied."""
    return KernelContext(
        images=ctx.images[:, band_start:band_stop, :],
        back_edge_yz=ctx.back_edge_yz[band_start:band_stop],
        front_edge_yz=ctx.front_edge_yz[band_start:band_stop],
        wire_positions_yz=ctx.wire_positions_yz,
        wire_radius=ctx.wire_radius,
        grid=ctx.grid,
        wire_edge=ctx.wire_edge,
        difference_mode=ctx.difference_mode,
        intensity_cutoff=ctx.intensity_cutoff,
        mask=None if ctx.mask is None else ctx.mask[band_start:band_stop],
    )


def _reconstruct_band(band_ctx: KernelContext) -> Tuple[np.ndarray, int]:
    """Thread task: fused reconstruction of one band into a fresh partial cube.

    Returns the cube and the band's active-element count; the count travels
    back through the future so no worker thread writes executor state.
    """
    out = np.zeros(
        (band_ctx.grid.n_bins, band_ctx.n_rows, band_ctx.n_cols), dtype=np.float64
    )
    n_active = depth_resolve_chunk_fused(band_ctx, out)
    return out, n_active


class ThreadedExecutor(ChunkExecutor):
    """Row bands on the shared thread pool, bounded bands in flight."""

    name = "threaded"

    def __init__(
        self,
        n_workers: Optional[int] = None,
        min_elements_per_dispatch: Optional[int] = None,
    ):
        #: explicit worker override (None → ``config.n_workers``)
        self._requested_workers = n_workers
        #: granularity floor override (None → the chunking default); the
        #: auto-tuner passes its measured floor through here
        self._min_elements = min_elements_per_dispatch
        self._pool: Optional[ThreadPool] = None
        self._pending: Deque[_Pending] = deque()
        self._config: Optional[ReconstructionConfig] = None
        self._n_workers = 1
        self._max_inflight = 1
        self._n_bands = 0
        self._n_threads = 0
        self._n_active = 0
        #: peak number of bands simultaneously pending in the pool
        self.peak_inflight = 0

    # ------------------------------------------------------------------ #
    def plan(self, source: ChunkSource, config: ReconstructionConfig) -> ExecutionPlan:
        return build_execution_plan(source, config, strategy="threaded")

    def prepare(
        self, source: ChunkSource, config: ReconstructionConfig, plan: ExecutionPlan
    ) -> None:
        self._config = config
        requested = (
            int(config.n_workers)
            if self._requested_workers is None
            else int(self._requested_workers)
        )
        self._n_workers = max(1, min(requested, source.n_rows))
        self._max_inflight = 2 * self._n_workers
        self.peak_inflight = 0
        if self._n_workers > 1:
            self._pool = shared_thread_pool(self._n_workers)

    # ------------------------------------------------------------------ #
    def _bands(self, ctx: KernelContext) -> List[Tuple[int, int]]:
        if self._min_elements is None:
            return plan_worker_bands(ctx.n_rows, ctx.n_cols, ctx.n_steps, self._n_workers)
        return plan_worker_bands(
            ctx.n_rows, ctx.n_cols, ctx.n_steps, self._n_workers, self._min_elements
        )

    def execute_chunk(
        self, ctx: KernelContext, row_start: int, row_stop: int
    ) -> Iterable[Tuple[int, np.ndarray]]:
        if self._pool is None:
            # single-worker fall-back: fused kernel inline, no dispatch at all
            self._n_bands += 1
            self._n_threads += ctx.n_steps * ctx.n_rows * ctx.n_cols
            out = np.zeros(
                (self._config.grid.n_bins, ctx.n_rows, ctx.n_cols), dtype=np.float64
            )
            self._n_active += depth_resolve_chunk_fused(ctx, out)
            yield row_start, out
            return
        for band_start, band_stop in self._bands(ctx):
            self._n_bands += 1
            self._n_threads += ctx.n_steps * (band_stop - band_start) * ctx.n_cols
            band_ctx = _band_context(ctx, band_start, band_stop)
            future = self._pool.submit(_reconstruct_band, band_ctx)
            self._pending.append((row_start + band_start, future))
            self.peak_inflight = max(self.peak_inflight, len(self._pending))
            while len(self._pending) >= self._max_inflight:
                yield self._collect(self._pending.popleft())

    def _collect(self, entry: _Pending) -> Tuple[int, np.ndarray]:
        """Wait for one pending band; on failure cancel the rest and re-raise."""
        band_start, future = entry
        try:
            out, n_active = future.result()
        except BaseException:
            self._cancel_pending()
            raise
        self._n_active += n_active
        return band_start, out

    def _cancel_pending(self) -> None:
        while self._pending:
            _start, future = self._pending.popleft()
            future.cancel()

    def drain(self) -> Iterable[Tuple[int, np.ndarray]]:
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
            "n_active_pixels": self._n_active,
        }

    def notes(self) -> List[str]:
        mode = "thread-pool" if self._n_workers > 1 else "in-line"
        return [
            f"{self._n_workers} worker thread(s), {self._n_bands} row band(s), "
            f"{mode} fused dispatch"
        ]


@register_backend(
    "threaded",
    supports_streaming=True,
    needs_workers=True,
    description="row bands on a shared GIL-releasing thread pool (n_workers)",
)
class ThreadedBackend(Backend):
    """Row-banded fused reconstruction on the persistent shared thread pool."""

    name = "threaded"

    def make_executor(self, config: ReconstructionConfig) -> ChunkExecutor:
        return ThreadedExecutor()
