"""Multiprocessing backend: detector rows partitioned across worker processes.

A host-parallel baseline the paper does not evaluate (its CPU code is
single-threaded) but that a practitioner would reach for before buying a
GPU; it is included as an ablation point.  Each worker reconstructs a
contiguous band of detector rows with the vectorised kernel; the engine
stitches the bands together — depth reconstruction is embarrassingly
parallel across rows because every (pixel, step) element writes only to its
own pixel's depth profile.

Dispatch is zero-copy by default: the executor leases input/output slabs
from a :class:`~repro.core.workerpool.SlabArena`, copies each band's image
slab into shared memory once, and the worker maps both segments by name
(:func:`_worker_reconstruct_rows` receives shm *names and shapes*, not
arrays) and writes its partial cube in place — nothing cube-sized is ever
pickled in either direction.  The legacy pickling dispatch is kept for
comparison and as a fallback (``REPRO_MP_DISPATCH=pickle``); both produce
bitwise-identical results.

The process pool itself is the persistent
:func:`~repro.core.workerpool.shared_pool`: it is reused across runs and
files (``repro.pool()`` pins and pre-warms it), so a multi-file batch pays
pool start-up once, not once per file.

The executor keeps a bounded number of chunks in flight, so a streamed
out-of-core run holds at most ``max_inflight`` slabs in host memory
regardless of how many chunks the plan has.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import BrokenExecutor, Future
from multiprocessing import shared_memory
from typing import Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.backends.base import Backend, register_backend
from repro.core.chunking import ChunkPlan, estimate_chunk_device_bytes
from repro.core.config import DifferenceMode, ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.core.engine import (
    HOST_MEMORY_BYTES,
    ChunkExecutor,
    ChunkSource,
    ExecutionPlan,
    build_execution_plan,
    compute_stack_background,
)
from repro.core.kernels import KernelContext, depth_resolve_chunk_fused
from repro.core.workerpool import SlabArena, WorkerPool, shared_pool
from repro.geometry.wire import WireEdge
from repro.utils.validation import ValidationError

__all__ = ["MultiprocessBackend", "MultiprocessExecutor", "DISPATCH_ENV_VAR"]

#: Environment override for the dispatch mode ("shm" or "pickle").
DISPATCH_ENV_VAR = "REPRO_MP_DISPATCH"

_DISPATCH_MODES = ("shm", "pickle")

#: A pending chunk: (row_start, future, lease) where lease is
#: (input shm, output shm, output shape) for shm dispatch, None for pickle.
_Pending = Tuple[int, Future, Optional[Tuple[shared_memory.SharedMemory, shared_memory.SharedMemory, Tuple[int, int, int]]]]


def _kernel_payload(ctx: KernelContext, config: ReconstructionConfig) -> dict:
    """The small, cheap-to-pickle kernel parameters shared by both dispatches."""
    return {
        "back_edge_yz": ctx.back_edge_yz,
        "front_edge_yz": ctx.front_edge_yz,
        "wire_positions_yz": ctx.wire_positions_yz,
        "wire_radius": ctx.wire_radius,
        "grid_start": config.grid.start,
        "grid_step": config.grid.step,
        "grid_n_bins": config.grid.n_bins,
        "wire_edge": int(config.wire_edge),
        "difference_mode": config.difference_mode.value,
        "intensity_cutoff": config.intensity_cutoff,
        "mask": ctx.mask,
    }


def _context_from_payload(payload: dict, images: np.ndarray) -> KernelContext:
    """Rebuild the kernel context in the worker process."""
    grid = DepthGrid(
        start=payload["grid_start"], step=payload["grid_step"], n_bins=payload["grid_n_bins"]
    )
    return KernelContext(
        images=images,
        back_edge_yz=payload["back_edge_yz"],
        front_edge_yz=payload["front_edge_yz"],
        wire_positions_yz=payload["wire_positions_yz"],
        wire_radius=payload["wire_radius"],
        grid=grid,
        wire_edge=WireEdge(payload["wire_edge"]),
        difference_mode=DifferenceMode(payload["difference_mode"]),
        intensity_cutoff=payload["intensity_cutoff"],
        mask=payload["mask"],
    )


def _reconstruct_into_shared(payload: dict, in_shm, out_shm) -> int:
    """Map the slabs and run the kernel; views die on return so close() is safe."""
    images = np.ndarray(tuple(payload["images_shape"]), dtype=np.float64, buffer=in_shm.buf)
    out = np.ndarray(tuple(payload["out_shape"]), dtype=np.float64, buffer=out_shm.buf)
    ctx = _context_from_payload(payload, images)
    out[...] = 0.0  # recycled slabs carry the previous band's result
    return depth_resolve_chunk_fused(ctx, out)


def _worker_reconstruct_rows(payload: dict) -> int:
    """Reconstruct one band of rows in a worker process — zero-copy dispatch.

    The payload carries shared-memory *names and shapes*, never the arrays:
    the image slab is mapped read-only-by-convention from ``images_shm`` and
    the partial cube is written in place into ``out_shm``, so nothing
    cube-sized crosses the process boundary.  The parent's arena owns
    ``unlink()``; the worker only closes its own mappings.  Returns the
    band's active-element count.
    """
    from repro.core.workerpool import attach_slab

    in_shm = attach_slab(payload["images_shm"])
    try:
        out_shm = attach_slab(payload["out_shm"])
        try:
            return _reconstruct_into_shared(payload, in_shm, out_shm)
        finally:
            out_shm.close()
    finally:
        in_shm.close()


def _worker_reconstruct_rows_pickled(payload: dict) -> Tuple[np.ndarray, int]:
    """Legacy dispatch: arrays pickled in, partial cube and active count pickled back."""
    ctx = _context_from_payload(payload, payload["images"])
    out = np.zeros((payload["grid_n_bins"], ctx.n_rows, ctx.n_cols), dtype=np.float64)
    n_active = depth_resolve_chunk_fused(ctx, out)
    return out, n_active


def _dispatch_mode(requested: Optional[str]) -> str:
    """Resolve the dispatch mode: explicit argument beats the environment."""
    mode = requested if requested is not None else os.environ.get(DISPATCH_ENV_VAR, "shm")
    mode = str(mode).lower()
    if mode not in _DISPATCH_MODES:
        raise ValidationError(
            f"unknown multiprocess dispatch {mode!r}; expected one of {_DISPATCH_MODES}"
        )
    return mode


class MultiprocessExecutor(ChunkExecutor):
    """Row bands dispatched to the persistent pool, bounded chunks in flight."""

    name = "multiprocess"

    def __init__(self, dispatch: Optional[str] = None):
        self._dispatch = _dispatch_mode(dispatch)
        self._pool: Optional[WorkerPool] = None
        self._arena: Optional[SlabArena] = None
        self._pending: Deque[_Pending] = deque()
        self._config: Optional[ReconstructionConfig] = None
        self._n_workers = 1
        self._max_inflight = 1
        self._n_bands = 0
        self._n_threads = 0
        self._n_active = 0
        #: peak number of chunks simultaneously pending in the pool
        self.peak_inflight = 0

    # ------------------------------------------------------------------ #
    @property
    def dispatch(self) -> str:
        """Resolved dispatch mode ("shm" or "pickle")."""
        return self._dispatch

    @property
    def arena(self) -> Optional[SlabArena]:
        """The run's slab arena (None before prepare / for pickle dispatch)."""
        return self._arena

    # ------------------------------------------------------------------ #
    def plan(self, source: ChunkSource, config: ReconstructionConfig) -> ExecutionPlan:
        """One near-equal band per worker, unless the caller fixed the chunk size.

        On an out-of-core source the band size is additionally capped by the
        engine's streaming budget: a band of ``n_rows / n_workers`` could pull
        an arbitrarily large slab into RAM, while capped uniform chunks keep
        the resident set bounded and still feed every worker through the pool.
        """
        if config.rows_per_chunk is not None:
            return build_execution_plan(source, config, strategy="multiprocess")
        n_workers = max(1, min(config.n_workers, source.n_rows))
        if source.out_of_core:
            from repro.core.chunking import plan_row_chunks
            from repro.core.engine import streaming_budget_bytes

            bounded = plan_row_chunks(
                n_rows=source.n_rows,
                n_cols=source.n_cols,
                n_positions=source.n_positions,
                n_depth_bins=config.grid.n_bins,
                device_memory_bytes=streaming_budget_bytes(source, config),
                layout=config.layout,
            ).rows_per_chunk
            band = -(-source.n_rows // n_workers)
            return build_execution_plan(
                source, config, rows_per_chunk=min(band, bounded), strategy="multiprocess"
            )
        bands = MultiprocessBackend._row_bands(source.n_rows, n_workers)
        rows_per_chunk = max(stop - start for start, stop in bands)
        chunk_plan = ChunkPlan(
            n_rows=source.n_rows,
            rows_per_chunk=rows_per_chunk,
            chunks=tuple(bands),
            bytes_per_chunk=estimate_chunk_device_bytes(
                rows_per_chunk, source.n_cols, source.n_positions, config.grid.n_bins, config.layout
            ),
            device_memory_bytes=HOST_MEMORY_BYTES,
            layout=config.layout,
            notes=("one band per worker",),
        )
        return ExecutionPlan(
            chunk_plan=chunk_plan,
            background=compute_stack_background(source, config),
            strategy="multiprocess",
        )

    def prepare(self, source: ChunkSource, config: ReconstructionConfig, plan: ExecutionPlan) -> None:
        self._config = config
        self._n_workers = max(1, min(config.n_workers, source.n_rows))
        # Slabs pending in the pool hold host memory; cap how many may be in
        # flight so a streamed run stays bounded even with many chunks.
        self._max_inflight = 2 * self._n_workers
        self.peak_inflight = 0
        if self._n_workers > 1:
            # the persistent pool: reused across runs and files, spawned
            # lazily on first submit, never shut down by this executor.
            # Sized by config.n_workers, NOT the row-clamped band count: a
            # batch mixing small and large files must keep hitting the same
            # pool, and a pool wider than one run's bands is harmless.
            self._pool = shared_pool(max(1, int(config.n_workers)))
            if self._dispatch == "shm":
                self._arena = SlabArena()

    # ------------------------------------------------------------------ #
    def _submit_shm(self, ctx: KernelContext, row_start: int) -> _Pending:
        """Lease slabs, copy the band in, and dispatch by shared-memory name."""
        out_shape = (self._config.grid.n_bins, ctx.n_rows, ctx.n_cols)
        in_shm = self._arena.lease(int(ctx.images.nbytes))
        out_shm = self._arena.lease(int(8 * out_shape[0] * out_shape[1] * out_shape[2]))
        in_view = np.ndarray(ctx.images.shape, dtype=np.float64, buffer=in_shm.buf)
        in_view[...] = ctx.images  # the one host-side copy, replacing pickling
        del in_view
        payload = _kernel_payload(ctx, self._config)
        payload["images_shm"] = in_shm.name
        payload["images_shape"] = tuple(ctx.images.shape)
        payload["out_shm"] = out_shm.name
        payload["out_shape"] = out_shape
        future = self._pool.submit(_worker_reconstruct_rows, payload)
        return (row_start, future, (in_shm, out_shm, out_shape))

    def _submit_pickle(self, ctx: KernelContext, row_start: int) -> _Pending:
        """Legacy dispatch: the whole slab is pickled into the pool."""
        payload = _kernel_payload(ctx, self._config)
        payload["images"] = np.ascontiguousarray(ctx.images)
        return (row_start, self._pool.submit(_worker_reconstruct_rows_pickled, payload), None)

    def _collect(self, entry: _Pending) -> Tuple[int, np.ndarray]:
        """Wait for one pending band; on failure cancel the rest and re-raise."""
        row_start, future, lease = entry
        try:
            value = future.result()
        except BaseException as exc:
            if isinstance(exc, BrokenExecutor) and self._pool is not None:
                self._pool.mark_broken()  # next run respawns the shared pool
            self._cancel_pending()
            raise
        if lease is None:
            partial, n_active = value
            self._n_active += n_active
            return row_start, partial
        self._n_active += value
        _in_shm, out_shm, out_shape = lease
        return row_start, np.ndarray(out_shape, dtype=np.float64, buffer=out_shm.buf)

    def _release(self, entry: _Pending) -> None:
        """Recycle a collected band's slabs (after the engine merged the view)."""
        lease = entry[2]
        if lease is not None and self._arena is not None:
            in_shm, out_shm, _shape = lease
            self._arena.release(in_shm)
            self._arena.release(out_shm)

    def _cancel_pending(self) -> None:
        """Cancel every not-yet-running band instead of blocking on it.

        Bands already executing cannot be interrupted; their slabs are
        reclaimed by :meth:`close` (the arena unlinks leased segments too).
        """
        while self._pending:
            _start, future, _lease = self._pending.popleft()
            future.cancel()

    # ------------------------------------------------------------------ #
    def execute_chunk(
        self, ctx: KernelContext, row_start: int, row_stop: int
    ) -> Iterable[Tuple[int, np.ndarray]]:
        self._n_bands += 1
        self._n_threads += ctx.n_steps * ctx.n_rows * ctx.n_cols
        if self._pool is None:
            # in-process fall-back (n_workers == 1): no pool, no copies
            out = np.zeros((self._config.grid.n_bins, ctx.n_rows, ctx.n_cols), dtype=np.float64)
            self._n_active += depth_resolve_chunk_fused(ctx, out)
            yield row_start, out
            return
        if self._dispatch == "shm":
            self._pending.append(self._submit_shm(ctx, row_start))
        else:
            self._pending.append(self._submit_pickle(ctx, row_start))
        self.peak_inflight = max(self.peak_inflight, len(self._pending))
        # drain at >= so at most max_inflight chunks are ever resident (the
        # old > admitted max_inflight + 1 slabs)
        while len(self._pending) >= self._max_inflight:
            entry = self._pending.popleft()
            yield self._collect(entry)
            self._release(entry)

    def drain(self) -> Iterable[Tuple[int, np.ndarray]]:
        while self._pending:
            entry = self._pending.popleft()
            yield self._collect(entry)
            self._release(entry)

    def close(self) -> None:
        """Release per-run resources; the shared pool itself stays alive.

        The (now closed) arena object is kept on the executor so tests and
        diagnostics can audit its accounting — every segment it ever created
        is unlinked by ``close()``.
        """
        self._cancel_pending()
        if self._arena is not None:
            self._arena.close()
        self._pool = None

    # ------------------------------------------------------------------ #
    def report_extras(self) -> Dict:
        return {
            "n_kernel_launches": self._n_bands,
            "n_threads_launched": self._n_threads,
            "n_active_pixels": self._n_active,
        }

    def notes(self) -> List[str]:
        mode = self._dispatch if self._n_workers > 1 else "in-process"
        return [
            f"{self._n_workers} worker process(es), {self._n_bands} row band(s), "
            f"{mode} dispatch"
        ]


@register_backend(
    "multiprocess",
    supports_streaming=True,
    needs_workers=True,
    description="detector rows partitioned across a persistent process pool (n_workers)",
)
class MultiprocessBackend(Backend):
    """Row-partitioned reconstruction on the persistent shared process pool."""

    name = "multiprocess"

    def make_executor(self, config: ReconstructionConfig) -> ChunkExecutor:
        return MultiprocessExecutor()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _row_bands(n_rows: int, n_workers: int) -> List[Tuple[int, int]]:
        """Split ``range(n_rows)`` into ``n_workers`` near-equal contiguous bands."""
        base = n_rows // n_workers
        extra = n_rows % n_workers
        bands: List[Tuple[int, int]] = []
        start = 0
        for worker in range(n_workers):
            size = base + (1 if worker < extra else 0)
            if size == 0:
                continue
            bands.append((start, start + size))
            start += size
        return bands
