"""The shared chunked execution engine.

Every backend used to carry its own copy of the same control flow: slice the
image cube into detector-row chunks, build a kernel context per chunk and
run the per-chunk compute.  This module extracts that loop into one place:

``ChunkSource``
    Where the image slabs come from.  :class:`StackChunkSource` serves an
    in-memory :class:`~repro.core.stack.WireScanStack`;
    :class:`repro.io.streaming.StreamingWireScanSource` serves row windows
    straight from an h5lite file without ever materialising the cube.

``ExecutionPlan``
    The row-chunk schedule (built from
    :func:`~repro.core.chunking.plan_row_chunks`) plus the per-run shared
    state the chunks must agree on: the per-image background levels, the
    pixel-edge tables of every detector row and the trapezoid table of every
    (wire-step, row) pair, each computed once over the *whole* detector — so
    every backend, chunking and streaming mode subtracts the same background
    and distributes with the same geometry — the zeroed
    ``(n_bins, n_rows, n_cols)`` output cube of the run, and the chunking
    strategy note.

``ChunkExecutor``
    What a backend actually contributes: how to plan its chunks, optional
    per-run setup/teardown, and the per-chunk compute that distributes a
    :class:`~repro.core.kernels.KernelContext` into the plan's output cube
    at the context's rows.  Executors may complete chunks asynchronously
    (the threaded executor keeps a bounded number of row bands in flight)
    by yielding each finished chunk's or band's active-element count
    whenever it is ready and draining the rest at the end.

``execute``
    The engine loop: plan → prepare → per chunk (load slab, build context,
    execute) → report.  Every chunk writes its own rows of the one output
    cube, which becomes the result without a copy.

The engine also owns the run accounting that used to be duplicated: every
report's notes carry the plan summary so cross-backend comparisons are
attributable to identical chunking.  The active-element count is not
recomputed here: each executor's kernel counts the elements it distributes
while it distributes them, and the engine sums the counts the executor
yields into the report's ``n_active_pixels``.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.chunking import ChunkPlan, plan_row_chunks
from repro.core.config import ReconstructionConfig
from repro.core.kernels import KernelContext, _trapezoid_table
from repro.core.result import DepthResolvedStack, ReconstructionReport
from repro.core.stack import WireScanStack
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError

__all__ = [
    "ChunkSource",
    "StackChunkSource",
    "ExecutionPlan",
    "ChunkExecutor",
    "HOST_MEMORY_BYTES",
    "STREAMING_CHUNK_BYTES",
    "build_chunk_context",
    "build_execution_plan",
    "streaming_budget_bytes",
    "compute_stack_background",
    "execute",
    "execute_backend",
    "make_strategy_executor",
]

_LOG = get_logger(__name__)

#: Chunk-planning budget for host-resident executors: effectively unbounded,
#: so a host plan without an explicit ``rows_per_chunk`` is a single chunk.
HOST_MEMORY_BYTES = 1 << 62

#: Chunk-planning budget for host executors reading from an *out-of-core*
#: source with no explicit ``rows_per_chunk``: a single chunk would pull the
#: whole cube into RAM, defeating streaming, so slabs are capped at this many
#: bytes (grown as needed so at least one row always fits).
STREAMING_CHUNK_BYTES = 256 * 1024 * 1024


# --------------------------------------------------------------------------- #
# sources
class ChunkSource(abc.ABC):
    """Provider of image slabs and geometry for the engine.

    A source exposes the problem dimensions and geometry up front (cheaply —
    for a file-backed source this is header data only) and serves the
    intensity slab of any detector-row window on demand.
    """

    #: True when slabs are loaded from out-of-core storage, so planners
    #: should bound chunk sizes rather than default to one full-cube chunk
    out_of_core: bool = False

    #: number of wire positions (images)
    n_positions: int
    #: detector rows
    n_rows: int
    #: detector columns
    n_cols: int
    #: wire-centre trajectory, shape ``(n_positions, 2)``
    wire_positions_yz: np.ndarray
    #: wire radius
    wire_radius: float
    #: free-form metadata propagated into the result
    metadata: Dict

    @property
    def n_steps(self) -> int:
        """Number of adjacent-image differences."""
        return self.n_positions - 1

    @abc.abstractmethod
    def row_edges_yz(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Back/front pixel-edge (y, z) tables for absolute detector rows."""

    @abc.abstractmethod
    def load_rows(self, row_start: int, row_stop: int) -> np.ndarray:
        """The intensity slab ``(n_positions, row_stop - row_start, n_cols)``."""

    @abc.abstractmethod
    def mask_rows(self, row_start: int, row_stop: int) -> Optional[np.ndarray]:
        """Pixel-mask window for rows ``row_start:row_stop`` (``None`` if unmasked)."""

    @abc.abstractmethod
    def position_image(self, position: int) -> np.ndarray:
        """One full detector image ``(n_rows, n_cols)`` — used by the
        background pass, which needs every row of an image but only one
        image at a time."""

    def describe(self) -> str:
        """One-line description for logs and report notes."""
        return f"{type(self).__name__}({self.n_positions}x{self.n_rows}x{self.n_cols})"


class StackChunkSource(ChunkSource):
    """Serves chunks from an in-memory :class:`WireScanStack`."""

    def __init__(self, stack: WireScanStack):
        self.stack = stack
        self.n_positions = stack.n_positions
        self.n_rows = stack.n_rows
        self.n_cols = stack.n_cols
        self.wire_positions_yz = stack.scan.positions
        self.wire_radius = stack.scan.wire.radius
        self.metadata = stack.metadata

    def row_edges_yz(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.stack.detector.row_edges_yz(rows)

    def load_rows(self, row_start: int, row_stop: int) -> np.ndarray:
        return self.stack.images[:, row_start:row_stop, :]

    def mask_rows(self, row_start: int, row_stop: int) -> Optional[np.ndarray]:
        if self.stack.pixel_mask is None:
            return None
        return self.stack.pixel_mask[row_start:row_stop, :]

    def position_image(self, position: int) -> np.ndarray:
        return self.stack.images[position]


# --------------------------------------------------------------------------- #
# plans
@dataclass(frozen=True)
class ExecutionPlan:
    """A chunk schedule plus the per-run shared state every chunk agrees on."""

    chunk_plan: ChunkPlan
    #: the ``(back, front)`` pixel-edge (y, z) tables of every detector row,
    #: each of shape ``(n_rows, 2)``: the source's ``row_edges_yz`` of all
    #: rows, computed once; the trapezoid table is built from them and chunk
    #: contexts view their rows of them
    row_edges: Tuple[np.ndarray, np.ndarray]
    #: the trapezoid table ``(d1, d2, d3, d4, area, active)`` of every
    #: (wire-step, detector-row) pair, each of shape ``(n_steps, n_rows)``;
    #: chunks, thread bands and device launches read views of it
    trapezoids: Tuple[np.ndarray, ...]
    #: the run's zeroed ``(n_bins, n_rows, n_cols)`` output cube: executors
    #: distribute every chunk into its own rows, and the result wraps it
    output: np.ndarray
    #: per-image background levels, shape ``(n_positions, 1, 1)``; ``None``
    #: when ``subtract_background`` is off
    background: Optional[np.ndarray] = None
    #: how the chunk size was chosen (for the report notes)
    strategy: str = "host"

    @property
    def chunks(self) -> Tuple[Tuple[int, int], ...]:
        """``(row_start, row_stop)`` pairs tiling the detector."""
        return self.chunk_plan.chunks

    @property
    def n_chunks(self) -> int:
        """Number of row chunks."""
        return self.chunk_plan.n_chunks

    @property
    def rows_per_chunk(self) -> int:
        """Chunk size (last chunk may be smaller)."""
        return self.chunk_plan.rows_per_chunk

    def summary(self) -> str:
        """One-line plan description shared by every backend's report."""
        return f"plan[{self.strategy}]: {self.chunk_plan.summary()}"


def build_execution_plan(
    source: ChunkSource,
    config: ReconstructionConfig,
    device_memory_bytes: int = HOST_MEMORY_BYTES,
    rows_per_chunk: Optional[int] = None,
    strategy: str = "host",
) -> ExecutionPlan:
    """Build an :class:`ExecutionPlan` for *source* under *config*.

    ``rows_per_chunk`` falls back to ``config.rows_per_chunk``; when both are
    ``None`` the planner picks the largest chunk that fits
    ``device_memory_bytes``.  For host executors that budget is effectively
    unbounded — one full chunk — *except* on an out-of-core source, where the
    slab budget is capped at :data:`STREAMING_CHUNK_BYTES` so streaming never
    pulls the whole cube into RAM.

    The per-run state is computed here, once: the background levels, the
    source's edge tables for every detector row, the trapezoid table, whose
    geometry comes from those edge tables and the wire trajectory, and the
    zeroed output cube.
    """
    if rows_per_chunk is None:
        rows_per_chunk = config.rows_per_chunk
    if rows_per_chunk is None and source.out_of_core and device_memory_bytes >= HOST_MEMORY_BYTES:
        device_memory_bytes = streaming_budget_bytes(source, config)
    chunk_plan = plan_row_chunks(
        n_rows=source.n_rows,
        n_cols=source.n_cols,
        n_positions=source.n_positions,
        n_depth_bins=config.grid.n_bins,
        device_memory_bytes=device_memory_bytes,
        layout=config.layout,
        rows_per_chunk=rows_per_chunk,
    )
    back_edges, front_edges = source.row_edges_yz(np.arange(source.n_rows))
    trapezoids = _trapezoid_table(
        back_edges,
        front_edges,
        source.wire_positions_yz,
        source.wire_radius,
        config.wire_edge,
        config.grid,
    )
    return ExecutionPlan(
        chunk_plan=chunk_plan,
        row_edges=(back_edges, front_edges),
        trapezoids=trapezoids,
        output=np.zeros((config.grid.n_bins, source.n_rows, source.n_cols)),
        background=compute_stack_background(source, config),
        strategy=strategy,
    )


def streaming_budget_bytes(source: ChunkSource, config: ReconstructionConfig) -> int:
    """Slab budget for planning chunks over an out-of-core source.

    :data:`STREAMING_CHUNK_BYTES`, grown when a single detector row (plus the
    planner's head-room) would not fit, so a plan always exists.
    """
    from repro.core.chunking import estimate_chunk_device_bytes

    one_row = estimate_chunk_device_bytes(
        1, source.n_cols, source.n_positions, config.grid.n_bins, config.layout
    )
    return max(STREAMING_CHUNK_BYTES, int(one_row / 0.9) + 1)


def compute_stack_background(
    source: ChunkSource, config: ReconstructionConfig
) -> Optional[np.ndarray]:
    """Per-image background levels over the *whole* stack, or ``None``.

    The background of image ``i`` is the median of every pixel of that image
    — not of whichever row chunk happens to be in flight, which is what the
    old per-backend loops computed and why chunked and unchunked runs used to
    subtract different backgrounds.  One image is resident at a time, so the
    pass is safe for out-of-core sources.
    """
    if not config.subtract_background:
        return None
    levels = np.empty((source.n_positions, 1, 1), dtype=np.float64)
    for position in range(source.n_positions):
        levels[position, 0, 0] = np.median(source.position_image(position))
    return levels


# --------------------------------------------------------------------------- #
# executors
class ChunkExecutor(abc.ABC):
    """Per-chunk compute supplied by a backend.

    The engine drives the executor through a fixed sequence::

        plan(source, config)
        prepare(source, config, plan)
        for each chunk:  execute_chunk(ctx, row_start, row_stop)  -> counts
        drain()                                                   -> counts
        report_extras(), notes()

    ``prepare`` hands the executor the plan, whose ``output`` cube every
    chunk distributes into at ``ctx.row_offset`` (the chunk's first row).
    ``execute_chunk`` and ``drain`` are generators that do their work while
    they are iterated and yield the active-element count of every chunk or
    band they finish; a synchronous executor yields its own chunk's count
    immediately, an asynchronous one may buffer work and yield completed
    counts in any order.  The engine sums them into ``n_active_pixels``.
    """

    #: report/backend name
    name: str = ""

    def plan(self, source: ChunkSource, config: ReconstructionConfig) -> ExecutionPlan:
        """Chunk schedule for this executor (host single-chunk by default)."""
        return build_execution_plan(source, config)

    def prepare(self, source: ChunkSource, config: ReconstructionConfig, plan: ExecutionPlan) -> None:
        """Per-run setup (the output cube, device allocation, worker pools, ...)."""

    @abc.abstractmethod
    def execute_chunk(self, ctx: KernelContext, row_start: int, row_stop: int) -> Iterable[int]:
        """Run the per-chunk compute; yield the active counts of finished work."""

    def drain(self) -> Iterable[int]:
        """Yield the active counts of work still in flight after the last chunk."""
        return ()

    def report_extras(self) -> Dict:
        """Extra :class:`ReconstructionReport` field values (timings, bytes, ...)."""
        return {}

    def notes(self) -> List[str]:
        """Executor-specific report notes, appended after the plan summary."""
        return []

    def close(self) -> None:
        """Release per-run resources; called even when a chunk raises."""


def make_strategy_executor(config: ReconstructionConfig) -> "ChunkExecutor":
    """The :class:`ChunkExecutor` implementing ``config.executor``.

    The executor-strategy axis is orthogonal to the backend axis: a backend
    defines *what* the per-chunk compute is, the strategy defines *where* it
    runs — ``serial`` in the calling thread, ``threads`` on the shared
    GIL-releasing thread pool.  The vectorized backend routes through here
    so ``config.executor`` selects between them without changing backends.

    An unresolved ``auto`` falls back to serial: the session resolves
    ``auto`` against the tuner cache *before* execution, so seeing it here
    means the caller bypassed the session — the safe default is the one
    every machine can honour.
    """
    # deferred imports: the backend modules import this engine module
    if config.executor == "threads":
        from repro.core.backends.threaded import ThreadedExecutor

        return ThreadedExecutor()
    from repro.core.backends.vectorized import VectorizedExecutor

    return VectorizedExecutor()


# --------------------------------------------------------------------------- #
# the engine loop
def build_chunk_context(
    source: ChunkSource,
    config: ReconstructionConfig,
    plan: ExecutionPlan,
    row_start: int,
    row_stop: int,
    slab: Optional[np.ndarray] = None,
) -> KernelContext:
    """Kernel inputs for detector rows ``row_start:row_stop`` of *source*.

    *slab* lets the caller pass a window it has already loaded (the engine
    loads each chunk exactly once); otherwise it is read from the source.
    The plan's whole-stack background levels are subtracted from the slab
    when set, the context views the plan's edge and trapezoid tables at
    these rows (no geometry is recomputed per chunk), and its
    ``row_offset`` maps its first row to output row ``row_start``.
    """
    if not (0 <= row_start < row_stop <= source.n_rows):
        raise ValidationError(f"invalid row range [{row_start}, {row_stop})")
    if slab is None:
        slab = source.load_rows(row_start, row_stop)
    if plan.background is not None:
        slab = slab - plan.background
    back_edges, front_edges = plan.row_edges
    return KernelContext(
        images=slab,
        back_edge_yz=back_edges[row_start:row_stop],
        front_edge_yz=front_edges[row_start:row_stop],
        wire_positions_yz=source.wire_positions_yz,
        trapezoids=tuple(part[:, row_start:row_stop] for part in plan.trapezoids),
        grid=config.grid,
        wire_edge=config.wire_edge,
        difference_mode=config.difference_mode,
        intensity_cutoff=config.intensity_cutoff,
        mask=source.mask_rows(row_start, row_stop),
        row_offset=row_start,
    )


def execute(
    source: ChunkSource,
    config: ReconstructionConfig,
    executor: ChunkExecutor,
) -> Tuple[DepthResolvedStack, ReconstructionReport]:
    """Run the full plan → execute → report sequence.

    Returns the depth-resolved stack — the plan's output cube itself, not a
    copy — and the run report.
    """
    start = time.perf_counter()
    plan = executor.plan(source, config)
    _LOG.debug("engine: %s via %s, %s", source.describe(), executor.name, plan.summary())

    n_active = 0
    # prepare() acquires per-run resources (the shared thread pool); it sits
    # inside the try so close() runs even when it — or any chunk — raises,
    # and no band stays queued on the pool after a failed run
    try:
        executor.prepare(source, config, plan)
        for row_start, row_stop in plan.chunks:
            slab = source.load_rows(row_start, row_stop)
            ctx = build_chunk_context(source, config, plan, row_start, row_stop, slab=slab)
            n_active += sum(executor.execute_chunk(ctx, row_start, row_stop))
        n_active += sum(executor.drain())
    finally:
        executor.close()

    wall = time.perf_counter() - start
    extras = dict(executor.report_extras())
    extras.setdefault("compute_time", wall)
    report = ReconstructionReport(
        backend=executor.name,
        wall_time=wall,
        n_chunks=plan.n_chunks,
        n_steps=source.n_steps,
        n_active_pixels=n_active,
        notes=[plan.summary()] + executor.notes(),
        **extras,
    )
    result = DepthResolvedStack(
        data=plan.output, grid=config.grid, metadata={**source.metadata, "backend": executor.name}
    )
    return result, report


def execute_backend(
    source: ChunkSource, config: ReconstructionConfig
) -> Tuple[DepthResolvedStack, ReconstructionReport]:
    """Run *source* through the backend named by ``config.backend``.

    This is the entry point the streaming pipeline uses: it resolves the
    backend from the registry and hands its executor to :func:`execute`, so
    file-backed and in-memory runs share the identical engine path.
    """
    from repro.core.backends import get_backend  # deferred: backends import engine

    backend = get_backend(config.backend)
    return execute(source, config, backend.make_executor(config))
