"""The shared chunked execution engine.

Every backend used to carry its own copy of the same control flow: slice the
image cube into detector-row chunks, build a kernel context per chunk and
run the per-chunk compute.  This module extracts that loop into one place:

``ChunkSource``
    Where the image slabs come from.  :class:`StackChunkSource` serves an
    in-memory :class:`~repro.core.stack.WireScanStack`;
    :class:`repro.io.streaming.StreamingWireScanSource` serves row windows
    straight from an h5lite file without ever materialising the cube.  A
    window holds the wire positions the plan gives its chunk, which may be
    fewer than the scan's.

``ExecutionPlan``
    The row-chunk schedule plus the per-run shared state the chunks must
    agree on: the per-image background levels, the pixel-edge tables of
    every detector row and the trapezoid table of every (wire-step, row)
    pair, each computed once over the *whole* detector — so every backend,
    chunking and source subtracts the same background and distributes
    with the same geometry — the zeroed
    ``(n_bins, n_rows, n_cols)`` output cube of the run, the chunking
    strategy note, and the range of wire positions each chunk reads.  A
    host plan takes its rows per chunk from the caller or the config, else
    every row, or on an out-of-core source the rows of one fused-kernel row
    block (:func:`~repro.core.kernels._fused_row_block`); the simulated
    device sizes its chunks to its own memory and passes the rows on.  For
    an executor whose kernel skips unusable steps (the ``vectorized``
    backend, on either executor) the position range holds only the
    positions the chunk's usable steps difference, and a chunk with none
    reads nothing; the other executors read every position.

``ChunkExecutor``
    What a backend actually contributes: how to plan its chunks, optional
    per-run setup/teardown, and the per-chunk compute that distributes a
    :class:`~repro.core.kernels.KernelContext` into the plan's output cube
    at the context's rows.  Executors may complete chunks asynchronously
    (the ``threads`` executor keeps a bounded number of row bands in flight)
    by yielding each finished chunk's or band's active-element count
    whenever it is ready and draining the rest at the end.

``execute``
    The engine loop: plan → prepare → per chunk (load the chunk's window
    of positions, build context, execute) → report.  Every chunk writes its
    own rows of the one output cube, which becomes the result without a
    copy.

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

from repro.core.config import ReconstructionConfig
from repro.core.kernels import KernelContext, _fused_row_block, _step_span, _trapezoid_table
from repro.core.registry import get_backend
from repro.core.result import DepthResolvedStack, ReconstructionReport
from repro.core.stack import WireScanStack
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError

__all__ = [
    "ChunkSource",
    "StackChunkSource",
    "ExecutionPlan",
    "ChunkExecutor",
    "build_chunk_context",
    "build_execution_plan",
    "compute_stack_background",
    "execute",
    "execute_backend",
]

_LOG = get_logger(__name__)


# --------------------------------------------------------------------------- #
# sources
class ChunkSource(abc.ABC):
    """Provider of image slabs and geometry for the engine.

    A source exposes the problem dimensions and geometry up front (cheaply —
    for a file-backed source this is header data only) and serves the
    intensity slab of any detector-row window on demand.  The engine asks
    for a window's slab through :meth:`load_window`, with the range of wire
    positions its plan gives the chunk; a source implements
    :meth:`load_rows` and may override :meth:`load_window` to read only
    that range.
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

    def load_window(
        self, row_start: int, row_stop: int, position_start: int, position_stop: int
    ) -> np.ndarray:
        """The slab of positions ``position_start:position_stop`` of rows
        ``row_start:row_stop``, shape ``(position_stop - position_start,
        row_stop - row_start, n_cols)``.

        By default those positions of :meth:`load_rows`' slab (a view of it
        when it is one); a source that can read fewer bytes overrides it.
        """
        return self.load_rows(row_start, row_stop)[position_start:position_stop]

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


def _require_canonical_beam(beam) -> None:
    """Refuse a beam the depth mapping cannot use: depth is measured along
    +z from the lab origin, so any other beam would be reconstructed as if
    it were that one."""
    if not beam.is_canonical():
        raise ValidationError(
            f"the depth reconstruction needs the canonical +z beam through the origin, got {beam}"
        )


class StackChunkSource(ChunkSource):
    """Serves chunks from an in-memory :class:`WireScanStack`."""

    def __init__(self, stack: WireScanStack):
        _require_canonical_beam(stack.beam)
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

    #: ``(row_start, row_stop)`` pairs tiling the detector in order
    chunks: Tuple[Tuple[int, int], ...]
    #: chunk size (the last chunk may be smaller)
    rows_per_chunk: int
    #: the ``(back, front)`` pixel-edge (y, z) tables of every detector row,
    #: each of shape ``(n_rows, 2)``: the source's ``row_edges_yz`` of all
    #: rows, computed once; the trapezoid table is built from them and the
    #: simulated device uploads their rows with each chunk
    row_edges: Tuple[np.ndarray, np.ndarray]
    #: the trapezoid table ``(d1, d2, d3, d4, area, active)`` of every
    #: (wire-step, detector-row) pair, each of shape ``(n_steps, n_rows)``;
    #: chunks, thread bands and device launches read views of it
    trapezoids: Tuple[np.ndarray, ...]
    #: the run's zeroed ``(n_bins, n_rows, n_cols)`` output cube: executors
    #: distribute every chunk into its own rows, and the result wraps it
    output: np.ndarray
    #: the ``(position_start, position_stop)`` range of wire positions each
    #: chunk reads, parallel to :attr:`chunks`: every position, or in a
    #: trimmed plan the positions its usable steps difference (``(0, 0)``
    #: when it has none)
    position_ranges: Tuple[Tuple[int, int], ...]
    #: per-image background levels, shape ``(n_positions, 1, 1)``; ``None``
    #: when ``subtract_background`` is off
    background: Optional[np.ndarray] = None
    #: how the chunk size was chosen (for the report notes)
    strategy: str = "host"

    @property
    def n_chunks(self) -> int:
        """Number of row chunks."""
        return len(self.chunks)

    def summary(self) -> str:
        """One-line plan description shared by every backend's report."""
        return (
            f"plan[{self.strategy}]: {self.n_chunks} chunk(s) of up to "
            f"{self.rows_per_chunk} row(s)"
        )


def host_chunk_rows(
    n_positions: int,
    n_rows: int,
    n_cols: int,
    rows_per_chunk: Optional[int],
    out_of_core: bool,
) -> int:
    """Rows per chunk of a host plan over a ``(n_positions, n_rows, n_cols)``
    scan: *rows_per_chunk*, else every row — except out of core, where a
    chunk holds the rows of one fused-kernel row block
    (:func:`~repro.core.kernels._fused_row_block` of the scan's steps), the
    rows the kernel differences at a time anyway.  Never more than *n_rows*.
    """
    if rows_per_chunk is None and out_of_core:
        rows_per_chunk = _fused_row_block(n_positions - 1, n_cols)
    rows = n_rows if rows_per_chunk is None else min(int(rows_per_chunk), n_rows)
    if rows < 1:
        raise ValidationError(f"rows_per_chunk must be >= 1, got {rows_per_chunk!r}")
    return rows


def build_execution_plan(
    source: ChunkSource,
    config: ReconstructionConfig,
    rows_per_chunk: Optional[int] = None,
    strategy: str = "host",
    trim_positions: bool = False,
) -> ExecutionPlan:
    """Build an :class:`ExecutionPlan` for *source* under *config*.

    Rows per chunk follow :func:`host_chunk_rows` from ``rows_per_chunk``,
    else ``config.rows_per_chunk``: every row when neither is set, except
    on an out-of-core source, whose windows hold one fused-kernel row
    block, so a file run never pulls the whole cube into RAM.

    The per-run state is computed here, once: the background levels, the
    source's edge tables for every detector row, the trapezoid table, whose
    geometry comes from those edge tables and the wire trajectory, the
    zeroed output cube, and each chunk's range of wire positions.

    With ``trim_positions`` a chunk's range holds only positions ``s0`` to
    ``s1``, where steps ``s0`` to ``s1 - 1`` are the span the fused kernel
    gives the chunk's rows (:func:`~repro.core.kernels._step_span`), and a
    chunk with no usable step reads nothing.  Only an executor whose kernel
    skips unusable steps may ask for it; the scalar reference differences
    every element, and the simulated device copies whole chunks.
    """
    if rows_per_chunk is None:
        rows_per_chunk = config.rows_per_chunk
    rows = host_chunk_rows(
        source.n_positions, source.n_rows, source.n_cols, rows_per_chunk, source.out_of_core
    )
    chunks = tuple(
        (start, min(start + rows, source.n_rows)) for start in range(0, source.n_rows, rows)
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
    if trim_positions:
        pair_active = trapezoids[5]
        spans = [_step_span(pair_active, slice(*chunk)) for chunk in chunks]
        # steps s0 to s1 - 1 difference positions s0 to s1; no step, no position
        position_ranges = tuple((s0, s1 + 1) if s1 > s0 else (0, 0) for s0, s1 in spans)
    else:
        position_ranges = ((0, source.n_positions),) * len(chunks)
    return ExecutionPlan(
        chunks=chunks,
        rows_per_chunk=rows,
        row_edges=(back_edges, front_edges),
        trapezoids=trapezoids,
        position_ranges=position_ranges,
        output=np.zeros((config.grid.n_bins, source.n_rows, source.n_cols)),
        background=compute_stack_background(source, config),
        strategy=strategy,
    )


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
    Work may also finish in ``drain`` after its count was yielded: the
    serial ``vectorized`` executor yields each chunk's count at once but
    leaves the chunk's sparse row blocks in the run's element batch, and
    its ``drain`` distributes what the batch still holds.  ``close`` drops
    whatever a failed run left.
    """

    #: the executor's name in the engine's debug log
    name: str = ""

    def plan(self, source: ChunkSource, config: ReconstructionConfig) -> ExecutionPlan:
        """Chunk schedule for this executor (the host plan by default)."""
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


# --------------------------------------------------------------------------- #
# the engine loop
def build_chunk_context(
    source: ChunkSource,
    config: ReconstructionConfig,
    plan: ExecutionPlan,
    row_start: int,
    row_stop: int,
    positions: Optional[Tuple[int, int]] = None,
) -> KernelContext:
    """Kernel inputs for detector rows ``row_start:row_stop`` of *source*.

    The slab holds wire positions ``positions = (position_start,
    position_stop)``, every position when omitted; the engine passes the
    chunk's range from the plan.  It is read once, with
    :meth:`ChunkSource.load_window`, and an empty range reads nothing.  The
    plan's whole-stack background levels of those positions are subtracted
    from the slab when set, the context views the plan's trapezoid table at
    these rows (no geometry is recomputed per chunk), its
    ``position_start`` is the slab's first position, and its ``row_offset``
    maps its first row to output row ``row_start``.
    """
    if not (0 <= row_start < row_stop <= source.n_rows):
        raise ValidationError(f"invalid row range [{row_start}, {row_stop})")
    position_start, position_stop = (0, source.n_positions) if positions is None else positions
    if position_stop > position_start:
        slab = source.load_window(row_start, row_stop, position_start, position_stop)
    else:
        slab = np.empty((0, row_stop - row_start, source.n_cols))
    if plan.background is not None:
        slab = slab - plan.background[position_start:position_stop]
    return KernelContext(
        images=slab,
        trapezoids=tuple(part[:, row_start:row_stop] for part in plan.trapezoids),
        grid=config.grid,
        wire_edge=config.wire_edge,
        difference_mode=config.difference_mode,
        intensity_cutoff=config.intensity_cutoff,
        mask=source.mask_rows(row_start, row_stop),
        row_offset=row_start,
        position_start=position_start,
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
        for (row_start, row_stop), positions in zip(plan.chunks, plan.position_ranges):
            ctx = build_chunk_context(source, config, plan, row_start, row_stop, positions)
            n_active += sum(executor.execute_chunk(ctx, row_start, row_stop))
        n_active += sum(executor.drain())
    finally:
        executor.close()

    wall = time.perf_counter() - start
    extras = dict(executor.report_extras())
    extras.setdefault("compute_time", wall)
    # the backend that computed, as the config names it; where it ran
    # (config.executor) is in the executor's notes
    report = ReconstructionReport(
        backend=config.backend,
        wall_time=wall,
        n_chunks=plan.n_chunks,
        n_steps=source.n_steps,
        n_active_pixels=n_active,
        notes=[plan.summary()] + executor.notes(),
        **extras,
    )
    result = DepthResolvedStack(
        data=plan.output, grid=config.grid, metadata={**source.metadata, "backend": config.backend}
    )
    return result, report


def execute_backend(
    source: ChunkSource, config: ReconstructionConfig
) -> Tuple[DepthResolvedStack, ReconstructionReport]:
    """Run *source* through the backend named by ``config.backend``.

    :meth:`Session.run <repro.core.session.Session.run>` reconstructs
    through it: it resolves the backend from the registry and hands its
    executor to :func:`execute`, so file-backed and in-memory runs share the
    identical engine path.
    """
    backend = get_backend(config.backend)
    return execute(source, config, backend.make_executor(config))
