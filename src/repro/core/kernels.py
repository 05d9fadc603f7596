"""The depth-reconstruction kernel bodies.

This module is the Python analogue of the paper's ``setTwo`` CUDA kernel and
the device functions it calls.  A trapezoid depends only on its (wire-step,
detector-row) pair: its four corners are the critical depths of the pixel's
back/front edges at the step's two wire positions.  :func:`_trapezoid_table`
computes the sorted corners, area and usability of every pair once per run
(the engine's :class:`~repro.core.engine.ExecutionPlan` holds the table), and
every kernel reads its slice of that table through
:attr:`KernelContext.trapezoids` — the geometry has one definition, so every
form below is bitwise identical to the scalar reference by construction.

``depth_resolve_element``
    The per-thread body: one (column, row, wire-step) triple, written with
    scalar ``math`` operations in the CUDA code's sequence, except that the
    pair's four critical depths are read from the table instead of solved
    per thread; then it distributes the differential intensity into the
    depth histogram.  The CPU-reference backend loops over it
    (:func:`depth_resolve_chunk_scalar`, the ground truth); the GPU-sim
    backend can execute it per simulated thread (:func:`set_two_per_thread`).

``depth_resolve_chunk_fused``
    The production kernel of the host backends.  It walks the chunk in
    L2-sized row blocks, integrates each block's depth-bin overlaps once per
    active pair into a small bin-major table (window bin ``k`` of every pair
    is one contiguous row), and distributes the block's active elements in
    batches: each batch gathers its pairs' overlaps one window bin at a time
    into two per-block ``(batch, width)`` buffers, weights and output slots,
    and hands them to one ``atomic_add`` — no per-element trapezoid
    integral, no 2-D fancy index, and the signed differences are computed
    block by block on the fly.

``set_two_vectorized``
    The GPU-sim launch body over explicit thread-coordinate arrays: the
    fused kernel over the launch's whole thread volume.

Every form accumulates with atomic-add semantics into a C-contiguous
``(n_bins, out_rows, cols)`` depth-resolved cube, at the output rows
starting from :attr:`KernelContext.row_offset`, and counts the *active*
elements it distributed — elements that pass the pixel mask, whose
edge-signed difference ``d`` passes the intensity cutoff
(``|d| > max(cutoff, 0)``, which a zero or NaN ``d`` never does), and whose
pair's trapezoid is finite, non-degenerate and overlaps the depth grid.  The
chunk kernels return the count; the ``setTwo`` bodies add it to a one-slot
device counter.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.core.config import DifferenceMode
from repro.core.depth_grid import DepthGrid
from repro.core.depth_mapping import pixel_yz_to_depth
from repro.core.trapezoid import MIN_TRAPEZOID_AREA, trapezoid_area, trapezoid_bin_overlaps
from repro.cudasim.atomic import atomic_add
from repro.geometry.wire import WireEdge
from repro.utils.validation import ValidationError

__all__ = [
    "KernelContext",
    "depth_resolve_element",
    "depth_resolve_chunk_scalar",
    "depth_resolve_chunk_fused",
    "FUSED_ROW_BLOCK_BYTES",
    "set_two_per_thread",
    "set_two_vectorized",
    "make_set_two_kernel",
    "KERNEL_FLOPS_PER_THREAD",
    "KERNEL_BYTES_PER_THREAD",
]

#: Rough per-thread arithmetic cost of the paper's kernel (4 critical-depth
#: solves at ~25 flops each, trapezoid construction and a handful of bins
#: updated) — used only by the analytic performance model, which charges the
#: modelled device for the per-thread solves the CUDA code performs.
KERNEL_FLOPS_PER_THREAD = 220.0
#: Rough per-thread global-memory traffic: two image reads, geometry reads
#: and a few histogram read-modify-writes.
KERNEL_BYTES_PER_THREAD = 96.0


class KernelContext:
    """Read-only inputs shared by every thread of a chunk launch.

    Parameters
    ----------
    images:
        Intensity slab of shape ``(n_positions, rows, n_cols)``.
    back_edge_yz, front_edge_yz:
        Per-row pixel-edge coordinates, shape ``(rows, 2)`` — the
        ``firstedge``/``edge`` tables of the original kernel.
    wire_positions_yz:
        Wire-centre positions, shape ``(n_positions, 2)``.
    trapezoids:
        The slab's slice of the run's trapezoid table (see
        :func:`_trapezoid_table`): ``(d1, d2, d3, d4, area, active)``, each
        of shape ``(n_positions - 1, rows)``.  The kernels read the response
        geometry from here only; the edge and wire tables above are what the
        simulated device uploads.
    grid:
        Depth grid to accumulate onto.
    wire_edge:
        Which wire edge is being analysed.
    difference_mode:
        Signed or rectified differences.
    intensity_cutoff:
        ``d_cutoff``: differences with magnitude at or below this are skipped.
    mask:
        Optional boolean ``(rows, n_cols)`` pixel mask.
    row_offset:
        The output row the slab's first row maps to: the kernels write into
        a ``(n_bins, out_rows, n_cols)`` cube at rows ``row_offset`` to
        ``row_offset + rows``.  An engine chunk's context holds its
        ``row_start``, a thread band's adds the band start to it, and a
        simulated launch batch, which writes a chunk-sized device buffer,
        holds 0.
    """

    def __init__(
        self,
        images: np.ndarray,
        back_edge_yz: np.ndarray,
        front_edge_yz: np.ndarray,
        wire_positions_yz: np.ndarray,
        trapezoids: Tuple[np.ndarray, ...],
        grid: DepthGrid,
        wire_edge: WireEdge = WireEdge.LEADING,
        difference_mode: DifferenceMode = DifferenceMode.SIGNED,
        intensity_cutoff: float = 0.0,
        mask: Optional[np.ndarray] = None,
        row_offset: int = 0,
    ):
        self.images = np.asarray(images, dtype=np.float64)
        self.back_edge_yz = np.asarray(back_edge_yz, dtype=np.float64)
        self.front_edge_yz = np.asarray(front_edge_yz, dtype=np.float64)
        self.wire_positions_yz = np.asarray(wire_positions_yz, dtype=np.float64)
        self.trapezoids = tuple(trapezoids)
        self.grid = grid
        self.wire_edge = wire_edge
        self.difference_mode = difference_mode
        self.intensity_cutoff = float(intensity_cutoff)
        self.mask = None if mask is None else np.asarray(mask, dtype=bool)
        self.row_offset = int(row_offset)
        if self.row_offset < 0:
            raise ValidationError(f"row_offset must be non-negative, got {self.row_offset}")

        self.n_positions, self.n_rows, self.n_cols = self.images.shape
        self.n_steps = self.n_positions - 1
        if len(self.trapezoids) != 6 or any(
            part.shape != (self.n_steps, self.n_rows) for part in self.trapezoids
        ):
            raise ValidationError(
                f"trapezoids must be six ({self.n_steps}, {self.n_rows}) arrays"
            )
        #: sign applied to (I[i] - I[i+1]) so that "signal appears" is positive
        #: for the selected edge
        self.edge_sign = 1.0 if wire_edge == WireEdge.LEADING else -1.0

    # ------------------------------------------------------------------ #
    def signed_difference(self, step: int, row: int, col: int) -> float:
        """Edge-signed intensity difference for one element (scalar path)."""
        diff = self.images[step, row, col] - self.images[step + 1, row, col]
        value = self.edge_sign * diff
        if self.difference_mode is DifferenceMode.RECTIFIED:
            value = max(value, 0.0)
        return value

    def signed_differences(self) -> np.ndarray:
        """Edge-signed differences for the whole slab, shape ``(n_steps, rows, cols)``."""
        diff = self.edge_sign * (self.images[:-1] - self.images[1:])
        if self.difference_mode is DifferenceMode.RECTIFIED:
            diff = np.maximum(diff, 0.0)
        return diff


def _scalar_cumulative_integral(x: float, d1: float, d2: float, d3: float, d4: float) -> float:
    """Scalar twin of :func:`repro.core.trapezoid._cumulative_integral`.

    Implemented with plain Python floats (same operations, same order) so the
    scalar reference path stays bit-compatible with the vectorised path while
    avoiding per-element NumPy call overhead in the innermost loop.  Squares
    are products: NumPy's ``** 2`` is an exact ``x * x``, while a Python
    float's ``** 2`` calls libm ``pow``, which can be one ulp off.
    """
    # rising ramp on [d1, d2]
    xr = min(max(x, d1), d2)
    rise_width = d2 - d1
    rise = 0.5 * ((xr - d1) * (xr - d1)) / rise_width if rise_width > 0 else 0.0
    # plateau on [d2, d3]
    xp = min(max(x, d2), d3)
    plateau = xp - d2
    # falling ramp on [d3, d4]
    xf = min(max(x, d3), d4)
    fall_width = d4 - d3
    fall = 0.5 * fall_width - 0.5 * ((d4 - xf) * (d4 - xf)) / fall_width if fall_width > 0 else 0.0
    return rise + plateau + fall


def _scalar_trapezoid_overlap(lo: float, hi: float, d1: float, d2: float, d3: float, d4: float) -> float:
    """Exact overlap of the unit trapezoid with ``[lo, hi]`` (scalar fast path)."""
    return _scalar_cumulative_integral(hi, d1, d2, d3, d4) - _scalar_cumulative_integral(
        lo, d1, d2, d3, d4
    )


def _trapezoid_table(
    back_edge_yz: np.ndarray,
    front_edge_yz: np.ndarray,
    wire_positions_yz: np.ndarray,
    wire_radius: float,
    wire_edge: WireEdge,
    grid: DepthGrid,
) -> Tuple[np.ndarray, ...]:
    """Sorted trapezoid corners, area and usability of every (step, row) pair.

    The one definition of the response geometry.  Corner ``k`` of the pair
    (step ``s``, row ``r``) is the critical depth of one of row ``r``'s pixel
    edges at one of the wire positions ``s`` and ``s + 1`` — the
    ``partial_start`` / ``partial_end`` / ``full_start`` / ``full_end``
    solves of the paper's ``setTwo`` kernel.

    Returns ``(d1, d2, d3, d4, area, active)``, each of shape
    ``(n_positions - 1, rows)``.  A pair is active when its four critical
    depths are finite and its trapezoid is non-degenerate and overlaps the
    grid.
    """
    back_edge_yz = np.asarray(back_edge_yz, dtype=np.float64)
    front_edge_yz = np.asarray(front_edge_yz, dtype=np.float64)
    wire_positions_yz = np.asarray(wire_positions_yz, dtype=np.float64)
    edge = int(wire_edge)
    back_y = back_edge_yz[:, 0][None, :]
    back_z = back_edge_yz[:, 1][None, :]
    front_y = front_edge_yz[:, 0][None, :]
    front_z = front_edge_yz[:, 1][None, :]
    wire_start_y = wire_positions_yz[:-1, 0][:, None]
    wire_start_z = wire_positions_yz[:-1, 1][:, None]
    wire_end_y = wire_positions_yz[1:, 0][:, None]
    wire_end_z = wire_positions_yz[1:, 1][:, None]

    partial_start = pixel_yz_to_depth(front_y, front_z, wire_start_y, wire_start_z, wire_radius, edge)
    partial_end = pixel_yz_to_depth(back_y, back_z, wire_end_y, wire_end_z, wire_radius, edge)
    full_start = pixel_yz_to_depth(back_y, back_z, wire_start_y, wire_start_z, wire_radius, edge)
    full_end = pixel_yz_to_depth(front_y, front_z, wire_end_y, wire_end_z, wire_radius, edge)

    corners = np.stack([partial_start, partial_end, full_start, full_end], axis=0)
    corners_valid = np.all(np.isfinite(corners), axis=0)
    d1, d2, d3, d4 = np.sort(corners, axis=0)
    area = trapezoid_area(d1, d2, d3, d4)
    active = corners_valid & (area > MIN_TRAPEZOID_AREA) & (d4 > grid.start) & (d1 < grid.stop)
    return d1, d2, d3, d4, area, active


def _check_out(ctx: KernelContext, out: np.ndarray) -> None:
    """Refuse an *out* the chunk kernels' flat writes would miss.

    The kernels write through ``out.reshape(-1)``, which is a copy — so the
    writes are lost — unless *out* is C-contiguous; and the context's rows
    must lie inside it at ``ctx.row_offset``.
    """
    holds = (ctx.grid.n_bins, ctx.row_offset + ctx.n_rows, ctx.n_cols)
    shape = out.shape
    if not (
        out.dtype == np.float64
        and out.flags.c_contiguous
        and len(shape) == 3
        and (shape[0], shape[2]) == (holds[0], holds[2])
        and shape[1] >= holds[1]
    ):
        layout = "C-contiguous" if out.flags.c_contiguous else "non-contiguous"
        raise ValidationError(
            f"out must be a C-contiguous float64 cube holding {holds}; "
            f"got a {layout} {out.dtype} array of shape {shape}"
        )


def depth_resolve_element(
    ctx: KernelContext,
    col: int,
    row: int,
    step: int,
    out: np.ndarray,
) -> bool:
    """Process one (column, row, wire-step) element — the ``setTwo`` thread body.

    Adds the element's depth-distributed intensity into the C-contiguous
    cube *out* (shape ``(n_bins, out_rows, cols)``) at output row
    ``ctx.row_offset + row`` and returns whether the element was active
    (see the module docstring); an inactive element deposits nothing.
    """
    if ctx.mask is not None and not ctx.mask[row, col]:
        return False

    value = ctx.signed_difference(step, row, col)
    # the fused kernel's test: |d| > cutoff, so d != 0, and a NaN d is skipped
    if not abs(value) > max(ctx.intensity_cutoff, 0.0):
        return False

    # the pair's trapezoid, as plain Python floats for the scalar loop below
    d1, d2, d3, d4, area, active = (part.item(step, row) for part in ctx.trapezoids)
    if not active:
        return False

    grid = ctx.grid
    plane = out.shape[1] * out.shape[2]
    pixel = (ctx.row_offset + row) * ctx.n_cols + col
    # restrict to the depth bins overlapping the trapezoid support
    first_bin = max(0, int(math.floor((d1 - grid.start) / grid.step)))
    last_bin = min(grid.n_bins - 1, int(math.floor((d4 - grid.start) / grid.step)))

    for bin_index in range(first_bin, last_bin + 1):
        # bin edges written exactly as DepthGrid.edges builds them
        # (start + step * k), so scalar and array kernels integrate over
        # bit-identical bin boundaries
        lo = grid.start + bin_index * grid.step
        hi = grid.start + (bin_index + 1) * grid.step
        overlap = _scalar_trapezoid_overlap(lo, hi, d1, d2, d3, d4)
        if overlap <= 0.0:
            continue
        contribution = value * overlap / area
        # atomicAdd analogue on the flattened output
        out.reshape(-1)[bin_index * plane + pixel] += contribution
    return True


def depth_resolve_chunk_scalar(ctx: KernelContext, out: np.ndarray) -> int:
    """Reference triple loop over every (step, row, column) element.

    This is the "original CPU program" of the paper: one scalar element at a
    time, no vectorisation.  Writes *out* at ``ctx.row_offset`` like
    :func:`depth_resolve_chunk_fused` and returns the number of active
    elements.
    """
    _check_out(ctx, out)
    n_active = 0
    for step in range(ctx.n_steps):
        for row in range(ctx.n_rows):
            for col in range(ctx.n_cols):
                n_active += depth_resolve_element(ctx, col, row, step, out)
    return n_active


#: Target size of the per-row-block difference temporary of the fused kernel.
#: Blocks are sized so the ``(n_steps, block_rows, n_cols)`` difference slab
#: stays resident in L2 while its elements are distributed.  With the
#: per-pair overlap table the per-element temporaries are a few bins wide, so
#: the slab is the block's working set: on a 2 MiB-per-core-L2 Xeon, 1 MiB
#: blocks ran the 6 MB in-memory and 4-row streamed benchmark scans 10-25%
#: faster than 256 KiB blocks, and 2 MiB blocks gained little more.
FUSED_ROW_BLOCK_BYTES = 1024 * 1024


def _fused_row_block(n_steps: int, n_cols: int) -> int:
    """Rows per difference block so the block temp stays near the target size."""
    bytes_per_row = 8 * max(1, n_steps) * max(1, n_cols)
    return max(1, FUSED_ROW_BLOCK_BYTES // bytes_per_row)


def depth_resolve_chunk_fused(
    ctx: KernelContext,
    out: np.ndarray,
    element_batch: int = 16384,
    row_block: Optional[int] = None,
) -> int:
    """Fused signed-difference + depth-distribute kernel over a row chunk.

    One pass per chunk, in row blocks: each block computes its slab of
    signed differences on the fly (no ``(n_steps, rows, cols)`` difference
    cube is ever materialised), integrates the depth-bin overlaps of its
    active (step, row) pairs once into an overlap table, and distributes
    every active element by gathering its pair's overlaps.  The trapezoid
    integral thus runs once per pair instead of once per active element.  A
    trapezoid spans only a few bins, so the table keeps just the window of
    bins that holds all of a pair's nonzero overlaps, *width* the block's
    widest window.  The table is bin-major, shape
    ``(width, n_steps * block_rows)``: window bin ``k`` of every pair is the
    contiguous row ``k``.

    Active elements are distributed in batches of *element_batch*.  A batch
    derives its values, pair ids and output offsets from its slice of the
    block's active flat ids, then fills two ``(batch, width)`` buffers
    allocated once per block, one window bin at a time: column ``k`` of the
    weights is a 1-D gather of table row ``k`` at the batch's pairs, and
    column ``k`` of the slots is the elements' first-bin slots plus ``k``
    planes.  One ``atomic_add`` per batch then takes both buffers flat, in
    (element, bin) order.  Every step is a contiguous 1-D pass, and every
    temporary is bounded by the block, not the chunk.

    Bitwise identical to :func:`depth_resolve_chunk_scalar`: the table holds
    exactly the overlaps the element would have integrated itself, per-bin
    weights are computed in the scalar kernel's operation order
    (``value * overlap / area``) over the exact same bin edges, and the
    (element, bin) order of the one ``atomic_add`` per batch delivers the
    contributions to every output slot in ascending wire-step order, as the
    scalar loop does.  (One ``add.at`` per window bin would change that
    order, and ``np.bincount`` would sum a slot's contributions before
    adding them to its earlier value.)  Results do not depend on
    *row_block* or *element_batch*; both only bound temporary sizes.

    *out* is a C-contiguous float64 ``(n_bins, out_rows, n_cols)`` cube; the
    chunk's rows land at ``ctx.row_offset`` onwards, so a chunk or band
    writes its own rows of a whole-detector cube.  Any other *out* raises
    :class:`~repro.utils.validation.ValidationError`.

    Returns the number of active elements distributed.
    """
    grid = ctx.grid
    d1, d2, d3, d4, area, pair_active = ctx.trapezoids

    if row_block is None:
        row_block = _fused_row_block(ctx.n_steps, ctx.n_cols)
    row_block = max(1, int(row_block))

    _check_out(ctx, out)
    flat_out = out.reshape(-1)
    plane = out.shape[1] * out.shape[2]
    cutoff = max(ctx.intensity_cutoff, 0.0)
    n_active = 0

    for block_start in range(0, ctx.n_rows, row_block):
        block_stop = min(block_start + row_block, ctx.n_rows)
        block_rows = block_stop - block_start
        band = slice(block_start, block_stop)
        # the fused difference pass: this block's slab is read once, here.
        # Subtracting in edge order is the edge-signed difference without a
        # sign multiply: IEEE subtraction rounds symmetrically, so
        # b - a == -1.0 * (a - b) bit for bit whenever a != b (and a zero
        # difference is never active).
        if ctx.edge_sign > 0:
            diffs = ctx.images[:-1, band, :] - ctx.images[1:, band, :]
        else:
            diffs = ctx.images[1:, band, :] - ctx.images[:-1, band, :]
        if ctx.difference_mode is DifferenceMode.RECTIFIED:
            np.maximum(diffs, 0.0, out=diffs)

        # |d| > cutoff (so d != 0, and never NaN) without an |d| temporary
        active = diffs > cutoff
        active |= diffs < -cutoff
        if ctx.mask is not None:
            active &= ctx.mask[None, band, :]
        active &= pair_active[:, band, None]

        # flat ids run in (step, row, col) order, the scalar loop's order;
        # flat = (step * block_rows + row) * n_cols + col
        flat = np.flatnonzero(active)
        if flat.size == 0:
            continue
        n_active += flat.size

        # the block's overlap table, integrated only for the (step, row)
        # pairs (pair id step * block_rows + row) that hold an active
        # element; no other pair is ever gathered
        pair_ids = np.flatnonzero(active.any(axis=2))
        pair_steps, pair_rows = np.divmod(pair_ids, block_rows)
        pair_rows += block_start
        overlaps = trapezoid_bin_overlaps(
            grid,
            d1[pair_steps, pair_rows],
            d2[pair_steps, pair_rows],
            d3[pair_steps, pair_rows],
            d4[pair_steps, pair_rows],
        )
        # each pair keeps a window of `width` bins holding every nonzero
        # overlap of its trapezoid.  A dropped zero overlap would add +-0.0
        # to an output slot, which leaves the slot unchanged: slots
        # accumulate from +0.0 and so never hold -0.0.
        nonzero = overlaps != 0.0
        first = np.argmax(nonzero, axis=1)
        last = grid.n_bins - 1 - np.argmax(nonzero[:, ::-1], axis=1)
        spans = np.where(nonzero.any(axis=1), last - first + 1, 1)
        width = int(spans.max())
        window_start = np.minimum(first, grid.n_bins - width)
        # bin-major: window bin k of every pair is the contiguous row k
        table = np.zeros((width, ctx.n_steps * block_rows), dtype=np.float64)
        table[:, pair_ids] = np.take_along_axis(
            overlaps, window_start[:, None] + np.arange(width), axis=1
        ).T
        # output offset of each pair's first window bin
        pair_offsets = np.zeros(ctx.n_steps * block_rows, dtype=np.int64)
        pair_offsets[pair_ids] = window_start * plane
        block_area = area[:, band].reshape(-1)
        block_diffs = diffs.reshape(-1)
        pixel_start = (ctx.row_offset + block_start) * ctx.n_cols
        block_pixels = block_rows * ctx.n_cols

        # each batch fills these (element, bin) buffers one window bin at a
        # time, then hands them to atomic_add in one call
        batch = min(element_batch, flat.size)
        weights = np.empty((batch, width), dtype=np.float64)
        slots = np.empty((batch, width), dtype=np.int64)
        for start in range(0, flat.size, element_batch):
            ids = flat[start:start + element_batch]
            m = ids.size
            values = np.take(block_diffs, ids)
            pairs = ids // ctx.n_cols
            pair_area = np.take(block_area, pairs)
            first_slots = np.take(pair_offsets, pairs)
            first_slots += ids % block_pixels
            first_slots += pixel_start
            for k in range(width):
                # scalar operation order: (value * overlap) / area — this is
                # what keeps the fused kernel bitwise-identical to the
                # reference loop
                column = np.take(table[k], pairs)
                column *= values
                column /= pair_area
                weights[:m, k] = column
                np.add(first_slots, k * plane, out=slots[:m, k])
            # (element, bin) order: every slot receives its contributions in
            # ascending step order, as from the scalar loop
            atomic_add(flat_out, slots[:m].reshape(-1), weights[:m].reshape(-1))
    return n_active


def set_two_per_thread(
    tx: int, ty: int, tz: int, ctx: KernelContext, out: np.ndarray, active_count: np.ndarray
) -> None:
    """Per-thread ``setTwo`` body for the simulated-CUDA launch path.

    Thread coordinates map to data exactly as in the paper's kernel:
    x → detector column, y → detector row (within the streamed chunk),
    z → wire-step.  Threads beyond the data extent (launch overhang)
    return immediately.  An active element bumps the one-slot device
    counter *active_count* (an ``atomicAdd(&count, 1)``).
    """
    if tx >= ctx.n_cols or ty >= ctx.n_rows or tz >= ctx.n_steps:
        return
    if depth_resolve_element(ctx, int(tx), int(ty), int(tz), out):
        active_count[0] += 1


def set_two_vectorized(
    ix: np.ndarray,
    iy: np.ndarray,
    iz: np.ndarray,
    ctx: KernelContext,
    out: np.ndarray,
    active_count: np.ndarray,
) -> None:
    """Data-parallel ``setTwo`` body over explicit thread-coordinate arrays.

    Used by the GPU-sim backend: the launch hands in the flat coordinate
    arrays of every thread in the grid, overhang threads included.  When the
    lattice covers the launch's ``(cols, rows, steps)`` volume — as
    :meth:`~repro.cudasim.kernel.LaunchConfig.for_volume` always does — the
    body is :func:`depth_resolve_chunk_fused` over the whole volume, and the
    active elements it distributed are added to the one-slot device counter
    *active_count*.  A lattice short of the volume raises
    :class:`~repro.utils.validation.ValidationError`.
    """
    in_range = (ix < ctx.n_cols) & (iy < ctx.n_rows) & (iz < ctx.n_steps)
    if np.count_nonzero(in_range) < ctx.n_steps * ctx.n_rows * ctx.n_cols:
        raise ValidationError(
            f"thread lattice does not cover the ({ctx.n_cols}, {ctx.n_rows}, "
            f"{ctx.n_steps}) (cols, rows, steps) volume"
        )
    active_count[0] += depth_resolve_chunk_fused(ctx, out)


def make_set_two_kernel(extra_flops_per_thread: float = 0.0):
    """Build the :class:`repro.cudasim.kernel.Kernel` wrapping the two bodies.

    Parameters
    ----------
    extra_flops_per_thread:
        Additional per-thread arithmetic charged by the performance model
        (e.g. the flat-1D index arithmetic of the chosen layout).
    """
    from repro.cudasim.kernel import Kernel

    return Kernel(
        name="setTwo",
        per_thread=set_two_per_thread,
        vectorized=set_two_vectorized,
        flops_per_thread=KERNEL_FLOPS_PER_THREAD + float(extra_flops_per_thread),
        bytes_per_thread=KERNEL_BYTES_PER_THREAD,
    )
