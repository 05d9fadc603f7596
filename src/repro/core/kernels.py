"""The depth-reconstruction kernel bodies.

This module is the Python analogue of the paper's ``setTwo`` CUDA kernel and
the device functions it calls.  The same mathematics comes in three forms:

``depth_resolve_element``
    The per-thread body: one (column, row, wire-step) triple, written with
    scalar ``math`` operations in the same sequence as the CUDA code
    (compute the four critical depths for the pixel's back/front edges at the
    two wire positions, build the trapezoid, distribute the differential
    intensity into the depth histogram).  The CPU-reference backend loops
    over it (:func:`depth_resolve_chunk_scalar`, the ground truth); the
    GPU-sim backend can execute it per simulated thread.

``depth_resolve_chunk_fused``
    The production kernel of the host backends.  A trapezoid depends only on
    its (wire-step, detector-row) pair, so the kernel walks the chunk in
    L2-sized row blocks, integrates each block's depth-bin overlaps once per
    pair into a small table, and lets every active element of the block
    gather its row of that table — no per-element trapezoid integral, and the
    signed differences are computed block by block on the fly.  It is
    bitwise identical to the scalar reference.

``depth_resolve_chunk_vectorized`` / ``set_two_vectorized``
    The older unfused array forms: the first is kept as a comparison point
    for the executor benchmark, the second is the GPU-sim launch body.

Every form accumulates with atomic-add semantics into the
``(n_bins, rows, cols)`` depth-resolved cube and counts the *active*
elements it distributed — elements that pass the pixel mask, whose
edge-signed difference passes the intensity cutoff, and whose trapezoid is
non-degenerate and overlaps the depth grid.  The chunk kernels return the
count; the ``setTwo`` bodies add it to a one-slot device counter.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.config import DifferenceMode
from repro.core.depth_grid import DepthGrid
from repro.core.depth_mapping import pixel_yz_to_depth, pixel_yz_to_depth_scalar
from repro.core.trapezoid import (
    MIN_TRAPEZOID_AREA,
    distribute_intensity,
    trapezoid_area,
    trapezoid_bin_overlaps,
)
from repro.cudasim.atomic import atomic_add
from repro.geometry.wire import WireEdge

__all__ = [
    "KernelContext",
    "depth_resolve_element",
    "depth_resolve_chunk_scalar",
    "depth_resolve_chunk_vectorized",
    "depth_resolve_chunk_fused",
    "FUSED_ROW_BLOCK_BYTES",
    "set_two_per_thread",
    "set_two_vectorized",
    "make_set_two_kernel",
    "KERNEL_FLOPS_PER_THREAD",
    "KERNEL_BYTES_PER_THREAD",
]

#: Rough per-thread arithmetic cost of the kernel (4 critical-depth solves at
#: ~25 flops each, trapezoid construction and a handful of bins updated) —
#: used only by the analytic performance model.
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
    wire_radius:
        Wire radius.
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
    """

    def __init__(
        self,
        images: np.ndarray,
        back_edge_yz: np.ndarray,
        front_edge_yz: np.ndarray,
        wire_positions_yz: np.ndarray,
        wire_radius: float,
        grid: DepthGrid,
        wire_edge: WireEdge = WireEdge.LEADING,
        difference_mode: DifferenceMode = DifferenceMode.SIGNED,
        intensity_cutoff: float = 0.0,
        mask: Optional[np.ndarray] = None,
    ):
        self.images = np.asarray(images, dtype=np.float64)
        self.back_edge_yz = np.asarray(back_edge_yz, dtype=np.float64)
        self.front_edge_yz = np.asarray(front_edge_yz, dtype=np.float64)
        self.wire_positions_yz = np.asarray(wire_positions_yz, dtype=np.float64)
        self.wire_radius = float(wire_radius)
        self.grid = grid
        self.wire_edge = wire_edge
        self.difference_mode = difference_mode
        self.intensity_cutoff = float(intensity_cutoff)
        self.mask = None if mask is None else np.asarray(mask, dtype=bool)

        self.n_positions, self.n_rows, self.n_cols = self.images.shape
        self.n_steps = self.n_positions - 1
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
    avoiding per-element NumPy call overhead in the innermost loop.
    """
    # rising ramp on [d1, d2]
    xr = min(max(x, d1), d2)
    rise_width = d2 - d1
    rise = 0.5 * (xr - d1) ** 2 / rise_width if rise_width > 0 else 0.0
    # plateau on [d2, d3]
    xp = min(max(x, d2), d3)
    plateau = xp - d2
    # falling ramp on [d3, d4]
    xf = min(max(x, d3), d4)
    fall_width = d4 - d3
    fall = 0.5 * fall_width - 0.5 * (d4 - xf) ** 2 / fall_width if fall_width > 0 else 0.0
    return rise + plateau + fall


def _scalar_trapezoid_overlap(lo: float, hi: float, d1: float, d2: float, d3: float, d4: float) -> float:
    """Exact overlap of the unit trapezoid with ``[lo, hi]`` (scalar fast path)."""
    return _scalar_cumulative_integral(hi, d1, d2, d3, d4) - _scalar_cumulative_integral(
        lo, d1, d2, d3, d4
    )


def depth_resolve_element(
    ctx: KernelContext,
    col: int,
    row: int,
    step: int,
    out: np.ndarray,
) -> bool:
    """Process one (column, row, wire-step) element — the ``setTwo`` thread body.

    Adds the element's depth-distributed intensity into *out* (shape
    ``(n_bins, rows, cols)``) and returns whether the element was active
    (see the module docstring); an inactive element deposits nothing.
    """
    if ctx.mask is not None and not ctx.mask[row, col]:
        return False

    value = ctx.signed_difference(step, row, col)
    if abs(value) <= ctx.intensity_cutoff or value == 0.0:
        return False

    back_y, back_z = ctx.back_edge_yz[row]
    front_y, front_z = ctx.front_edge_yz[row]
    wire_start_y, wire_start_z = ctx.wire_positions_yz[step]
    wire_end_y, wire_end_z = ctx.wire_positions_yz[step + 1]
    edge = int(ctx.wire_edge)

    partial_start = pixel_yz_to_depth_scalar(front_y, front_z, wire_start_y, wire_start_z, ctx.wire_radius, edge)
    partial_end = pixel_yz_to_depth_scalar(back_y, back_z, wire_end_y, wire_end_z, ctx.wire_radius, edge)
    full_start = pixel_yz_to_depth_scalar(back_y, back_z, wire_start_y, wire_start_z, ctx.wire_radius, edge)
    full_end = pixel_yz_to_depth_scalar(front_y, front_z, wire_end_y, wire_end_z, ctx.wire_radius, edge)
    corners = (partial_start, partial_end, full_start, full_end)
    if not all(math.isfinite(c) for c in corners):
        return False
    d1, d2, d3, d4 = sorted(corners)

    area = ((d4 - d1) + (d3 - d2)) / 2.0
    if area <= MIN_TRAPEZOID_AREA:
        return False

    grid = ctx.grid
    if not (d4 > grid.start and d1 < grid.stop):
        return False
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
        flat_index = bin_index * (ctx.n_rows * ctx.n_cols) + row * ctx.n_cols + col
        out.reshape(-1)[flat_index] += contribution
    return True


def depth_resolve_chunk_scalar(ctx: KernelContext, out: np.ndarray) -> int:
    """Reference triple loop over every (step, row, column) element.

    This is the "original CPU program" of the paper: one scalar element at a
    time, no vectorisation.  Returns the number of active elements.
    """
    n_active = 0
    for step in range(ctx.n_steps):
        for row in range(ctx.n_rows):
            for col in range(ctx.n_cols):
                n_active += depth_resolve_element(ctx, col, row, step, out)
    return n_active


def _pair_trapezoids(ctx: KernelContext):
    """Sorted trapezoid corners, area and usability of every (step, row) pair.

    Returns ``(d1, d2, d3, d4, area, pair_active)``, each of shape
    ``(n_steps, rows)``.  A pair is active when its four critical depths are
    finite and its trapezoid is non-degenerate and overlaps the grid.
    """
    grid = ctx.grid
    edge = int(ctx.wire_edge)
    back_y = ctx.back_edge_yz[:, 0][None, :]
    back_z = ctx.back_edge_yz[:, 1][None, :]
    front_y = ctx.front_edge_yz[:, 0][None, :]
    front_z = ctx.front_edge_yz[:, 1][None, :]
    wire_start_y = ctx.wire_positions_yz[:-1, 0][:, None]
    wire_start_z = ctx.wire_positions_yz[:-1, 1][:, None]
    wire_end_y = ctx.wire_positions_yz[1:, 0][:, None]
    wire_end_z = ctx.wire_positions_yz[1:, 1][:, None]

    partial_start = pixel_yz_to_depth(front_y, front_z, wire_start_y, wire_start_z, ctx.wire_radius, edge)
    partial_end = pixel_yz_to_depth(back_y, back_z, wire_end_y, wire_end_z, ctx.wire_radius, edge)
    full_start = pixel_yz_to_depth(back_y, back_z, wire_start_y, wire_start_z, ctx.wire_radius, edge)
    full_end = pixel_yz_to_depth(front_y, front_z, wire_end_y, wire_end_z, ctx.wire_radius, edge)

    corners = np.stack([partial_start, partial_end, full_start, full_end], axis=0)
    corners_valid = np.all(np.isfinite(corners), axis=0)
    d1, d2, d3, d4 = np.sort(corners, axis=0)
    area = trapezoid_area(d1, d2, d3, d4)
    pair_active = corners_valid & (area > MIN_TRAPEZOID_AREA) & (d4 > grid.start) & (d1 < grid.stop)
    return d1, d2, d3, d4, area, pair_active


def depth_resolve_chunk_vectorized(
    ctx: KernelContext,
    out: np.ndarray,
    element_batch: int = 16384,
) -> int:
    """Unfused vectorised kernel over a whole row chunk.

    Mathematically identical to looping :func:`depth_resolve_element` over
    all elements; expressed as array operations so the only Python-level loop
    is over batches of *active* elements.  It materialises the whole
    difference cube and integrates one trapezoid per active element, which
    is why :func:`depth_resolve_chunk_fused` replaced it on every backend.

    Parameters
    ----------
    ctx:
        Kernel inputs.
    out:
        Accumulation cube ``(n_bins, rows, cols)``; modified in place.
    element_batch:
        Number of active elements processed per internal batch — bounds the
        ``(batch, n_bins)`` temporary exactly like a real kernel bounds its
        shared-memory tile.

    Returns the number of active elements.
    """
    grid = ctx.grid
    diffs = ctx.signed_differences()  # (n_steps, rows, cols)
    d1, d2, d3, d4, _area, pair_active = _pair_trapezoids(ctx)

    active = np.abs(diffs) > ctx.intensity_cutoff
    active &= diffs != 0.0
    if ctx.mask is not None:
        active &= ctx.mask[None, :, :]
    active &= pair_active[:, :, None]

    step_idx, row_idx, col_idx = np.nonzero(active)
    if step_idx.size == 0:
        return 0

    values = diffs[step_idx, row_idx, col_idx]
    flat_out = out.reshape(-1)
    plane = ctx.n_rows * ctx.n_cols
    bin_offsets = np.arange(grid.n_bins, dtype=np.int64) * plane

    for start in range(0, step_idx.size, element_batch):
        sl = slice(start, start + element_batch)
        s_i, r_i, c_i = step_idx[sl], row_idx[sl], col_idx[sl]
        weights = distribute_intensity(
            grid,
            values[sl],
            d1[s_i, r_i],
            d2[s_i, r_i],
            d3[s_i, r_i],
            d4[s_i, r_i],
        )  # (batch, n_bins)
        pixel_offset = r_i * ctx.n_cols + c_i
        flat_indices = (pixel_offset[:, None] + bin_offsets[None, :]).reshape(-1)
        atomic_add(flat_out, flat_indices, weights.reshape(-1))
    return int(step_idx.size)


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
    active (step, row) pairs once into an overlap table with one row per
    pair, and distributes every active element by gathering its pair's row.
    The trapezoid integral thus runs once per pair instead of once per
    active element.  A trapezoid spans only a few bins, so a table row keeps
    just the window of bins that holds all of its pair's nonzero overlaps
    (shape ``(n_steps * block_rows, width)``, *width* the block's widest
    window), and every temporary is bounded by the block, not the chunk.

    Bitwise identical to :func:`depth_resolve_chunk_scalar`: a table row
    holds exactly the overlaps the element would have integrated itself,
    per-bin weights are computed in the scalar kernel's operation order
    (``value * overlap / area``) over the exact same bin edges, and
    contributions reach every output slot in the same (ascending wire-step)
    order.  Results do not depend on *row_block* or *element_batch*; both
    only bound temporary sizes.

    Returns the number of active elements distributed.
    """
    grid = ctx.grid
    d1, d2, d3, d4, area, pair_active = _pair_trapezoids(ctx)

    if row_block is None:
        row_block = _fused_row_block(ctx.n_steps, ctx.n_cols)
    row_block = max(1, int(row_block))

    flat_out = out.reshape(-1)
    plane = ctx.n_rows * ctx.n_cols
    bin_offsets = np.arange(grid.n_bins, dtype=np.int64) * plane
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

        # |d| > cutoff and d != 0, in one comparison
        active = np.abs(diffs) > max(ctx.intensity_cutoff, 0.0)
        if ctx.mask is not None:
            active &= ctx.mask[None, band, :]
        active &= pair_active[:, band, None]

        # flat ids run in (step, row, col) order, the scalar loop's order;
        # flat = (step * block_rows + row) * n_cols + col
        flat = np.flatnonzero(active)
        if flat.size == 0:
            continue
        n_active += flat.size
        values = diffs.reshape(-1)[flat]
        element_pairs = flat // ctx.n_cols
        pixel_offsets = flat % (block_rows * ctx.n_cols) + block_start * ctx.n_cols

        # the block's overlap table, one row per (step, row) pair (row id
        # step * block_rows + row), integrated only for the pairs that hold
        # an active element; no other row is ever gathered
        pair_used = np.zeros(ctx.n_steps * block_rows, dtype=bool)
        pair_used[element_pairs] = True
        pair_ids = np.flatnonzero(pair_used)
        pair_steps, pair_rows = np.divmod(pair_ids, block_rows)
        pair_rows += block_start
        overlaps = trapezoid_bin_overlaps(
            grid,
            d1[pair_steps, pair_rows],
            d2[pair_steps, pair_rows],
            d3[pair_steps, pair_rows],
            d4[pair_steps, pair_rows],
        )
        # each row keeps a window of `width` bins holding every nonzero
        # overlap of its pair.  A dropped zero overlap would add +-0.0 to an
        # output slot, which leaves the slot unchanged: slots accumulate
        # from +0.0 and so never hold -0.0.
        nonzero = overlaps != 0.0
        first = np.argmax(nonzero, axis=1)
        last = grid.n_bins - 1 - np.argmax(nonzero[:, ::-1], axis=1)
        spans = np.where(nonzero.any(axis=1), last - first + 1, 1)
        width = int(spans.max())
        window_start = np.minimum(first, grid.n_bins - width)
        table = np.zeros((ctx.n_steps * block_rows, width), dtype=np.float64)
        table[pair_ids] = np.take_along_axis(
            overlaps, window_start[:, None] + np.arange(width), axis=1
        )
        # output offset of each pair's first window bin
        pair_offsets = np.zeros(ctx.n_steps * block_rows, dtype=np.int64)
        pair_offsets[pair_ids] = window_start * plane
        block_area = area[:, band].reshape(-1)

        for start in range(0, flat.size, element_batch):
            sl = slice(start, start + element_batch)
            pairs = element_pairs[sl]
            # scalar operation order: (value * overlap) / area — this is what
            # keeps the fused kernel bitwise-identical to the reference loop
            weights = table[pairs]
            weights *= values[sl, None]
            weights /= block_area[pairs, None]
            first_slots = pair_offsets[pairs] + pixel_offsets[sl]
            flat_indices = (first_slots[:, None] + bin_offsets[None, :width]).reshape(-1)
            atomic_add(flat_out, flat_indices, weights.reshape(-1))
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
    element_batch: int = 16384,
) -> None:
    """Data-parallel ``setTwo`` body over explicit thread-coordinate arrays.

    Used by the GPU-sim backend: the launch hands in the flat coordinate
    arrays of every thread in the grid (including overhang threads), and the
    body processes exactly the in-range, active elements, adding their
    number to the one-slot device counter *active_count*.
    """
    grid = ctx.grid
    valid = (ix < ctx.n_cols) & (iy < ctx.n_rows) & (iz < ctx.n_steps)
    if not np.any(valid):
        return
    col_idx = ix[valid].astype(np.int64)
    row_idx = iy[valid].astype(np.int64)
    step_idx = iz[valid].astype(np.int64)

    diffs = ctx.signed_differences()
    values = diffs[step_idx, row_idx, col_idx]
    active = np.abs(values) > ctx.intensity_cutoff
    active &= values != 0.0
    if ctx.mask is not None:
        active &= ctx.mask[row_idx, col_idx]
    if not np.any(active):
        return
    col_idx, row_idx, step_idx, values = (
        col_idx[active],
        row_idx[active],
        step_idx[active],
        values[active],
    )

    edge = int(ctx.wire_edge)
    back_y = ctx.back_edge_yz[row_idx, 0]
    back_z = ctx.back_edge_yz[row_idx, 1]
    front_y = ctx.front_edge_yz[row_idx, 0]
    front_z = ctx.front_edge_yz[row_idx, 1]
    wire_start_y = ctx.wire_positions_yz[step_idx, 0]
    wire_start_z = ctx.wire_positions_yz[step_idx, 1]
    wire_end_y = ctx.wire_positions_yz[step_idx + 1, 0]
    wire_end_z = ctx.wire_positions_yz[step_idx + 1, 1]

    partial_start = pixel_yz_to_depth(front_y, front_z, wire_start_y, wire_start_z, ctx.wire_radius, edge)
    partial_end = pixel_yz_to_depth(back_y, back_z, wire_end_y, wire_end_z, ctx.wire_radius, edge)
    full_start = pixel_yz_to_depth(back_y, back_z, wire_start_y, wire_start_z, ctx.wire_radius, edge)
    full_end = pixel_yz_to_depth(front_y, front_z, wire_end_y, wire_end_z, ctx.wire_radius, edge)

    corners = np.stack([partial_start, partial_end, full_start, full_end], axis=0)
    finite = np.all(np.isfinite(corners), axis=0)
    corners_sorted = np.sort(corners, axis=0)
    d1, d2, d3, d4 = corners_sorted
    area = trapezoid_area(d1, d2, d3, d4)
    usable = finite & (area > MIN_TRAPEZOID_AREA) & (d4 > grid.start) & (d1 < grid.stop)
    if not np.any(usable):
        return
    col_idx, row_idx, values = col_idx[usable], row_idx[usable], values[usable]
    d1, d2, d3, d4 = d1[usable], d2[usable], d3[usable], d4[usable]
    active_count[0] += values.size

    flat_out = out.reshape(-1)
    plane = ctx.n_rows * ctx.n_cols
    bin_offsets = np.arange(grid.n_bins, dtype=np.int64) * plane
    for start in range(0, values.size, element_batch):
        sl = slice(start, start + element_batch)
        weights = distribute_intensity(grid, values[sl], d1[sl], d2[sl], d3[sl], d4[sl])
        pixel_offset = row_idx[sl] * ctx.n_cols + col_idx[sl]
        flat_indices = (pixel_offset[:, None] + bin_offsets[None, :]).reshape(-1)
        atomic_add(flat_out, flat_indices, weights.reshape(-1))


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
