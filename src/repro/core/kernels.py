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
    row blocks of bounded size.  A block differences only its *span*, the
    wire steps from the first to the last that some row of the block can
    use (the paper's threads whose trapezoid misses the depth grid do no
    work; a block with no usable step is skipped), block by block on the
    fly, so a position only unusable steps touch is never read.  Each used
    (step, row) pair's depth-bin overlaps are integrated once, over the bin
    range the scalar loop visits for that pair, in one cumulative-integral
    pass at the range's edges, never per element.  A block takes one of
    two forms, chosen by its density (active elements per slot of its used
    pairs' rows):

    - *rows*, for a dense block: it integrates its pairs, then one wire
      step at a time adds the step's weights into whole cube rows with one
      buffered ``+=``.  Within one step the ``setTwo`` threads'
      ``atomicAdd`` targets are distinct — a pair is one detector row, and
      its bins are distinct — so a buffered add loses nothing;
    - *elements*, for any other block: it only *collects* its used pairs'
      corners and its active elements into an element batch, and the batch
      *distributes*: one integral pass over every pair it holds, then its
      elements in groups, each gathered one window bin at a time and
      handed to one ``atomic_add``.  The serial executor keeps one batch
      for a whole run and distributes it once, so, as with the paper's
      per-element threads, a sparse block that holds little costs little.

    Both forms are bitwise identical to the scalar loop; the kernel's
    docstring says why, also for work the batch distributes later.

``set_two_vectorized``
    The GPU-sim launch body over explicit thread-coordinate arrays: the
    fused kernel over the launch's whole thread volume.

Every form accumulates with atomic-add semantics into a C-contiguous
``(n_bins, out_rows, cols)`` depth-resolved cube, at the output rows
starting from :attr:`KernelContext.row_offset`, and counts the *active*
elements it distributes (the fused kernel's may wait in an element batch
its caller flushes) — elements that pass the pixel mask, whose
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
from repro.core.trapezoid import MIN_TRAPEZOID_AREA, _edge_overlaps, trapezoid_area
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
        Intensity slab of shape ``(n_positions, rows, n_cols)``: wire
        positions ``position_start`` to ``position_start + n_positions - 1``
        of the scan.  A full window holds every position; a trimmed one only
        the positions its rows' usable steps difference (see
        :func:`_step_span`).
    back_edge_yz, front_edge_yz:
        Per-row pixel-edge coordinates, shape ``(rows, 2)`` — the
        ``firstedge``/``edge`` tables of the original kernel.
    wire_positions_yz:
        Wire-centre positions, shape ``(n_steps + 1, 2)``: every position of
        the trapezoid table's steps, whatever the slab holds.
    trapezoids:
        The slab's rows of the run's trapezoid table (see
        :func:`_trapezoid_table`): ``(d1, d2, d3, d4, area, active)``, each
        of shape ``(n_steps, rows)``, every wire step of the scan (or of a
        simulated launch batch).  The kernels read the response geometry
        from here only; the edge and wire tables above are what the
        simulated device uploads.  ``n_steps`` comes from this table, not
        from the slab, so a trimmed window counts the same steps as a full
        one.
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
    position_start:
        The scan position the slab's first image is: step ``s`` differences
        slab images ``s - position_start`` and ``s - position_start + 1``.
        The slab must lie inside the table's positions, and a step a kernel
        differences must lie inside the slab; either miss raises
        :class:`~repro.utils.validation.ValidationError`.
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
        position_start: int = 0,
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

        self.position_start = int(position_start)

        self.n_positions, self.n_rows, self.n_cols = self.images.shape
        self.n_steps = len(self.trapezoids[0]) if self.trapezoids else 0
        if len(self.trapezoids) != 6 or any(
            part.shape != (self.n_steps, self.n_rows) for part in self.trapezoids
        ):
            raise ValidationError(
                f"trapezoids must be six (n_steps, {self.n_rows}) arrays of one shape"
            )
        if self.position_start < 0 or self.position_start + self.n_positions > self.n_steps + 1:
            raise ValidationError(
                f"a slab of {self.n_positions} position(s) from position "
                f"{self.position_start} does not fit the {self.n_steps + 1} positions "
                f"of the trapezoid table"
            )
        #: sign applied to (I[i] - I[i+1]) so that "signal appears" is positive
        #: for the selected edge
        self.edge_sign = 1.0 if wire_edge == WireEdge.LEADING else -1.0

    # ------------------------------------------------------------------ #
    def signed_difference(self, step: int, row: int, col: int) -> float:
        """Edge-signed intensity difference for one element (scalar path)."""
        index = step - self.position_start
        if not 0 <= index < self.n_positions - 1:
            raise ValidationError(_outside_slab(self, step, step + 1))
        diff = self.images[index, row, col] - self.images[index + 1, row, col]
        value = self.edge_sign * diff
        if self.difference_mode is DifferenceMode.RECTIFIED:
            value = max(value, 0.0)
        return value


def _outside_slab(ctx: KernelContext, first: int, last: int) -> str:
    """The error for steps reading positions *first* to *last* outside the slab."""
    return (
        f"positions {first} to {last} lie outside the slab's positions "
        f"{ctx.position_start} to {ctx.position_start + ctx.n_positions - 1}"
    )


def _step_span(pair_active: np.ndarray, rows: slice) -> Tuple[int, int]:
    """The span of wire steps detector rows *rows* can use: ``(s0, s1)``.

    Steps ``s0`` to ``s1 - 1`` run from the first to the last step that some
    row of *rows* can use (*pair_active* is the trapezoid table's ``active``
    flag), and they difference positions ``s0`` to ``s1``.  A step outside
    the span holds only inactive elements.  ``(0, 0)`` when no row can use
    any step.  The one span rule: the fused kernel takes each row block's
    span from it, and a trimmed execution plan each chunk's position range.
    """
    usable = np.flatnonzero(pair_active[:, rows].any(axis=1))
    if usable.size == 0:
        return 0, 0
    return int(usable[0]), int(usable[-1]) + 1


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
    solves of the paper's ``setTwo`` kernel.  Steps ``s - 1`` and ``s``
    share position ``s``, so each edge's depth is solved once per position
    and read by both steps: two solves, not the kernel's four per step.

    Returns ``(d1, d2, d3, d4, area, active)``, each of shape
    ``(n_positions - 1, rows)``.  A pair is active when its four critical
    depths are finite and its trapezoid is non-degenerate and overlaps the
    grid.
    """
    back_edge_yz = np.asarray(back_edge_yz, dtype=np.float64)
    front_edge_yz = np.asarray(front_edge_yz, dtype=np.float64)
    wire_positions_yz = np.asarray(wire_positions_yz, dtype=np.float64)
    edge = int(wire_edge)
    wire_y = wire_positions_yz[:, 0][:, None]
    wire_z = wire_positions_yz[:, 1][:, None]
    # each edge's critical depth at every wire position, shape
    # (n_positions, rows), solved once: step s reads positions s and s + 1
    front = pixel_yz_to_depth(
        front_edge_yz[:, 0][None, :], front_edge_yz[:, 1][None, :], wire_y, wire_z, wire_radius, edge
    )
    back = pixel_yz_to_depth(
        back_edge_yz[:, 0][None, :], back_edge_yz[:, 1][None, :], wire_y, wire_z, wire_radius, edge
    )
    partial_start, full_end = front[:-1], front[1:]
    full_start, partial_end = back[:-1], back[1:]

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
#: Every block's difference and activity temporaries are bounded by it (a
#: block differences only its span of usable steps, so they are often
#: smaller), and the row form's Python loop runs once per wire step of every
#: dense block's span, so larger blocks pay that loop fewer times, for more
#: memory.  A sparse block only appends to the element batch, whose buffers
#: ``element_batch`` bounds, so the block size costs it nothing per block.
#: Kernel only, on a
#: 2-vCPU Xeon (2 MiB L2 per core), the four every-pixel 49x87x176
#: benchmark scans ran in 6.8-9.7 ms per file at 1 MiB, 5.9-6.5 ms at
#: 2 MiB, 5.8-7.5 ms at 4 MiB and 5.7-6.7 ms at 8 MiB (one block per scan),
#: two sweeps; the kernel that differenced every step, swept between them,
#: ran 8.1-8.4, 7.0-8.2, 7.2-7.5 and 6.6-6.8 ms.  Larger blocks now save at
#: most about 0.5 ms per file.  In earlier measurements 8 MiB blocks took
#: those scans' serial runs from 23.9-25.7 to 22.7-24.2 ms end to end, but
#: raised the serving workload's peak RSS from 108-119 to 116-130 MB: its
#: two concurrent cold jobs each hold a whole-scan slab.  So the block
#: stays at the per-core L2 size.  A streamed 4-row window of the 200x600
#: scans is one block at any of these sizes.
FUSED_ROW_BLOCK_BYTES = 2 * 1024 * 1024

#: A row block whose active elements fill at least this share of its used
#: pairs' ``n_cols``-slot rows is distributed in whole rows, one wire step at
#: a time; any other block collects its elements into an element batch.  The
#: row form's work grows with the used rows, the element form's with the
#: active elements.  Kernel only, one call per point (its own batch, which
#: a 31-row block of this scan fills at once, so it flushes once per block),
#: on one 49x87x176 benchmark scan with pixels masked at random, three
#: sweeps on a 2-vCPU Xeon, medians of 7: the row form ran 6.9-10.7 ms at
#: every density from 0.05 to 1 (one point 12.9 ms); the element form
#: 2.7-3.8 ms at 0.05, 5.8-6.7 ms at 0.2, 8.7-10.4 ms at 0.45, 8.4-11.2 ms
#: at 0.5, 9.6-11.7 ms at 0.55, 10.6-13.1 ms at 0.6 and 16.2-19.0 ms at 1.
#: The sweeps crossed between 0.45 and 0.5, 0.5 and 0.55, and 0.4 and 0.45;
#: the kernel that integrated each sparse block itself, swept alternately
#: with them, crossed between 0.45 and 0.5 twice and 0.55 and 0.6 once.
#: From 0.45 to 0.55 the two forms differ by less than the sweeps' spread,
#: so one half stays.  Batching moved no crossover here because these
#: blocks are large: what it saves, an integral pass, two tables and an
#: ``atomic_add`` per block, shows where many small sparse blocks share a
#: batch, as the streamed windows do.  The benchmark corpora's blocks sit
#: far from the rule (perfbench seed 1): 0.92-1.00 on the every-pixel
#: scans, 0.02-0.04 on the quarter-masked scans and 0.002-0.012 in the
#: streamed windows.
_ROW_FORM_MIN_DENSITY = 0.5


#: Elements an element batch distributes per ``atomic_add``, and the count
#: at which the fused kernel flushes it: the default of every batch.
_ELEMENT_BATCH = 16384


def _fused_row_block(n_steps: int, n_cols: int) -> int:
    """Rows per difference block so the block temp stays near the target size."""
    bytes_per_row = 8 * max(1, n_steps) * max(1, n_cols)
    return max(1, FUSED_ROW_BLOCK_BYTES // bytes_per_row)


def _window_overlaps(grid: DepthGrid, c1, c2, c3, c4) -> Tuple[np.ndarray, np.ndarray]:
    """Each pair's window of depth bins and its overlaps there, bin-major.

    A pair's window is the bins :func:`depth_resolve_element` visits,
    ``floor((d1 - start) / step)`` to ``floor((d4 - start) / step)``
    clipped to the grid (clipped as floats, so a huge corner cannot
    overflow the int cast).  Windows are padded to *width*, the widest,
    with zero overlaps; one cumulative-integral pass at their ``width + 1``
    ``grid.edges``, differenced, gives the overlaps (the pass
    :func:`~repro.core.trapezoid.trapezoid_bin_overlaps` makes over the
    whole grid).  Returns ``(bins, overlaps)``, each of shape
    ``(width, pairs)``: row ``k`` holds every pair's ``k``-th window bin.
    Bin ``b``'s overlap is the integral at edge ``b + 1`` minus the one at
    edge ``b``, whatever the window's start or width.
    """
    first = np.clip(np.floor((c1 - grid.start) / grid.step), 0, grid.n_bins).astype(np.int64)
    last = np.clip(np.floor((c4 - grid.start) / grid.step), -1, grid.n_bins - 1).astype(np.int64)
    width = max(1, int((last - first).max()) + 1)
    window_edges = np.minimum(first, grid.n_bins - width) + np.arange(width + 1)[:, None]
    bins = window_edges[:-1]
    overlaps = _edge_overlaps(grid.edges[window_edges], c1, c2, c3, c4)
    overlaps[(bins < first) | (bins > last)] = 0.0
    return bins, overlaps


class _ElementBatch:
    """Active elements of sparse row blocks, held for one distribution pass.

    The element form of :func:`depth_resolve_chunk_fused` collects here: for
    each used (step, row) pair its sorted corners and area, and for each
    active element its value, the index of its pair and its absolute output
    pixel ``(row_offset + row) * n_cols + col`` in the cube *out*.
    :meth:`flush` distributes what the batch holds, *element_batch*
    elements per ``atomic_add``.  The kernel flushes as soon as the batch
    holds *element_batch* elements or more, so a batch never holds more
    than that plus one row block's; a batch the kernel is given is flushed
    by its owner after the last kernel call (the serial executor's
    ``drain``), and :meth:`clear` drops what a failed run left.
    """

    def __init__(self, out: np.ndarray, grid: DepthGrid, element_batch: int = _ELEMENT_BATCH):
        self.out = out
        self.grid = grid
        self.element_batch = max(1, int(element_batch))
        #: active elements held, not yet distributed
        self.n_elements = 0
        self._n_pairs = 0
        self._pairs: list = []
        self._elements: list = []

    def add(self, corners, area, values, pairs, pixels) -> None:
        """Hold one row block: its used pairs' ``(c1, c2, c3, c4)`` corners
        and *area*, and its active elements' *values*, *pairs* (indices into
        the block's pairs) and output *pixels*, in (step, row, col) order."""
        if self._n_pairs:
            pairs = pairs + self._n_pairs
        self._pairs.append((*corners, area))
        self._elements.append((values, pairs, pixels))
        self._n_pairs += len(area)
        self.n_elements += len(values)

    def clear(self) -> None:
        """Drop every element held."""
        self._pairs, self._elements = [], []
        self._n_pairs = self.n_elements = 0

    def flush(self) -> None:
        """Distribute every element held into *out*, then hold none."""
        if not self.n_elements:
            return
        # one block's arrays are used as they are, several blocks' joined
        c1, c2, c3, c4, area, values, pairs, pixels = (
            part[0] if len(part) == 1 else np.concatenate(part)
            for part in (*zip(*self._pairs), *zip(*self._elements))
        )
        self.clear()
        bins, overlaps = _window_overlaps(self.grid, c1, c2, c3, c4)
        width = len(bins)
        plane = self.out.shape[1] * self.out.shape[2]
        # output offset of each pair's first window bin
        pair_slots = bins[0] * plane
        flat_out = self.out.reshape(-1)
        size = min(self.element_batch, len(values))
        weights = np.empty((size, width), dtype=np.float64)
        slots = np.empty((size, width), dtype=np.int64)
        for start in range(0, len(values), size):
            element_pairs = pairs[start:start + size]
            element_values = values[start:start + size]
            m = len(element_pairs)
            finite = np.isfinite(element_values).all()
            element_area = np.take(area, element_pairs)
            first_slots = np.take(pair_slots, element_pairs)
            first_slots += pixels[start:start + size]
            # fill the (element, bin) buffers one window bin at a time
            for k in range(width):
                # scalar operation order: (value * overlap) / area — this is
                # what keeps the fused kernel bitwise-identical to the
                # reference loop
                column = np.take(overlaps[k], element_pairs)
                # a bin the scalar loop skips has a zero overlap, where a
                # finite value's weight is +-0.0; an infinite one's would be
                # inf * 0.0, NaN, so a batch holding one gives it a zero
                # value there
                column *= element_values if finite else np.where(column > 0.0, element_values, 0.0)
                column /= element_area
                weights[:m, k] = column
                np.add(first_slots, k * plane, out=slots[:m, k])
            # (element, bin) order: every slot receives its contributions in
            # ascending step order, as from the scalar loop
            atomic_add(flat_out, slots[:m].reshape(-1), weights[:m].reshape(-1))


def depth_resolve_chunk_fused(
    ctx: KernelContext,
    out: np.ndarray,
    element_batch: int = _ELEMENT_BATCH,
    row_block: Optional[int] = None,
    batch: Optional[_ElementBatch] = None,
) -> int:
    """Fused signed-difference + depth-distribute kernel over a row chunk.

    One pass per chunk, in row blocks.  Each block first finds its *span*:
    steps ``s0`` to ``s1 - 1``, the first to the last step that some row of
    the block can use (the trapezoid table's ``active`` flag, through
    :func:`_step_span`); a block with no usable step is skipped.  It then
    computes the span's slab of signed differences on the fly, from
    positions ``s0`` to ``s1`` only (no ``(n_steps, rows, cols)``
    difference cube is ever materialised, and a position only steps outside
    the span touch is never read).  A trimmed slab holds only the positions
    its rows' spans need: its indices start at ``ctx.position_start``, and
    a span the slab does not hold raises
    :class:`~repro.utils.validation.ValidationError`.  The block then finds
    its *used* (step, row) pairs, the pairs holding an active element.  The
    trapezoid integral runs once per used pair, not once per active
    element, and only over the pair's window (:func:`_window_overlaps`):
    the bins :func:`depth_resolve_element` visits, padded with zero
    overlaps to the widest window, bin-major.

    A block is then handled in one of two forms.  Its density is its
    active elements ÷ (used pairs × ``n_cols``); see
    ``_ROW_FORM_MIN_DENSITY`` for the one-half rule and its measured
    crossover.

    *Rows*, for a dense block.  The block integrates its pairs' windows.
    Then one wire step at a time, in ascending order, the step's difference
    rows (inactive elements zeroed) become ``(width, pairs, n_cols)``
    weights, added into the cube viewed as ``(n_bins * out_rows, n_cols)``
    rows with one buffered ``+=``.  A buffered add keeps only one addend
    per target, but within one step every (window bin, pair) has its own
    (bin, row) target: a pair is one detector row, and its window bins are
    distinct.

    *Elements*, for any other block.  The block only collects: it appends
    its used pairs' corners and areas, and its active elements' values,
    pair indices and output pixels, to an element *batch*
    (:class:`_ElementBatch`).  The batch distributes: one window pass over
    every pair it holds, at its widest window, then its elements
    *element_batch* at a time, each group filling ``(group, width)``
    weight and slot buffers one window bin at a time and handed to one
    ``atomic_add``, flat in (element, bin) order.  The kernel flushes the
    batch whenever it holds *element_batch* elements or more.  Without a
    *batch* the kernel makes one of *element_batch* elements and flushes
    it before it returns.  A *batch* the caller passes has its own size
    and stays with the caller, who flushes what is left after the last
    call: the serial executor passes one batch to every chunk of a run, so
    a sparse block costs a few appends, not an integral pass, two tables
    and an ``atomic_add`` of its own.  A batch made for another cube or
    grid raises :class:`~repro.utils.validation.ValidationError`.

    Bitwise identical to :func:`depth_resolve_chunk_scalar` in both forms:
    steps outside a block's span hold only inactive elements, so skipping
    them drops nothing; the windows hold exactly the overlaps the element
    integrates itself, over the same bin edges (each integral evaluated
    once, then differenced, is the scalar loop's ``hi`` minus ``lo``
    integral bit for bit); weights are computed in the scalar operation
    order (``value * overlap / area``); and every output slot receives its
    contributions in ascending wire-step order, as from the scalar loop —
    step by step in the row form, in each ``atomic_add``'s (element, bin)
    order in the element form.  Distributing later, in a batch, changes
    none of that:

    - blocks and chunks cover disjoint rows, so no slot receives
      contributions from two blocks, and deferring one block past later
      ones reorders nothing;
    - the batch appends elements in (chunk, step, row, col) order, so each
      ``atomic_add`` still gives every slot its contributions in ascending
      step order;
    - bin ``k``'s overlap is ``I(edge[k + 1]) - I(edge[k])``, whatever the
      window's start or width, so a batch's wider window integrates the
      same overlaps;
    - the batch's ``isfinite`` zeroing (below) can change only +-0.0
      weights.

    What either form adds beyond the scalar loop's contributions is +-0.0
    (bins of zero overlap, zeroed inactive elements), which leaves a slot
    unchanged: slots accumulate from +0.0 and never hold -0.0.  The
    cumulative integral is monotone in floating point, so no overlap is
    negative, and the bins the scalar loop skips (overlap <= 0) are the
    padding and other zero-overlap bins.  A finite value's weight there is
    +-0.0; an infinite one's would be ``inf * 0.0``, NaN, with an
    invalid-value warning, so a row block or element group holding an
    infinite value gives it a zero value in those bins before the product.
    ``inf + -inf`` meeting in a slot still warns, as in the scalar loop.
    (One ``add.at`` per window bin would change the element order, and
    ``np.bincount`` would sum a slot's contributions before adding them to
    its earlier value.)  Results do not depend on *row_block*,
    *element_batch* or *batch*; they only bound temporary sizes and decide
    when the work is done.

    *out* is a C-contiguous float64 ``(n_bins, out_rows, n_cols)`` cube; the
    chunk's rows land at ``ctx.row_offset`` onwards, so a chunk or band
    writes its own rows of a whole-detector cube.  Any other *out* raises
    :class:`~repro.utils.validation.ValidationError`.

    Returns the number of active elements the call found: distributed, or
    held in a *batch* the caller flushes.
    """
    grid = ctx.grid
    d1, d2, d3, d4, area, pair_active = ctx.trapezoids

    if row_block is None:
        row_block = _fused_row_block(ctx.n_steps, ctx.n_cols)
    row_block = max(1, int(row_block))

    _check_out(ctx, out)
    own_batch = batch is None
    if own_batch:
        batch = _ElementBatch(out, grid, element_batch)
    elif batch.out is not out or batch.grid != grid:
        raise ValidationError("an element batch distributes into the cube and grid it was made for")
    out_rows = out.shape[1]
    # row bin * out_rows + r of this view is output row r in depth bin `bin`
    out_by_row = out.reshape(-1, ctx.n_cols)
    cutoff = max(ctx.intensity_cutoff, 0.0)
    n_active = 0

    for block_start in range(0, ctx.n_rows, row_block):
        block_stop = min(block_start + row_block, ctx.n_rows)
        block_rows = block_stop - block_start
        band = slice(block_start, block_stop)
        # the block's span: its first to last step that some row can use
        # (s0 to s1 - 1, positions s0 to s1).  A step outside it holds only
        # inactive elements, so it is never differenced, and the positions
        # only such steps touch are never read.
        s0, s1 = _step_span(pair_active, band)
        if s0 == s1:
            continue
        n_span = s1 - s0
        # positions s0 to s1 as slab indices p0 to p1: a trimmed slab starts
        # at ctx.position_start, and a span it does not hold would wrap
        p0, p1 = s0 - ctx.position_start, s1 - ctx.position_start
        if p0 < 0 or p1 >= ctx.n_positions:
            raise ValidationError(_outside_slab(ctx, s0, s1))
        # the fused difference pass: the span of this block's slab is read
        # once, here.  Subtracting in edge order is the edge-signed
        # difference without a sign multiply: IEEE subtraction rounds
        # symmetrically, so b - a == -1.0 * (a - b) bit for bit whenever
        # a != b (and a zero difference is never active).
        if ctx.edge_sign > 0:
            diffs = ctx.images[p0:p1, band, :] - ctx.images[p0 + 1:p1 + 1, band, :]
        else:
            diffs = ctx.images[p0 + 1:p1 + 1, band, :] - ctx.images[p0:p1, band, :]
        if ctx.difference_mode is DifferenceMode.RECTIFIED:
            np.maximum(diffs, 0.0, out=diffs)

        # |d| > cutoff (so d != 0, and never NaN) without an |d| temporary
        active = diffs > cutoff
        active |= diffs < -cutoff
        if ctx.mask is not None:
            active &= ctx.mask[None, band, :]
        active &= pair_active[s0:s1, band, None]

        # the (step, row) pairs (pair id (step - s0) * block_rows + row, so
        # in ascending step order) that hold an active element; no other
        # pair is ever integrated or gathered
        used = active.any(axis=2).reshape(-1)
        pair_ids = np.flatnonzero(used)
        if pair_ids.size == 0:
            continue
        n_block_active = int(np.count_nonzero(active))
        n_active += n_block_active
        pair_steps, pair_rows = np.divmod(pair_ids, block_rows)
        pair_steps += s0
        pair_rows += block_start
        c1 = d1[pair_steps, pair_rows]
        c2 = d2[pair_steps, pair_rows]
        c3 = d3[pair_steps, pair_rows]
        c4 = d4[pair_steps, pair_rows]
        pair_area = area[pair_steps, pair_rows]

        if n_block_active < _ROW_FORM_MIN_DENSITY * pair_ids.size * ctx.n_cols:
            # elements: the active flat ids run in (step, row, col) order,
            # the scalar loop's order; flat = pair id * n_cols + col, and
            # flat % (block_rows * n_cols) is the element's pixel in the block
            flat = np.flatnonzero(active)
            # each pair id's index among the used pairs
            pair_index = np.cumsum(used) - 1
            pixels = flat % (block_rows * ctx.n_cols)
            pixels += (ctx.row_offset + block_start) * ctx.n_cols
            batch.add(
                (c1, c2, c3, c4),
                pair_area,
                np.take(diffs, flat),
                np.take(pair_index, flat // ctx.n_cols),
                pixels,
            )
            if batch.n_elements >= batch.element_batch:
                batch.flush()
            continue

        # rows: one buffered += per wire step, steps in ascending order, over
        # the bins of each pair's window
        bins, overlaps = _window_overlaps(grid, c1, c2, c3, c4)
        targets = bins * out_rows + (ctx.row_offset + pair_rows)
        # an inactive element adds a +-0.0 weight; the slab is not read
        # again, so zero it in place
        np.copyto(diffs, 0.0, where=~active)
        values = diffs.reshape(-1, ctx.n_cols)
        # a bin the scalar loop skips has a zero overlap, where a finite
        # value's weight is +-0.0; an infinite one's would be inf * 0.0,
        # NaN, so a block holding one gives it a zero value there
        finite = np.isfinite(values).all()
        # pair ids ascend, so each step's pairs are one slice
        step_bounds = np.searchsorted(pair_steps, np.arange(s0, s1 + 1))
        for step in range(n_span):
            lo, hi = step_bounds[step], step_bounds[step + 1]
            if lo == hi:
                continue
            step_overlaps = overlaps[:, lo:hi, None]
            step_values = np.take(values, pair_ids[lo:hi], axis=0)
            if not finite:
                step_values = np.where(step_overlaps > 0.0, step_values, 0.0)
            # scalar operation order: (value * overlap) / area
            weights = step_values * step_overlaps
            weights /= pair_area[lo:hi, None]
            out_by_row[targets[:, lo:hi]] += weights
    if own_batch:
        batch.flush()
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
