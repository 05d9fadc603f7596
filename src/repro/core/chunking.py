"""The simulated device's row-chunk planner, and the threads executor's bands.

The paper's data sets (2.1–5.2 GB) do not fit in the Tesla M2070's 6 GB
device memory together with the temporaries, so the image cube is streamed
to the device a few detector rows at a time (Fig. 2: "each time only
processing 2 rows"), and the per-chunk results are stitched back together on
the host.

``plan_row_chunks`` chooses the chunk size for the ``gpusim`` executor,
its one caller in the engine (host plans hold no device buffers): either
the caller fixes ``rows_per_chunk`` (as the original program does) or the
planner picks the largest number of rows whose device working set — input
cube slab, output histogram slab, geometry tables and layout overhead —
fits in the available device memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.layouts import get_layout
from repro.utils.validation import ValidationError

__all__ = [
    "ChunkPlan",
    "plan_row_chunks",
    "estimate_chunk_device_bytes",
    "DEFAULT_MIN_ELEMENTS_PER_DISPATCH",
    "granularity_floor_rows",
    "plan_worker_bands",
]

_FLOAT_BYTES = 8
_MASK_BYTES = 1

#: Fraction of device memory a chunk's working set may occupy (head-room for
#: kernel scratch space, as on a real card).
_MEMORY_SAFETY_FRACTION = 0.9

#: Floor on (step, row, col) elements per dispatched work unit.  Below
#: this, dispatch overhead (a pool submit + a future wait) rivals the kernel
#: time of the unit itself and the scaling curve bends down.
DEFAULT_MIN_ELEMENTS_PER_DISPATCH = 65536


def granularity_floor_rows(
    n_cols: int,
    n_steps: int,
    min_elements_per_dispatch: int = DEFAULT_MIN_ELEMENTS_PER_DISPATCH,
) -> int:
    """Minimum rows per dispatched band so each band meets the element floor."""
    elements_per_row = max(1, int(n_cols) * int(n_steps))
    return max(1, -(-int(min_elements_per_dispatch) // elements_per_row))


def plan_worker_bands(
    n_rows: int,
    n_cols: int,
    n_steps: int,
    n_workers: int,
    min_elements_per_dispatch: int = DEFAULT_MIN_ELEMENTS_PER_DISPATCH,
) -> List[Tuple[int, int]]:
    """Contiguous row bands for parallel dispatch, coarsened to the element floor.

    One near-equal band per worker, with fewer bands when needed so every
    band carries at least *min_elements_per_dispatch* ``(step, row, col)``
    elements (except when the whole problem is smaller than the floor, which
    collapses to a single band).  Guarantees: bands tile ``[0, n_rows)`` in
    order, and there are never more bands than ``n_workers``.
    """
    if n_rows < 1:
        raise ValidationError("n_rows must be >= 1")
    n_workers = max(1, int(n_workers))
    floor_rows = granularity_floor_rows(n_cols, n_steps, min_elements_per_dispatch)
    # the near-equal split below gives every band at least
    # n_rows // n_bands rows, which this bound keeps at or above the floor
    n_bands = max(1, min(n_workers, n_rows // floor_rows))
    # near-equal split of n_rows over n_bands (same scheme as one-band-per-
    # worker: the first n_rows % n_bands bands get one extra row)
    base, extra = divmod(n_rows, n_bands)
    bands: List[Tuple[int, int]] = []
    start = 0
    for index in range(n_bands):
        size = base + (1 if index < extra else 0)
        if size == 0:
            continue
        bands.append((start, start + size))
        start += size
    return bands


def estimate_chunk_device_bytes(
    rows: int,
    n_cols: int,
    n_positions: int,
    n_depth_bins: int,
    layout: str = "flat1d",
) -> int:
    """Device bytes needed to process *rows* detector rows in one chunk.

    Working set per chunk:

    * the input image slab ``n_positions × rows × n_cols`` (uploaded with the
      selected layout, which may add pointer-table overhead);
    * the depth-resolved output slab ``n_depth_bins × rows × n_cols``
      (allocated flat regardless of the input layout, as in the original);
    * the pixel-mask slab ``rows × n_cols`` (one byte per pixel) — the chunk
      window of the detector's bad-pixel mask rides along with every slab;
    * the background terms: the per-image background levels
      (``n_positions`` floats) plus one image-sized slab ``rows × n_cols``
      resident while the levels are broadcast-subtracted from the chunk;
    * the wire-position table and per-row pixel-edge tables (small).

    The mask and background terms used to be omitted, which let the
    streaming planner pick chunks that overshot the declared device budget
    on masked/background-subtracted runs.
    """
    if rows < 1:
        raise ValidationError("rows must be >= 1")
    layout_obj = get_layout(layout)
    input_bytes = layout_obj.device_bytes_for((n_positions, rows, n_cols), _FLOAT_BYTES)
    output_bytes = n_depth_bins * rows * n_cols * _FLOAT_BYTES
    mask_bytes = rows * n_cols * _MASK_BYTES
    background_bytes = n_positions * _FLOAT_BYTES + rows * n_cols * _FLOAT_BYTES
    wire_table = (n_positions) * 2 * _FLOAT_BYTES
    edge_tables = rows * 4 * _FLOAT_BYTES
    return int(
        input_bytes + output_bytes + mask_bytes + background_bytes + wire_table + edge_tables
    )


@dataclass(frozen=True)
class ChunkPlan:
    """A row-streaming plan."""

    n_rows: int
    rows_per_chunk: int
    chunks: Tuple[Tuple[int, int], ...]
    bytes_per_chunk: int
    device_memory_bytes: int
    layout: str = "flat1d"

    @property
    def n_chunks(self) -> int:
        """Number of row chunks."""
        return len(self.chunks)

    def summary(self) -> str:
        """One-line description of the plan."""
        return (
            f"{self.n_chunks} chunk(s) of up to {self.rows_per_chunk} row(s), "
            f"{self.bytes_per_chunk} device bytes per chunk "
            f"(limit {self.device_memory_bytes}), layout={self.layout}"
        )


def plan_row_chunks(
    n_rows: int,
    n_cols: int,
    n_positions: int,
    n_depth_bins: int,
    device_memory_bytes: int,
    layout: str = "flat1d",
    rows_per_chunk: Optional[int] = None,
) -> ChunkPlan:
    """Build a :class:`ChunkPlan` for streaming the cube through the device.

    Parameters
    ----------
    n_rows, n_cols, n_positions, n_depth_bins:
        Problem dimensions.
    device_memory_bytes:
        Usable device memory.
    layout:
        Device array layout name (affects the per-chunk footprint).
    rows_per_chunk:
        Fixed chunk size; when ``None`` the planner picks the largest size
        whose working set fits in ``_MEMORY_SAFETY_FRACTION`` (90 %) of
        device memory.

    Raises
    ------
    ValidationError
        If even a single row does not fit in device memory, or a requested
        fixed chunk size does not fit.
    """
    if n_rows < 1 or n_cols < 1 or n_positions < 2 or n_depth_bins < 1:
        raise ValidationError("invalid problem dimensions for chunk planning")
    if device_memory_bytes < 1:
        raise ValidationError("device_memory_bytes must be positive")

    budget = int(device_memory_bytes * _MEMORY_SAFETY_FRACTION)

    def fits(rows: int) -> bool:
        return estimate_chunk_device_bytes(rows, n_cols, n_positions, n_depth_bins, layout) <= budget

    if not fits(1):
        raise ValidationError(
            "a single detector row does not fit in device memory "
            f"({estimate_chunk_device_bytes(1, n_cols, n_positions, n_depth_bins, layout)} bytes "
            f"needed, {budget} available)"
        )

    if rows_per_chunk is not None:
        rows_per_chunk = int(rows_per_chunk)
        if rows_per_chunk < 1:
            raise ValidationError("rows_per_chunk must be >= 1")
        if not fits(min(rows_per_chunk, n_rows)):
            raise ValidationError(
                f"requested rows_per_chunk={rows_per_chunk} does not fit in device memory"
            )
        chosen = min(rows_per_chunk, n_rows)
    else:
        # binary search for the largest chunk that fits
        lo, hi = 1, n_rows
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if fits(mid):
                lo = mid
            else:
                hi = mid - 1
        chosen = lo

    chunks = tuple(
        (start, min(start + chosen, n_rows)) for start in range(0, n_rows, chosen)
    )
    return ChunkPlan(
        n_rows=n_rows,
        rows_per_chunk=chosen,
        chunks=chunks,
        bytes_per_chunk=estimate_chunk_device_bytes(chosen, n_cols, n_positions, n_depth_bins, layout),
        device_memory_bytes=int(device_memory_bytes),
        layout=layout,
    )
