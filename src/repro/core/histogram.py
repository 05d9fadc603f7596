"""Depth-resolved accumulation buffers.

``DepthHistogram`` owns the ``(n_depth_bins, n_rows, n_cols)`` accumulation
cube the kernels scatter into.  It supports two accumulation disciplines:

* **atomic** — every contribution is applied with atomic-add semantics
  (``np.add.at`` / the simulated ``atomicAdd``), the way the CUDA kernel
  must accumulate because many threads may target the same output element;
* **privatised** — per-chunk partial histograms that are merged at the end
  (the classic alternative to atomics; compared in an ablation benchmark).

Both produce identical results; only their cost profile differs on real
hardware.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.depth_grid import DepthGrid
from repro.cudasim.atomic import atomic_add
from repro.utils.validation import ValidationError

__all__ = ["DepthHistogram", "add_pixel_intensity_at_index"]


def add_pixel_intensity_at_index(
    depth_intensity: np.ndarray,
    flat_indices,
    values,
) -> np.ndarray:
    """Scatter-add intensities into the flattened depth-resolved cube.

    The analogue of ``device_add_pixel_intensity_at_index`` +
    ``device_atomicAdd``: *flat_indices* are linear offsets into the
    flattened output array (computed with the same ``x + y*NX + z*NX*NY``
    arithmetic as the CUDA kernel) and repeated offsets accumulate.
    """
    flat = np.asarray(depth_intensity).reshape(-1)
    atomic_add(flat, flat_indices, values)
    return depth_intensity


class DepthHistogram:
    """Accumulation buffer for depth-resolved intensity."""

    def __init__(self, grid: DepthGrid, n_rows: int, n_cols: int):
        if n_rows < 1 or n_cols < 1:
            raise ValidationError("DepthHistogram needs positive n_rows and n_cols")
        self.grid = grid
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self._data = np.zeros((grid.n_bins, self.n_rows, self.n_cols), dtype=np.float64)

    # ------------------------------------------------------------------ #
    @property
    def data(self) -> np.ndarray:
        """The accumulation cube (view, not a copy)."""
        return self._data

    @property
    def shape(self):
        """``(n_bins, n_rows, n_cols)``."""
        return self._data.shape

    def reset(self) -> None:
        """Zero the accumulation buffer."""
        self._data.fill(0.0)

    # ------------------------------------------------------------------ #
    def add_contributions(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        bin_weights: np.ndarray,
    ) -> None:
        """Accumulate per-pixel depth distributions.

        Parameters
        ----------
        rows, cols:
            Integer arrays of length ``n`` giving the target pixel of each
            contribution.
        bin_weights:
            Array of shape ``(n, n_bins)``; row ``i`` is added to
            ``data[:, rows[i], cols[i]]``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        bin_weights = np.asarray(bin_weights, dtype=np.float64)
        if bin_weights.ndim != 2 or bin_weights.shape[1] != self.grid.n_bins:
            raise ValidationError(
                f"bin_weights must have shape (n, {self.grid.n_bins}), got {bin_weights.shape}"
            )
        if rows.shape != cols.shape or rows.shape[0] != bin_weights.shape[0]:
            raise ValidationError("rows, cols and bin_weights must agree in length")
        if rows.size == 0:
            return
        if rows.min() < 0 or rows.max() >= self.n_rows or cols.min() < 0 or cols.max() >= self.n_cols:
            raise ValidationError("pixel indices out of range")

        # Each (row, col) pair may appear multiple times (different wire
        # steps), so accumulate with atomic semantics on the flattened cube.
        pixel_offset = rows * self.n_cols + cols  # (n,)
        bin_offsets = np.arange(self.grid.n_bins, dtype=np.int64) * (self.n_rows * self.n_cols)
        flat_indices = (pixel_offset[:, None] + bin_offsets[None, :]).reshape(-1)
        add_pixel_intensity_at_index(self._data, flat_indices, bin_weights.reshape(-1))

    def add_histogram(self, other: "DepthHistogram") -> None:
        """Merge another (privatised) histogram into this one."""
        if other.shape != self.shape or other.grid != self.grid:
            raise ValidationError("cannot merge histograms with different shapes/grids")
        self._data += other._data

    def merge_partial(self, partial: np.ndarray, row_start: int) -> None:
        """Merge a partial cube covering rows ``row_start:row_start+partial.shape[1]``.

        Used when the reconstruction is chunked or partitioned by detector
        rows: each chunk produces a small ``(n_bins, chunk_rows, n_cols)``
        cube which is placed back at the right row offset — the "put it back
        together" step of Fig. 2.
        """
        partial = np.asarray(partial, dtype=np.float64)
        if partial.ndim != 3 or partial.shape[0] != self.grid.n_bins or partial.shape[2] != self.n_cols:
            raise ValidationError(f"partial cube has incompatible shape {partial.shape}")
        row_stop = row_start + partial.shape[1]
        if row_start < 0 or row_stop > self.n_rows:
            raise ValidationError("partial cube rows out of range")
        self._data[:, row_start:row_stop, :] += partial

    # ------------------------------------------------------------------ #
    def to_result(self, metadata: Optional[dict] = None):
        """Hand the accumulated cube over to a :class:`DepthResolvedStack`.

        The stack takes the buffer itself, not a copy — a run's output cube
        is never held twice.  The histogram must not be used afterwards: any
        further accumulation would write into the returned stack.
        """
        from repro.core.result import DepthResolvedStack

        return DepthResolvedStack(data=self._data, grid=self.grid, metadata=metadata or {})
