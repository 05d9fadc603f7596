"""Reconstruction outputs: the depth-resolved stack and the run report."""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.depth_grid import DepthGrid
from repro.utils.validation import ValidationError

__all__ = ["DepthResolvedStack", "ReconstructionReport"]


@dataclass
class DepthResolvedStack:
    """Depth-resolved intensity: one detector image per depth bin.

    Parameters
    ----------
    data:
        Array of shape ``(n_depth_bins, n_rows, n_cols)``; ``data[k, r, c]``
        is the intensity assigned to depth bin ``k`` at detector pixel
        ``(r, c)`` — the ``image_set.depth_resolved`` output of the original
        program.
    grid:
        The depth grid the first axis is defined on.
    metadata:
        Free-form metadata (propagated from the input stack plus run info).
    """

    data: np.ndarray
    grid: DepthGrid
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ValidationError(
                f"data must have shape (n_depth_bins, n_rows, n_cols), got {self.data.shape}"
            )
        if self.data.shape[0] != self.grid.n_bins:
            raise ValidationError(
                f"data first axis ({self.data.shape[0]}) must equal grid.n_bins ({self.grid.n_bins})"
            )

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int, int]:
        """``(n_depth_bins, n_rows, n_cols)``."""
        return tuple(self.data.shape)

    @property
    def n_rows(self) -> int:
        """Detector rows."""
        return self.data.shape[1]

    @property
    def n_cols(self) -> int:
        """Detector columns."""
        return self.data.shape[2]

    def depth_profile(self, row: int, col: int) -> np.ndarray:
        """Intensity versus depth for one detector pixel, shape ``(n_bins,)``."""
        return self.data[:, int(row), int(col)].copy()

    def integrated_profile(self) -> np.ndarray:
        """Depth profile integrated over the whole detector, shape ``(n_bins,)``."""
        return self.data.sum(axis=(1, 2))

    def total_intensity(self) -> float:
        """Sum of all depth-resolved intensity."""
        return float(self.data.sum())

    def content_digest(self) -> str:
        """SHA-256 of the cube bytes plus the grid definition.

        The integrity stamp the result cache stores with every entry and
        re-verifies on every hit: a truncated or bit-rotten entry can change
        its bytes, but it cannot keep this digest consistent, so corruption
        is always detected before a cached stack is served.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self.data).tobytes())
        digest.update(
            f"|grid={self.grid.start!r},{self.grid.step!r},{self.grid.n_bins}".encode("utf-8")
        )
        return digest.hexdigest()

    def image_at_depth(self, depth: float) -> np.ndarray:
        """Detector image for the depth bin containing *depth*."""
        index = int(self.grid.depth_to_index(depth))
        if not (0 <= index < self.grid.n_bins):
            raise ValidationError(f"depth {depth} lies outside the grid [{self.grid.start}, {self.grid.stop})")
        return self.data[index].copy()

    def dominant_depth(self) -> np.ndarray:
        """Per-pixel depth (bin centre) with the largest intensity, shape ``(n_rows, n_cols)``.

        Pixels with no signal get NaN.
        """
        best = np.argmax(self.data, axis=0)
        has_signal = self.data.max(axis=0) > 0
        depths = self.grid.index_to_depth(best)
        return np.where(has_signal, depths, np.nan)

    def centroid_depth(self) -> np.ndarray:
        """Per-pixel intensity-weighted mean depth, shape ``(n_rows, n_cols)``.

        Pixels with no (or non-positive) total intensity get NaN.
        """
        weights = np.clip(self.data, 0.0, None)
        total = weights.sum(axis=0)
        centers = self.grid.centers[:, None, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            centroid = (weights * centers).sum(axis=0) / total
        return np.where(total > 0, centroid, np.nan)

    def __add__(self, other: "DepthResolvedStack") -> "DepthResolvedStack":
        if not isinstance(other, DepthResolvedStack):
            return NotImplemented
        if other.grid != self.grid:
            raise ValidationError(
                "cannot add depth-resolved stacks defined on different depth grids: "
                f"(start={self.grid.start}, step={self.grid.step}, n_bins={self.grid.n_bins}) "
                f"vs (start={other.grid.start}, step={other.grid.step}, n_bins={other.grid.n_bins})"
            )
        if other.data.shape != self.data.shape:
            raise ValidationError(
                "cannot add depth-resolved stacks with different detector shapes: "
                f"{self.data.shape} vs {other.data.shape}"
            )
        return DepthResolvedStack(data=self.data + other.data, grid=self.grid, metadata=dict(self.metadata))

    def __radd__(self, other) -> "DepthResolvedStack":
        # sum(stacks) starts from 0; supporting it keeps batch/op reductions
        # one-liners while every stack+stack addition still validates grids
        if isinstance(other, (int, float)) and other == 0:
            return DepthResolvedStack(data=self.data.copy(), grid=self.grid, metadata=dict(self.metadata))
        return NotImplemented


@dataclass
class ReconstructionReport:
    """Timing and accounting information for one reconstruction run.

    ``n_active_pixels`` counts the run's *active elements*, as counted by the
    backend's kernel while it distributes them and summed by the engine over
    the counts the executor yields per chunk or band: a ``(wire-step, row,
    column)`` element is active when its pixel passes the mask, its
    background-subtracted, edge-signed intensity difference passes the
    cutoff (``|d| > intensity_cutoff`` and ``d != 0``, after rectification
    in ``RECTIFIED`` mode), and its trapezoid is non-degenerate and overlaps
    the depth grid.  Every backend reports the same count for the same run.
    """

    backend: str
    wall_time: float = 0.0
    compute_time: float = 0.0
    transfer_time: float = 0.0
    simulated_device_time: float = 0.0
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    n_chunks: int = 1
    n_kernel_launches: int = 0
    n_threads_launched: int = 0
    n_active_pixels: int = 0
    n_steps: int = 0
    layout: Optional[str] = None
    notes: List[str] = field(default_factory=list)

    @property
    def transfer_fraction(self) -> float:
        """Fraction of simulated device time spent in transfers."""
        total = self.transfer_time + self.compute_time
        return self.transfer_time / total if total > 0 else 0.0

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """JSON-safe snapshot of every field; :meth:`from_dict` inverts it exactly."""
        return {
            "backend": self.backend,
            "wall_time": float(self.wall_time),
            "compute_time": float(self.compute_time),
            "transfer_time": float(self.transfer_time),
            "simulated_device_time": float(self.simulated_device_time),
            "h2d_bytes": int(self.h2d_bytes),
            "d2h_bytes": int(self.d2h_bytes),
            "n_chunks": int(self.n_chunks),
            "n_kernel_launches": int(self.n_kernel_launches),
            "n_threads_launched": int(self.n_threads_launched),
            "n_active_pixels": int(self.n_active_pixels),
            "n_steps": int(self.n_steps),
            "layout": self.layout,
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ReconstructionReport":
        """Rebuild a report from a :meth:`to_dict` snapshot.

        Unknown keys fail loudly — a provenance record written by a newer
        version must not half-apply.
        """
        data = dict(data)
        known = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationError(f"unknown report field(s): {unknown}; known: {sorted(known)}")
        if "backend" not in data:
            raise ValidationError("report dict requires a 'backend' entry")
        return cls(**data)

    def summary(self) -> str:
        """Human-readable one-paragraph summary."""
        lines = [
            f"backend={self.backend} wall={self.wall_time:.4f}s",
            f"  chunks={self.n_chunks} launches={self.n_kernel_launches} threads={self.n_threads_launched}",
            f"  active_pixels={self.n_active_pixels} steps={self.n_steps} layout={self.layout}",
        ]
        if self.simulated_device_time > 0:
            lines.append(
                f"  simulated: total={self.simulated_device_time:.4f}s "
                f"compute={self.compute_time:.4f}s transfer={self.transfer_time:.4f}s "
                f"(transfer fraction {self.transfer_fraction:.1%})"
            )
        if self.h2d_bytes or self.d2h_bytes:
            lines.append(f"  H2D={self.h2d_bytes} bytes D2H={self.d2h_bytes} bytes")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)
