"""Benchmark workload generation.

The paper's experiments are defined by two knobs:

* **data-set size** — 2.1, 2.7, 3.6 and 5.2 GB detector cubes (Fig. 8);
* **pixel percentage** — 25 %, 50 % and 100 % of pixels processed (Figs. 4, 9).

``make_benchmark_workload`` produces synthetic stacks with the same byte-size
*ratios*, scaled by a configurable factor so that the sweeps run on a laptop
in seconds, plus the ground-truth source field so that accuracy can be
checked alongside speed.  The analytic performance model is used elsewhere to
extrapolate the measured behaviour back to the paper's hardware scale.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.depth_grid import DepthGrid
from repro.core.stack import WireScanStack
from repro.geometry.beam import Beam
from repro.geometry.detector import Detector
from repro.geometry.wire import Wire
from repro.synthetic.forward_model import design_scan_for_depth_range, simulate_wire_scan
from repro.synthetic.noise import apply_poisson
from repro.synthetic.sample import DepthSourceField, GrainSample
from repro.utils.validation import ValidationError

__all__ = [
    "PAPER_DATASET_SIZES_GB",
    "BenchmarkWorkload",
    "make_benchmark_workload",
    "make_point_source_stack",
    "make_grain_sample_stack",
]

#: The four data-set sizes of Fig. 8 (gigabytes).
PAPER_DATASET_SIZES_GB: Dict[str, float] = {
    "2.1G": 2.1,
    "2.7G": 2.7,
    "3.6G": 3.6,
    "5.2G": 5.2,
}

#: Default scale factor from paper bytes to benchmark bytes: the 5.2 GB cube
#: becomes ~0.65 MB, which the scalar CPU baseline reconstructs in a few
#: seconds — large enough to show the scaling trends, small enough to sweep.
DEFAULT_BENCH_SCALE = 1.0 / 8192.0


@dataclass
class BenchmarkWorkload:
    """A generated benchmark input with its ground truth and bookkeeping."""

    label: str
    stack: WireScanStack
    source: DepthSourceField
    grid: DepthGrid
    pixel_fraction: float
    target_bytes: int

    @property
    def actual_bytes(self) -> int:
        """Actual byte size of the generated cube."""
        return self.stack.nbytes

    @property
    def n_elements(self) -> int:
        """Number of (pixel, step) reconstruction elements."""
        return self.stack.n_steps * self.stack.n_rows * self.stack.n_cols

    def describe(self) -> str:
        """One-line description used by the benchmark reports."""
        return (
            f"{self.label}: cube {self.stack.shape} = {self.actual_bytes / 1e6:.2f} MB "
            f"(target {self.target_bytes / 1e6:.2f} MB), "
            f"pixel fraction {self.pixel_fraction:.0%}, "
            f"{self.n_elements} elements"
        )


# --------------------------------------------------------------------------- #
def _choose_cube_shape(
    target_bytes: float,
    n_positions: int,
    col_row_ratio: float = 2.0,
    min_rows: int = 4,
    min_cols: int = 8,
) -> Tuple[int, int]:
    """Pick (n_rows, n_cols) so the cube is close to *target_bytes*."""
    target_elements = max(1.0, target_bytes / 8.0)
    per_image = target_elements / n_positions
    rows = int(round(np.sqrt(per_image / col_row_ratio)))
    rows = max(min_rows, rows)
    cols = max(min_cols, int(round(per_image / rows)))
    return rows, cols


def _random_blob_source(
    detector: Detector,
    depth_samples: np.ndarray,
    rng: np.random.Generator,
    n_spots: int,
    peak_intensity: float = 2000.0,
    spot_sigma_pixels: float = 1.5,
) -> DepthSourceField:
    """Laue-like source field: Gaussian spots, each emitting from one depth band."""
    n_rows, n_cols = detector.shape
    source = np.zeros((depth_samples.size, n_rows, n_cols), dtype=np.float64)
    row_coords = np.arange(n_rows, dtype=np.float64)[:, None]
    col_coords = np.arange(n_cols, dtype=np.float64)[None, :]

    depth_lo, depth_hi = depth_samples[0], depth_samples[-1]
    for _ in range(n_spots):
        spot_row = rng.uniform(0, n_rows - 1)
        spot_col = rng.uniform(0, n_cols - 1)
        center_depth = rng.uniform(depth_lo, depth_hi)
        half_width = rng.uniform(0.03, 0.15) * (depth_hi - depth_lo)
        weights = np.exp(-0.5 * ((depth_samples - center_depth) / max(half_width, 1e-6)) ** 2)
        weights /= weights.sum()
        blob = np.exp(
            -0.5 * ((row_coords - spot_row) ** 2 + (col_coords - spot_col) ** 2) / spot_sigma_pixels**2
        )
        source += peak_intensity * rng.uniform(0.3, 1.0) * weights[:, None, None] * blob[None, :, :]
    return DepthSourceField(depth_samples=depth_samples, source=source)


def _pixel_fraction_mask(
    shape: Tuple[int, int], fraction: float, rng: np.random.Generator
) -> Optional[np.ndarray]:
    """Random mask enabling the requested fraction of pixels (None for 100 %)."""
    if not (0.0 < fraction <= 1.0):
        raise ValidationError("pixel fraction must lie in (0, 1]")
    if fraction >= 1.0:
        return None
    n_rows, n_cols = shape
    n_total = n_rows * n_cols
    n_active = max(1, int(round(fraction * n_total)))
    flat = np.zeros(n_total, dtype=bool)
    flat[rng.choice(n_total, size=n_active, replace=False)] = True
    return flat.reshape(shape)


# --------------------------------------------------------------------------- #
def make_benchmark_workload(
    size_label: str = "2.1G",
    pixel_fraction: float = 1.0,
    scale: float = DEFAULT_BENCH_SCALE,
    n_positions: int = 49,
    depth_range: Tuple[float, float] = (0.0, 100.0),
    n_depth_bins: int = 40,
    n_spots_per_mb: float = 12.0,
    noise: bool = False,
    seed: int = 0,
) -> BenchmarkWorkload:
    """Generate a scaled stand-in for one of the paper's benchmark data sets.

    Parameters
    ----------
    size_label:
        One of the paper's size labels (``"2.1G"`` … ``"5.2G"``) or a string
        of the form ``"<float>MB"`` for an explicit target.
    pixel_fraction:
        Fraction of detector pixels enabled (the Fig. 4 / Fig. 9 knob).
    scale:
        Byte scale factor from the paper's sizes to the generated cube.
    n_positions:
        Number of wire positions in the scan.
    depth_range, n_depth_bins:
        Reconstructed depth range and binning (also used for the ground truth).
    n_spots_per_mb:
        Diffraction-spot density; keeps the sparsity roughly constant across
        data-set sizes.
    noise:
        Apply Poisson noise to the generated images.
    seed:
        Seed for the workload's random generator (workloads are deterministic
        given their arguments).
    """
    if size_label in PAPER_DATASET_SIZES_GB:
        target_bytes = PAPER_DATASET_SIZES_GB[size_label] * 1024**3 * scale
    elif size_label.upper().endswith("MB"):
        target_bytes = float(size_label[:-2]) * 1e6
    else:
        raise ValidationError(
            f"unknown size label {size_label!r}; use one of {sorted(PAPER_DATASET_SIZES_GB)} or '<x>MB'"
        )

    # a stable digest of the label, not hash(): str hashes are salted per
    # process, which would make the "same" workload differ between runs
    rng = np.random.default_rng(seed + zlib.crc32(size_label.encode("utf-8")) % 10_000)
    n_rows, n_cols = _choose_cube_shape(target_bytes, n_positions)
    detector = Detector(n_rows=n_rows, n_cols=n_cols, pixel_size=200.0, distance=510_000.0)
    beam = Beam()
    grid = DepthGrid.from_range(depth_range[0], depth_range[1], n_depth_bins)

    depth_samples = np.linspace(depth_range[0], depth_range[1], max(2 * n_depth_bins, 32), endpoint=False)
    depth_samples += (depth_samples[1] - depth_samples[0]) / 2.0

    n_spots = max(3, int(round(n_spots_per_mb * target_bytes / 1e6)))
    source = _random_blob_source(detector, depth_samples, rng, n_spots)

    scan = design_scan_for_depth_range(
        detector, depth_range, wire=Wire(radius=26.0), n_points=n_positions
    )
    mask = _pixel_fraction_mask(detector.shape, pixel_fraction, rng)
    stack = simulate_wire_scan(
        source,
        scan,
        detector,
        beam,
        pixel_mask=mask,
        metadata={
            "workload": size_label,
            "pixel_fraction": pixel_fraction,
            "scale": scale,
            "seed": seed,
        },
    )
    if noise:
        stack = apply_poisson(stack, rng)

    return BenchmarkWorkload(
        label=size_label,
        stack=stack,
        source=source,
        grid=grid,
        pixel_fraction=pixel_fraction,
        target_bytes=int(target_bytes),
    )


def make_point_source_stack(
    depth: float = 40.0,
    n_rows: int = 8,
    n_cols: int = 8,
    n_positions: int = 81,
    depth_range: Tuple[float, float] = (0.0, 100.0),
    intensity: float = 1000.0,
    n_depth_samples: int = 64,
) -> Tuple[WireScanStack, DepthSourceField]:
    """Small single-depth test stack (used heavily by the test-suite)."""
    detector = Detector(n_rows=n_rows, n_cols=n_cols, pixel_size=200.0, distance=510_000.0)
    depth_samples = np.linspace(depth_range[0], depth_range[1], n_depth_samples, endpoint=False)
    depth_samples += (depth_samples[1] - depth_samples[0]) / 2.0
    source = DepthSourceField.point_source(detector, depth, depth_samples, intensity=intensity)
    scan = design_scan_for_depth_range(detector, depth_range, n_points=n_positions)
    stack = simulate_wire_scan(source, scan, detector, Beam())
    return stack, source


def make_grain_sample_stack(
    material: str = "Cu",
    n_grains: int = 3,
    n_rows: int = 32,
    n_cols: int = 32,
    n_positions: int = 101,
    depth_range: Tuple[float, float] = (0.0, 120.0),
    seed: int = 7,
    noise: bool = False,
    detector_span: float = 410_000.0,
    wire_height: float = 500.0,
) -> Tuple[WireScanStack, DepthSourceField, GrainSample]:
    """Full physics path: random grain column → Laue spots → wire scan stack.

    The detector covers *detector_span* micrometres (the real 34-ID area
    detector is ~410 mm across) regardless of the pixel count, so the Laue
    patterns of randomly oriented grains reliably intersect it; the wire sits
    *wire_height* above the sample so the wire step — not the wire diameter —
    sets the depth resolution.  If a randomly drawn grain column happens to
    diffract entirely outside the detector, the next seed is tried (bounded).
    """
    detector = Detector(
        n_rows=n_rows, n_cols=n_cols, pixel_size=detector_span / max(n_rows, n_cols), distance=510_000.0
    )
    beam = Beam()
    depth_samples = np.linspace(depth_range[0], depth_range[1], 96, endpoint=False)
    depth_samples += (depth_samples[1] - depth_samples[0]) / 2.0

    sample = None
    source = None
    for attempt in range(16):
        rng = np.random.default_rng(seed + attempt)
        sample = GrainSample.random_column(material, n_grains, depth_range, rng)
        source = sample.to_source_field(detector, beam, depth_samples, max_hkl=6, background=0.0)
        if source.source.sum() > 0:
            break
    if source is None or source.source.sum() == 0:
        raise ValidationError(
            "could not generate a grain sample whose Laue pattern hits the detector"
        )

    scan = design_scan_for_depth_range(
        detector, depth_range, n_points=n_positions, wire_height=wire_height
    )
    stack = simulate_wire_scan(source, scan, detector, beam)
    if noise:
        stack = apply_poisson(stack, np.random.default_rng(seed))
    return stack, source, sample
