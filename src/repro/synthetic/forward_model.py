"""Wire-scan forward model.

Generates the detector image stack a wire scan would record for a given
:class:`~repro.synthetic.sample.DepthSourceField`: at every wire position the
wire occludes, for each detector row, the rays coming from part of the
illuminated depth range; the recorded image is the visibility-weighted depth
integral of the source.

The occlusion test is purely geometric (segment-vs-circle intersection in the
(y, z) plane, :meth:`repro.geometry.wire.Wire.occludes`) and shares no code
with the tangent-depth mapping the reconstruction uses, so forward-model →
reconstruction round trips are a meaningful validation of the whole chain.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.depth_mapping import critical_wire_z_for_depth
from repro.core.stack import WireScanStack
from repro.geometry.beam import Beam
from repro.geometry.detector import Detector
from repro.geometry.scan import WireScan
from repro.geometry.wire import Wire
from repro.synthetic.sample import DepthSourceField
from repro.utils.validation import ValidationError

__all__ = ["visibility_matrix", "simulate_wire_scan", "design_scan_for_depth_range"]

#: wire travel (micrometres) a designed scan adds before the first and after
#: the last critical wire position
_SCAN_MARGIN = 25.0


def visibility_matrix(
    scan: WireScan,
    detector: Detector,
    depth_samples: np.ndarray,
    subpixel: int = 1,
) -> np.ndarray:
    """Visibility of each depth sample to each detector row at each wire position.

    Parameters
    ----------
    scan:
        Wire scan (positions + wire radius).
    detector:
        Detector (all pixels of a row share the occlusion geometry).
    depth_samples:
        Depth positions of the source samples, shape ``(n_depths,)``.
    subpixel:
        Number of sub-row sample points across the pixel height; values > 1
        produce fractional visibilities near the shadow edge (more realistic
        finite-pixel behaviour).

    Returns
    -------
    numpy.ndarray
        Array of shape ``(n_positions, n_rows, n_depths)`` with values in
        [0, 1]: the fraction of the pixel row that sees the given depth.
    """
    if subpixel < 1:
        raise ValidationError("subpixel must be >= 1")
    depth_samples = np.asarray(depth_samples, dtype=np.float64)

    wire = scan.wire
    positions = scan.positions  # (n_positions, 2)
    rows_yz = detector.row_yz()  # (n_rows, 2)

    # sub-row sampling points across the pixel height (offsets in z)
    if subpixel == 1:
        offsets = np.array([0.0])
    else:
        offsets = (np.arange(subpixel) + 0.5) / subpixel - 0.5
        offsets = offsets * detector.pixel_size

    n_positions = positions.shape[0]
    n_rows = rows_yz.shape[0]
    n_depths = depth_samples.size
    visibility = np.zeros((n_positions, n_rows, n_depths), dtype=np.float64)

    source_yz = np.stack(
        [np.zeros(n_depths), depth_samples], axis=-1
    )  # (n_depths, 2): sources on the beam

    for position_index in range(n_positions):
        center = positions[position_index]  # (2,)
        acc = np.zeros((n_rows, n_depths), dtype=np.float64)
        for offset in offsets:
            pixel_yz = rows_yz.copy()
            pixel_yz[:, 1] += offset
            blocked = wire.occludes(
                source_yz[None, :, :],          # (1, n_depths, 2)
                pixel_yz[:, None, :],            # (n_rows, 1, 2)
                center[None, None, :],           # broadcast
            )
            acc += (~blocked).astype(np.float64)
        visibility[position_index] = acc / len(offsets)
    return visibility


def simulate_wire_scan(
    source: DepthSourceField,
    scan: WireScan,
    detector: Detector,
    beam: Optional[Beam] = None,
    pixel_mask: Optional[np.ndarray] = None,
    metadata: Optional[dict] = None,
) -> WireScanStack:
    """Simulate the detector image stack recorded during a wire scan.

    Parameters
    ----------
    source:
        The emitting sample.
    scan, detector, beam:
        Experiment geometry (the beam must be canonical).  Each pixel row
        sees the source through its centre (:func:`visibility_matrix` with
        one sample per row).
    pixel_mask:
        Optional mask stored with the stack (does not affect the simulation).
    metadata:
        Metadata dictionary stored on the stack.
    """
    beam = beam if beam is not None else Beam()
    if not beam.is_canonical():
        raise ValidationError("simulate_wire_scan requires the canonical beam")
    if (source.n_rows, source.n_cols) != detector.shape:
        raise ValidationError(
            f"source field shape {(source.n_rows, source.n_cols)} does not match detector {detector.shape}"
        )

    visibility = visibility_matrix(scan, detector, source.depth_samples)
    # images[p, r, c] = sum_d visibility[p, r, d] * source[d, r, c]
    images = np.einsum("prd,drc->prc", visibility, source.source, optimize=True)

    return WireScanStack(
        images=images,
        scan=scan,
        detector=detector,
        beam=beam,
        pixel_mask=pixel_mask,
        metadata=metadata or {"generator": "repro.synthetic.simulate_wire_scan"},
    )


def design_scan_for_depth_range(
    detector: Detector,
    depth_range: tuple,
    wire: Optional[Wire] = None,
    wire_height: float = 1_500.0,
    n_points: int = 121,
) -> WireScan:
    """Choose a linear wire scan that depth-resolves *depth_range* on the whole detector.

    The scan must start with the wire's leading edge short of every ray from
    the shallowest depth to any detector row, and end once the leading edge
    has passed every ray from the deepest depth — while staying short enough
    that the trailing edge never starts releasing rays (single-edge regime,
    which keeps the signed-difference analysis exact).  If the required
    travel exceeds the wire diameter, a wire with a larger radius is chosen
    automatically (physically: use a thicker wire, as the real experiments do
    when scanning large fields of view).

    Returns
    -------
    WireScan
        A linear scan at ``wire_height`` covering the required z range plus
        :data:`_SCAN_MARGIN` at each end.
    """
    depth_lo, depth_hi = float(depth_range[0]), float(depth_range[1])
    if depth_hi <= depth_lo:
        raise ValidationError("depth_range must be increasing")
    wire = wire if wire is not None else Wire()
    rows_yz = detector.row_yz()
    pixel_y = rows_yz[:, 0]
    pixel_z = rows_yz[:, 1]

    # Critical wire-centre z for the leading edge over all (row, depth) corners
    corners = []
    for depth in (depth_lo, depth_hi):
        corners.append(
            critical_wire_z_for_depth(depth, pixel_y, pixel_z, wire_height, wire.radius, edge=+1)
        )
    corner_values = np.concatenate(corners)
    z_start = float(np.min(corner_values)) - _SCAN_MARGIN
    z_stop = float(np.max(corner_values)) + _SCAN_MARGIN
    travel = z_stop - z_start

    # Single-edge regime requires the wire diameter to exceed the travel.
    if 2.0 * wire.radius <= travel:
        wire = Wire(radius=0.75 * travel, axis=wire.axis)
        # recompute the corners with the larger wire (the tangent offsets grow)
        corners = []
        for depth in (depth_lo, depth_hi):
            corners.append(
                critical_wire_z_for_depth(depth, pixel_y, pixel_z, wire_height, wire.radius, edge=+1)
            )
        corner_values = np.concatenate(corners)
        z_start = float(np.min(corner_values)) - _SCAN_MARGIN
        z_stop = float(np.max(corner_values)) + _SCAN_MARGIN

    return WireScan.linear(
        wire=wire,
        n_points=int(n_points),
        height=wire_height,
        z_start=z_start,
        z_stop=z_stop,
    )
