"""Reading and writing experiment data as h5lite containers.

File schema (groups/datasets), loosely modelled on the 34-ID HDF5 layout:

``/entry``
    root group with experiment attributes
``/entry/data/images``
    ``(n_positions, n_rows, n_cols)`` float64 intensity cube, chunked along
    the wire-position axis
``/entry/data/pixel_mask``
    optional ``(n_rows, n_cols)`` uint8 mask
``/entry/wire/positions_yz``
    ``(n_positions, 2)`` wire-centre trajectory
``/entry/wire`` attributes: ``radius``
``/entry/detector`` attributes: ``n_rows``, ``n_cols``, ``pixel_size``,
    ``distance``, ``center``
``/entry/beam`` attributes: ``direction``, ``origin``, energy band

Depth-resolved results are stored under ``/entry/depth_resolved`` with the
grid parameters as attributes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.depth_grid import DepthGrid
from repro.core.result import DepthResolvedStack
from repro.core.stack import WireScanStack
from repro.geometry.beam import Beam
from repro.geometry.detector import Detector
from repro.geometry.scan import WireScan
from repro.geometry.wire import Wire
from repro.io.h5lite import H5LiteFile, H5LiteError

__all__ = [
    "save_wire_scan",
    "load_wire_scan",
    "read_wire_scan_geometry",
    "save_depth_resolved",
    "load_depth_resolved",
    "load_run_payload",
    "RUN_RECORD_ATTR",
    "UnrecognizedFormatError",
]

#: wire positions per stored chunk of a scan's image cube
_IMAGE_CHUNK_POSITIONS = 4

#: depth bins per stored chunk of a depth-resolved stack
_RESULT_CHUNK_BINS = 8


def save_wire_scan(path, stack: WireScanStack) -> None:
    """Write a :class:`WireScanStack` to an h5lite file.

    The image cube is stored in chunks of :data:`_IMAGE_CHUNK_POSITIONS`
    wire positions.
    """
    with H5LiteFile(path, "w") as fh:
        entry = fh.create_group("entry")
        entry.attrs["format"] = "repro-wire-scan"
        entry.attrs["format_version"] = 1
        for key, value in stack.metadata.items():
            entry.attrs[f"meta_{key}"] = value

        data = entry.create_group("data")
        data.create_dataset("images", stack.images, chunk_rows=_IMAGE_CHUNK_POSITIONS)
        if stack.pixel_mask is not None:
            data.create_dataset("pixel_mask", stack.pixel_mask.astype(np.uint8))

        wire_grp = entry.create_group("wire")
        wire_grp.attrs["radius"] = stack.scan.wire.radius
        wire_grp.create_dataset("positions_yz", stack.scan.positions)

        det_grp = entry.create_group("detector")
        det_grp.attrs["n_rows"] = stack.detector.n_rows
        det_grp.attrs["n_cols"] = stack.detector.n_cols
        det_grp.attrs["pixel_size"] = stack.detector.pixel_size
        det_grp.attrs["distance"] = stack.detector.distance
        det_grp.attrs["center"] = list(stack.detector.center)

        beam_grp = entry.create_group("beam")
        beam_grp.attrs["direction"] = list(stack.beam.direction)
        beam_grp.attrs["origin"] = list(stack.beam.origin)
        beam_grp.attrs["energy_min_kev"] = stack.beam.energy_min_kev
        beam_grp.attrs["energy_max_kev"] = stack.beam.energy_max_kev


def _wire_scan_entry(fh: H5LiteFile, path):
    """The validated ``/entry`` group of an open wire-scan file."""
    if "entry" not in fh:
        raise H5LiteError(f"{path} does not contain an /entry group")
    entry = fh["entry"]
    if entry.attrs.get("format") != "repro-wire-scan":
        raise H5LiteError(f"{path} is not a repro wire-scan file")
    return entry


def _read_entry_geometry(entry):
    """Parse (scan, detector, beam, metadata) from an ``/entry`` group.

    Touches only header attributes and the (small) wire trajectory — never
    the image cube, so it is safe for out-of-core use.
    """
    wire_grp = entry["wire"]
    wire = Wire(radius=float(wire_grp.attrs["radius"]))
    positions = entry["wire/positions_yz"][...]
    scan = WireScan(wire=wire, positions_yz=positions)

    det_grp = entry["detector"]
    detector = Detector(
        n_rows=int(det_grp.attrs["n_rows"]),
        n_cols=int(det_grp.attrs["n_cols"]),
        pixel_size=float(det_grp.attrs["pixel_size"]),
        distance=float(det_grp.attrs["distance"]),
        center=tuple(det_grp.attrs["center"]),
    )

    beam_grp = entry["beam"]
    beam = Beam(
        direction=tuple(beam_grp.attrs["direction"]),
        origin=tuple(beam_grp.attrs["origin"]),
        energy_min_kev=float(beam_grp.attrs["energy_min_kev"]),
        energy_max_kev=float(beam_grp.attrs["energy_max_kev"]),
    )

    metadata = {
        key[len("meta_"):]: value
        for key, value in entry.attrs.items()
        if key.startswith("meta_")
    }
    return scan, detector, beam, metadata


def read_wire_scan_geometry(path):
    """Read only the geometry of a wire-scan file: ``(scan, detector, beam, metadata)``.

    The image cube is not touched; this is the header read the streaming
    pipeline performs before planning its chunks.
    """
    with H5LiteFile(path, "r") as fh:
        entry = _wire_scan_entry(fh, path)
        return _read_entry_geometry(entry)


def load_wire_scan(path) -> WireScanStack:
    """Read a :class:`WireScanStack` from an h5lite file."""
    with H5LiteFile(path, "r") as fh:
        entry = _wire_scan_entry(fh, path)
        images = entry["data/images"][...]
        pixel_mask = None
        if "data/pixel_mask" in entry:
            pixel_mask = entry["data/pixel_mask"][...].astype(bool)
        scan, detector, beam, metadata = _read_entry_geometry(entry)
        return WireScanStack(
            images=images,
            scan=scan,
            detector=detector,
            beam=beam,
            pixel_mask=pixel_mask,
            metadata=metadata,
        )


#: attribute key the run-provenance record is stored under (JSON-attrs block)
RUN_RECORD_ATTR = "run_record"


class UnrecognizedFormatError(H5LiteError):
    """A valid h5lite container that is not the expected repro format.

    Distinct from generic :class:`~repro.io.h5lite.H5LiteError` so directory
    scans can *skip* foreign-but-healthy files while still *reporting*
    corrupt ones.  Subclasses ``H5LiteError``, so existing handlers keep
    working.
    """


def save_depth_resolved(
    path,
    result: DepthResolvedStack,
    run_record: Optional[Dict] = None,
) -> None:
    """Write a :class:`DepthResolvedStack` to an h5lite file, in chunks of
    :data:`_RESULT_CHUNK_BINS` depth bins.

    When *run_record* is given (the full provenance record of the run that
    produced the stack — see :meth:`repro.core.session.RunResult.save`), it
    is embedded on the ``/entry`` group as an eagerly-validated JSON
    attribute, h5py-attributes style, so :func:`repro.load` can reconstruct
    the complete :class:`~repro.core.session.RunResult` later.
    """
    with H5LiteFile(path, "w") as fh:
        entry = fh.create_group("entry")
        entry.attrs["format"] = "repro-depth-resolved"
        entry.attrs["format_version"] = 1
        for key, value in result.metadata.items():
            entry.attrs[f"meta_{key}"] = value
        if run_record is not None:
            entry.set_json_attr(RUN_RECORD_ATTR, run_record)
        grp = entry.create_group("depth_resolved")
        grp.attrs["depth_start"] = result.grid.start
        grp.attrs["depth_step"] = result.grid.step
        grp.attrs["n_bins"] = result.grid.n_bins
        grp.create_dataset("intensity", result.data, chunk_rows=_RESULT_CHUNK_BINS)


def _depth_resolved_entry(fh: H5LiteFile, path):
    """The validated ``/entry`` group of an open depth-resolved file."""
    if "entry" not in fh:
        raise UnrecognizedFormatError(f"{path} does not contain an /entry group")
    entry = fh["entry"]
    if entry.attrs.get("format") != "repro-depth-resolved":
        raise UnrecognizedFormatError(f"{path} is not a repro depth-resolved file")
    return entry


def _read_depth_resolved(entry) -> DepthResolvedStack:
    grp = entry["depth_resolved"]
    grid = DepthGrid(
        start=float(grp.attrs["depth_start"]),
        step=float(grp.attrs["depth_step"]),
        n_bins=int(grp.attrs["n_bins"]),
    )
    data = entry["depth_resolved/intensity"][...]
    metadata = {
        key[len("meta_"):]: value
        for key, value in entry.attrs.items()
        if key.startswith("meta_")
    }
    return DepthResolvedStack(data=data, grid=grid, metadata=metadata)


def load_depth_resolved(path) -> DepthResolvedStack:
    """Read a :class:`DepthResolvedStack` from an h5lite file."""
    with H5LiteFile(path, "r") as fh:
        return _read_depth_resolved(_depth_resolved_entry(fh, path))


def load_run_payload(path) -> Tuple[DepthResolvedStack, Optional[Dict]]:
    """Read a depth-resolved file plus its embedded run-provenance record.

    One file open serves both; the record is ``None`` for files written
    without provenance (pre-redesign outputs or bare
    :func:`save_depth_resolved` calls).
    """
    with H5LiteFile(path, "r") as fh:
        entry = _depth_resolved_entry(fh, path)
        return _read_depth_resolved(entry), entry.get_json_attr(RUN_RECORD_ATTR)
