"""Out-of-core chunk source: stream row windows straight from an h5lite file.

``StreamingWireScanSource`` implements the engine's
:class:`~repro.core.engine.ChunkSource` protocol against a wire-scan file on
disk; it is how every file run reads its scan.  Geometry, mask and metadata
are read from the header once, and checked as a loaded
:class:`~repro.core.stack.WireScanStack` checks them; the image
cube itself is never materialised — each engine chunk triggers one windowed
read (:meth:`repro.io.h5lite.Dataset.read_window`) of the rows that chunk
processes, restricted to the range of wire positions its plan gives it: every
position, or on a trimmed plan only the positions the chunk's usable steps
difference (a chunk with no usable step is not read at all).  So the peak
resident image memory is one chunk slab (plus one full detector image during
the optional background pass); a host plan's default chunk is one
fused-kernel row block.

The source keeps simple accounting (``max_resident_rows``,
``n_window_reads``, ``bytes_read``) that the streaming tests and the batch
benchmark use to prove the out-of-core property.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.engine import ChunkSource, _require_canonical_beam
from repro.io.h5lite import H5LiteError, H5LiteFile
from repro.io.image_stack import _read_entry_geometry, _wire_scan_entry

__all__ = ["StreamingWireScanSource"]


class StreamingWireScanSource(ChunkSource):
    """Serves engine chunks from a wire-scan file without loading the cube.

    Each :meth:`load_window` (and :meth:`load_rows`, every position of a
    window) is one windowed read whose image rows land in place in a fresh
    slab.  The slab is never reused: the ``threads`` executor keeps several
    row bands of earlier windows in flight, and each band views its
    window's slab.  A file shorter than its header says raises
    :class:`~repro.io.h5lite.H5LiteError` from the read that reaches the
    missing bytes; a header whose images are not 3-D, or whose wire
    positions or pixel mask disagree with them, raises it on opening, and a
    beam the depth mapping cannot use raises
    :class:`~repro.utils.validation.ValidationError`.
    """

    out_of_core = True

    def __init__(self, path):
        self.path = path
        self._file = H5LiteFile(path, "r")
        entry = _wire_scan_entry(self._file, path)
        self.scan, self.detector, self.beam, self.metadata = _read_entry_geometry(entry)
        _require_canonical_beam(self.beam)
        self._images = entry["data/images"]
        if len(self._images.shape) != 3:
            raise H5LiteError(
                f"{path}: images must have shape (n_positions, n_rows, n_cols), "
                f"got {self._images.shape}"
            )
        n_positions, n_rows, n_cols = self._images.shape
        if (n_rows, n_cols) != self.detector.shape:
            raise H5LiteError(
                f"{path}: image shape {(n_rows, n_cols)} does not match detector shape "
                f"{self.detector.shape}"
            )
        if n_positions != self.scan.n_points:
            raise H5LiteError(
                f"{path}: {n_positions} images but {self.scan.n_points} wire positions"
            )
        self.n_positions = int(n_positions)
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.wire_positions_yz = self.scan.positions
        self.wire_radius = self.scan.wire.radius

        self._mask: Optional[np.ndarray] = None
        if "data/pixel_mask" in entry:
            # the mask is (n_rows, n_cols) uint8 — header-sized, keep resident
            self._mask = entry["data/pixel_mask"][...].astype(bool)
            if self._mask.shape != self.detector.shape:
                raise H5LiteError(
                    f"{path}: pixel_mask shape {self._mask.shape} does not match detector "
                    f"shape {self.detector.shape}"
                )

        #: largest number of detector rows resident from any single read
        self.max_resident_rows = 0
        #: number of windowed slab reads served
        self.n_window_reads = 0
        #: total image bytes read from disk
        self.bytes_read = 0

    # ------------------------------------------------------------------ #
    def row_edges_yz(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.detector.row_edges_yz(rows)

    def load_rows(self, row_start: int, row_stop: int) -> np.ndarray:
        return self.load_window(row_start, row_stop, 0, self.n_positions)

    def load_window(
        self, row_start: int, row_stop: int, position_start: int, position_stop: int
    ) -> np.ndarray:
        slab = self._images.read_window(position_start, position_stop, row_start, row_stop)
        self.n_window_reads += 1
        self.max_resident_rows = max(self.max_resident_rows, row_stop - row_start)
        self.bytes_read += int(slab.nbytes)
        return np.asarray(slab, dtype=np.float64)

    def mask_rows(self, row_start: int, row_stop: int) -> Optional[np.ndarray]:
        if self._mask is None:
            return None
        return self._mask[row_start:row_stop, :]

    def position_image(self, position: int) -> np.ndarray:
        image = self._images[position]
        self.bytes_read += int(image.nbytes)
        return np.asarray(image, dtype=np.float64)

    def describe(self) -> str:
        return (
            f"StreamingWireScanSource({self.path!r}, "
            f"{self.n_positions}x{self.n_rows}x{self.n_cols})"
        )

    # ------------------------------------------------------------------ #
    def accounting(self) -> Dict:
        """Read accounting for tests and benchmarks."""
        return {
            "max_resident_rows": self.max_resident_rows,
            "n_window_reads": self.n_window_reads,
            "bytes_read": self.bytes_read,
        }

    def accounting_note(self) -> str:
        """Report note proving the out-of-core property of the run.

        The session appends this to the run report after a streamed
        execution (the engine's chunk loop has finished by then, so the
        counters are final).
        """
        return (
            "streamed from disk: {n_window_reads} window read(s), "
            "peak {max_resident_rows} row(s) resident, {bytes_read} bytes read"
        ).format(**self.accounting())
