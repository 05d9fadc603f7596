"""Shared non-fixture helpers for the test-suite."""

from __future__ import annotations

import numpy as np

from repro.core.stack import WireScanStack
from repro.geometry.beam import Beam
from repro.geometry.detector import Detector
from repro.synthetic.forward_model import design_scan_for_depth_range

#: Every way to run a reconstruction, as config fields by label: the three
#: backends, and the vectorized backend on the ``threads`` executor, labelled
#: ``threaded`` like the retired backend that ran it.
RUNS = {
    "cpu_reference": {"backend": "cpu_reference"},
    "vectorized": {"backend": "vectorized"},
    "threaded": {"backend": "vectorized", "executor": "threads"},
    "gpusim": {"backend": "gpusim"},
}


def make_tiny_stack(n_rows: int = 3, n_cols: int = 2, n_positions: int = 9) -> WireScanStack:
    """Hand-rolled minimal stack used by tests that only need valid shapes."""
    detector = Detector(n_rows=n_rows, n_cols=n_cols, pixel_size=200.0, distance=510_000.0)
    scan = design_scan_for_depth_range(detector, (0.0, 100.0), n_points=n_positions)
    images = np.zeros((n_positions, n_rows, n_cols))
    images += np.linspace(10.0, 0.0, n_positions)[:, None, None]
    return WireScanStack(images=images, scan=scan, detector=detector, beam=Beam())
