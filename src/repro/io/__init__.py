"""File input/output.

The original pipeline reads wire-scan detector images from HDF5 files and
writes depth-resolved results back to disk (HDF5 and text).  ``h5py`` is not
available in this offline environment, so ``h5lite`` implements a small,
self-contained hierarchical container with the features the pipeline needs:
groups, n-dimensional datasets, attributes and chunked storage along the
leading axis.  ``image_stack`` maps the experiment objects to/from that
container, ``streaming`` reads a scan's detector-row windows for every
file run (``Dataset.read_window``, never the whole cube), and
``text_output`` reproduces the per-pixel depth-profile text files the CPU
side of the original program produces.  Experiment metadata has no schema of
its own: a stack's free-form ``metadata`` dict is stored as ``meta_*``
attributes of the file's ``/entry`` group and read back unchanged.
"""

from repro.io.h5lite import H5LiteFile, Dataset, Group, H5LiteError
from repro.io.image_stack import (
    save_wire_scan,
    load_wire_scan,
    read_wire_scan_geometry,
    save_depth_resolved,
    load_depth_resolved,
)
from repro.io.streaming import StreamingWireScanSource
from repro.io.text_output import write_depth_profiles, read_depth_profiles

__all__ = [
    "H5LiteFile",
    "Dataset",
    "Group",
    "H5LiteError",
    "save_wire_scan",
    "load_wire_scan",
    "read_wire_scan_geometry",
    "StreamingWireScanSource",
    "save_depth_resolved",
    "load_depth_resolved",
    "write_depth_profiles",
    "read_depth_profiles",
]
