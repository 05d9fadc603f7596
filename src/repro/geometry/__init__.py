"""Experimental geometry for the wire-scan (DAXM) depth reconstruction.

Laboratory frame convention, used throughout the package:

* the incident X-ray beam travels along **+z**; depth ``d`` along the beam is
  measured from the lab origin, so the illuminated line inside the sample is
  ``(x=0, y=0, z=d)``;
* the occluding wire has its axis along **+x** and is scanned in the (y, z)
  plane between the sample and the detector;
* the area detector sits above the sample at ``y = distance`` with detector
  columns along **x** and detector rows along **z**.

Because the wire is an (effectively infinite) cylinder along x, all of the
occlusion geometry lives in the (y, z) plane — exactly the
``pixel_to_wireCenter_y / _z / _len`` formulation of the paper's CUDA kernel.
"""

from repro.geometry.rotations import rotation_about_axis, random_rotation
from repro.geometry.beam import Beam
from repro.geometry.detector import Detector
from repro.geometry.wire import Wire, WireEdge
from repro.geometry.scan import WireScan

__all__ = [
    "rotation_about_axis",
    "random_rotation",
    "Beam",
    "Detector",
    "Wire",
    "WireEdge",
    "WireScan",
]
