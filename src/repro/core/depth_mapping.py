"""Mapping detector pixels to depths along the incident beam.

This module implements the geometric heart of the reconstruction — the
analogue of the paper's ``device_pixel_xyz_to_depth`` function (its
``device_index_to_beam_depth`` is
:meth:`repro.core.depth_grid.DepthGrid.index_to_depth`).

Given a detector pixel P, a wire centre C (radius r) and the choice of wire
edge, the ray that leaves the sample, grazes that edge of the wire and lands
on P is unique.  Extending that tangent ray back to the incident-beam line
gives the *critical depth*: source points shallower/deeper than it are
visible/occluded (or vice versa, depending on the edge).  Every quantity is
computed in the (y, z) plane perpendicular to the wire axis, using exactly
the intermediate quantities named in the paper's kernel
(``pixel_to_wireCenter_y``, ``pixel_to_wireCenter_z``,
``pixel_to_wireCenter_len``, ``wire_radius``, ``Dphi``, ``Depth``).

Scalar and fully vectorised (NumPy broadcasting) forms are provided.  The
vectorised form builds the per-run trapezoid table every backend reads
(:func:`repro.core.kernels._trapezoid_table`), so it is the only one on the
reconstruction path.  The scalar form is the line-for-line analogue of the
CUDA per-thread code; tests cross-check the two to about 1e-9 µm, not
bitwise, because NumPy's vectorised transcendental functions and ``math``'s
may round the last bit differently.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.wire import WireEdge
from repro.utils.validation import ValidationError

__all__ = [
    "pixel_yz_to_depth",
    "pixel_yz_to_depth_scalar",
    "critical_wire_z_for_depth",
]


def pixel_yz_to_depth_scalar(
    pixel_y: float,
    pixel_z: float,
    wire_y: float,
    wire_z: float,
    wire_radius: float,
    edge: int = WireEdge.LEADING,
) -> float:
    """Scalar critical-depth computation (one pixel, one wire position).

    This is a line-for-line analogue of ``device_pixel_xyz_to_depth``,
    written with ``math`` scalars in the per-thread CUDA code's operation
    order.  It documents the geometry; the reconstruction itself reads the
    critical depths from the per-run table :func:`pixel_yz_to_depth` builds.

    Parameters
    ----------
    pixel_y, pixel_z:
        Pixel-centre (or pixel-edge) coordinates in the (y, z) occlusion
        plane, micrometres.
    wire_y, wire_z:
        Wire-centre coordinates in the same plane.
    wire_radius:
        Wire radius, micrometres.
    edge:
        +1 for the leading (+z side) edge, -1 for the trailing edge.

    Returns
    -------
    float
        Depth along the beam (z of the intersection of the tangent ray with
        the beam line y = 0), or NaN if the tangent ray does not intersect
        the beam on the sample side.
    """
    pixel_to_wire_y = wire_y - pixel_y
    pixel_to_wire_z = wire_z - pixel_z
    pixel_to_wire_len = math.hypot(pixel_to_wire_y, pixel_to_wire_z)
    if pixel_to_wire_len <= wire_radius:
        return math.nan
    dphi = math.asin(wire_radius / pixel_to_wire_len)
    theta = math.atan2(pixel_to_wire_z, pixel_to_wire_y)
    angle = theta - float(int(edge)) * dphi
    u_y = math.cos(angle)
    u_z = math.sin(angle)
    if u_y >= 0.0:
        # the tangent ray does not travel downwards towards the beam
        return math.nan
    t = -pixel_y / u_y
    if t <= 0.0:
        return math.nan
    return pixel_z + t * u_z


def pixel_yz_to_depth(
    pixel_y: np.ndarray,
    pixel_z: np.ndarray,
    wire_y: np.ndarray,
    wire_z: np.ndarray,
    wire_radius: float,
    edge: int = WireEdge.LEADING,
) -> np.ndarray:
    """Vectorised critical-depth computation.

    All coordinate arguments broadcast against each other; the result has the
    broadcast shape.  Invalid geometries (pixel inside the wire, tangent ray
    missing the beam) yield NaN.
    """
    pixel_y = np.asarray(pixel_y, dtype=np.float64)
    pixel_z = np.asarray(pixel_z, dtype=np.float64)
    wire_y = np.asarray(wire_y, dtype=np.float64)
    wire_z = np.asarray(wire_z, dtype=np.float64)
    if wire_radius <= 0:
        raise ValidationError("wire_radius must be positive")

    pixel_to_wire_y = wire_y - pixel_y
    pixel_to_wire_z = wire_z - pixel_z
    pixel_to_wire_len = np.hypot(pixel_to_wire_y, pixel_to_wire_z)

    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(pixel_to_wire_len > wire_radius, wire_radius / pixel_to_wire_len, np.nan)
        dphi = np.arcsin(ratio)
        theta = np.arctan2(pixel_to_wire_z, pixel_to_wire_y)
        angle = theta - float(int(edge)) * dphi
        u_y = np.cos(angle)
        u_z = np.sin(angle)
        t = np.where(u_y < 0.0, -pixel_y / u_y, np.nan)
        depth = np.where(t > 0.0, pixel_z + t * u_z, np.nan)
    return depth


def critical_wire_z_for_depth(
    depth: np.ndarray,
    pixel_y: np.ndarray,
    pixel_z: np.ndarray,
    wire_y: float,
    wire_radius: float,
    edge: int = WireEdge.LEADING,
) -> np.ndarray:
    """Wire-centre z at which the ray (depth → pixel) grazes the given edge.

    This is the inverse problem of :func:`pixel_yz_to_depth` for a wire
    constrained to a horizontal trajectory at height *wire_y*: it answers
    "where must the wire centre be for the source at *depth* to be exactly on
    the shadow boundary of this pixel?".  The synthetic forward model and the
    scan-design helpers use it; it also gives a strong analytic test of
    :func:`pixel_yz_to_depth` (the two must be mutual inverses).
    """
    depth = np.asarray(depth, dtype=np.float64)
    pixel_y = np.asarray(pixel_y, dtype=np.float64)
    pixel_z = np.asarray(pixel_z, dtype=np.float64)

    # Ray from source (0, depth) to pixel (pixel_y, pixel_z):
    # point at height wire_y:  z_ray = depth + (pixel_z - depth) * wire_y / pixel_y
    # direction angle in (y, z): alpha = atan2(pixel_z - depth, pixel_y)
    # The wire centre must sit at perpendicular distance r from this ray, on
    # the +z side for the leading edge (-z for trailing):
    #   z_wire = z_ray + edge * r / cos(alpha_component)
    # where the offset along z of a point at distance r perpendicular to the
    # ray is r / sin(angle between ray and z axis) ... derived via the ray
    # normal n = (-sin(alpha), cos(alpha)) scaled so its y component is zero
    # at the wire height: offset_z = r / cos(alpha') with alpha' the angle of
    # the ray to the y axis.
    ray_dy = pixel_y  # from source to pixel
    ray_dz = pixel_z - depth
    ray_len = np.hypot(ray_dy, ray_dz)
    z_ray_at_wire = depth + ray_dz * (wire_y / pixel_y)
    # Moving the wire centre purely along z by Δ changes its perpendicular
    # distance to the ray by Δ * |dy| / len, so Δ = r * len / dy for
    # distance r.  For the leading (+z side) edge the ray passes on the +z
    # side of the centre, i.e. the centre sits at z_ray - Δ.
    offset = wire_radius * ray_len / ray_dy
    return z_ray_at_wire - float(int(edge)) * offset
