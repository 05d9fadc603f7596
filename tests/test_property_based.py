"""Property-based tests (hypothesis) for the core invariants.

These complement the example-based unit tests by exploring the input space of
the geometric primitives, the trapezoid integrals and the accumulation
buffers.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.depth_grid import DepthGrid
from repro.core.depth_mapping import critical_wire_z_for_depth, pixel_yz_to_depth_scalar
from repro.core.trapezoid import (
    MIN_TRAPEZOID_AREA,
    _edge_overlaps,
    trapezoid_bin_overlaps,
    trapezoid_from_depths,
    trapezoid_height,
    trapezoid_overlap,
)
from repro.cudasim.atomic import atomic_add
from repro.cudasim.kernel import LaunchConfig
from repro.geometry.rotations import is_rotation_matrix, quaternion_to_matrix, rotation_about_axis
from repro.geometry.wire import Wire
from repro.io.h5lite import H5LiteFile

# keep hypothesis fast and deterministic enough for CI-style runs
COMMON_SETTINGS = {"max_examples": 60, "deadline": None}


# --------------------------------------------------------------------------- #
# trapezoid invariants
corner_strategy = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=4,
    max_size=4,
)


@settings(**COMMON_SETTINGS)
@given(corners=corner_strategy)
def test_trapezoid_height_bounded(corners):
    trap = trapezoid_from_depths(*corners)
    xs = np.linspace(trap.d1 - 10, trap.d4 + 10, 101)
    heights = trapezoid_height(xs, trap.d1, trap.d2, trap.d3, trap.d4)
    assert np.all((heights >= 0.0) & (heights <= 1.0))
    # zero outside the support
    assert trapezoid_height(trap.d1 - 1.0, trap.d1, trap.d2, trap.d3, trap.d4) == 0.0
    assert trapezoid_height(trap.d4 + 1.0, trap.d1, trap.d2, trap.d3, trap.d4) == 0.0


@settings(**COMMON_SETTINGS)
@given(corners=corner_strategy)
def test_trapezoid_bin_overlaps_sum_to_area(corners):
    trap = trapezoid_from_depths(*corners)
    grid = DepthGrid.from_range(trap.d1 - 5.0, trap.d4 + 5.0, 64)
    overlaps = trapezoid_bin_overlaps(grid, trap.d1, trap.d2, trap.d3, trap.d4)
    assert np.all(overlaps >= -1e-12)
    assert np.isclose(overlaps.sum(), trap.area, rtol=1e-9, atol=1e-9)


@settings(**COMMON_SETTINGS)
@given(
    corners=corner_strategy,
    intensity=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
)
def test_distribute_intensity_conserves_signal(corners, intensity):
    trap = trapezoid_from_depths(*corners)
    grid = DepthGrid.from_range(trap.d1 - 1.0, trap.d4 + 1.0, 32)
    overlaps = trapezoid_bin_overlaps(grid, trap.d1, trap.d2, trap.d3, trap.d4)
    if trap.area > MIN_TRAPEZOID_AREA:
        # the kernels' per-bin weights: intensity * overlap / area
        weights = intensity * overlaps / trap.area
        assert np.isclose(weights.sum(), intensity, rtol=1e-7, atol=1e-7)
    else:
        assert np.allclose(overlaps, 0.0)


@settings(**COMMON_SETTINGS)
@given(
    corners=st.lists(corner_strategy, min_size=1, max_size=6),
    start=st.floats(min_value=-1e3, max_value=1e3),
    step=st.floats(min_value=1e-3, max_value=1e2),
    n_bins=st.integers(1, 40),
    width=st.integers(1, 40),
    firsts=st.lists(st.integers(0, 40), min_size=6, max_size=6),
)
# a window past the grid's last bin, shifted left to end on it, beside one
# that fits
@example(
    corners=[[1.0, 2.0, 3.0, 4.0], [-5.0, 0.5, 7.0, 9.5]],
    start=0.0,
    step=1.0,
    n_bins=8,
    width=3,
    firsts=[7, 1, 0, 0, 0, 0],
)
def test_window_overlaps_match_per_bin_integrals(corners, start, step, n_bins, width, firsts):
    """The fused kernel's windows: one integral pass at a window's
    ``width + 1`` edges, differenced, is :func:`trapezoid_overlap` at each
    bin's own two edges, bit for bit, for windows the kernel shifts left
    against the grid's last bin too.  No overlap is negative: the kernel
    adds a finite value's +-0.0 weight in a bin the scalar loop skips
    (overlap <= 0), which a negative overlap would make nonzero."""
    d1, d2, d3, d4 = np.sort(np.array(corners, dtype=np.float64), axis=1).T
    grid = DepthGrid(start=start, step=step, n_bins=n_bins)
    width = min(width, n_bins)
    first = np.minimum(firsts[: d1.size], n_bins)
    # bin-major window edges, built as depth_resolve_chunk_fused builds them
    window_edges = np.minimum(first, n_bins - width) + np.arange(width + 1)[:, None]
    overlaps = _edge_overlaps(grid.edges[window_edges], d1, d2, d3, d4)
    assert overlaps.shape == (width, d1.size)
    assert (overlaps >= 0.0).all()
    for k in range(width):
        lo, hi = grid.edges[window_edges[k]], grid.edges[window_edges[k + 1]]
        expected = trapezoid_overlap(lo, hi, d1, d2, d3, d4)
        assert overlaps[k].tobytes() == expected.tobytes(), k


# --------------------------------------------------------------------------- #
# depth mapping inverse property
@settings(**COMMON_SETTINGS)
@given(
    pixel_z=st.floats(min_value=-30_000.0, max_value=30_000.0),
    depth=st.floats(min_value=-50.0, max_value=200.0),
    radius=st.floats(min_value=1.0, max_value=500.0),
    edge=st.sampled_from([1, -1]),
)
def test_depth_mapping_inverse(pixel_z, depth, radius, edge):
    pixel_y = 510_000.0
    wire_y = 1_500.0
    wire_z = float(critical_wire_z_for_depth(depth, pixel_y, pixel_z, wire_y, radius, edge))
    recovered = pixel_yz_to_depth_scalar(pixel_y, pixel_z, wire_y, wire_z, radius, edge)
    assert np.isclose(recovered, depth, rtol=1e-6, atol=1e-5)


@settings(**COMMON_SETTINGS)
@given(
    pixel_z=st.floats(min_value=-30_000.0, max_value=30_000.0),
    wire_z=st.floats(min_value=-2_000.0, max_value=2_000.0),
    radius=st.floats(min_value=1.0, max_value=500.0),
)
def test_leading_edge_always_deeper(pixel_z, wire_z, radius):
    pixel_y, wire_y = 510_000.0, 1_500.0
    leading = pixel_yz_to_depth_scalar(pixel_y, pixel_z, wire_y, wire_z, radius, 1)
    trailing = pixel_yz_to_depth_scalar(pixel_y, pixel_z, wire_y, wire_z, radius, -1)
    assert leading > trailing


# --------------------------------------------------------------------------- #
# occlusion consistency: the geometric occlusion test and the tangent-depth
# critical depth must agree about which side of the boundary a source is on
@settings(**COMMON_SETTINGS)
@given(
    pixel_z=st.floats(min_value=-20_000.0, max_value=20_000.0),
    wire_z=st.floats(min_value=-500.0, max_value=500.0),
    offset=st.floats(min_value=1.0, max_value=50.0),
)
def test_occlusion_consistent_with_critical_depths(pixel_z, wire_z, offset):
    pixel_y, wire_y, radius = 510_000.0, 1_500.0, 100.0
    wire = Wire(radius=radius)
    d_lead = pixel_yz_to_depth_scalar(pixel_y, pixel_z, wire_y, wire_z, radius, 1)
    d_trail = pixel_yz_to_depth_scalar(pixel_y, pixel_z, wire_y, wire_z, radius, -1)
    # depths strictly between the two tangent depths are occluded; depths
    # outside (with a margin) are visible
    inside = 0.5 * (d_lead + d_trail)
    outside_deep = d_lead + offset
    outside_shallow = d_trail - offset
    pixel = np.array([pixel_y, pixel_z])
    center = np.array([wire_y, wire_z])
    assert bool(wire.occludes(np.array([0.0, inside]), pixel, center))
    assert not bool(wire.occludes(np.array([0.0, outside_deep]), pixel, center))
    assert not bool(wire.occludes(np.array([0.0, outside_shallow]), pixel, center))


# --------------------------------------------------------------------------- #
# rotations
@settings(**COMMON_SETTINGS)
@given(seed=st.integers(0, 2**31 - 1))
def test_random_rotation_roundtrip(seed):
    from repro.geometry.rotations import random_rotation

    rng = np.random.default_rng(seed)
    rot = random_rotation(rng)
    assert is_rotation_matrix(rot)
    axis = rng.normal(size=3)
    angle = rng.uniform(-np.pi, np.pi)
    q = np.append(axis / np.linalg.norm(axis) * np.sin(angle / 2), np.cos(angle / 2))
    np.testing.assert_allclose(quaternion_to_matrix(q), rotation_about_axis(axis, angle), atol=1e-9)


# --------------------------------------------------------------------------- #
# atomic accumulation
@settings(**COMMON_SETTINGS)
@given(
    size=st.integers(1, 32),
    n_updates=st.integers(0, 200),
    seed=st.integers(0, 2**31 - 1),
)
def test_atomic_add_equals_serial_accumulation(size, n_updates, seed):
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, size, size=n_updates)
    values = rng.normal(size=n_updates)
    fast = np.zeros(size)
    atomic_add(fast, indices, values)
    slow = np.zeros(size)
    for i, v in zip(indices, values):
        slow[i] += v
    np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-10)


# --------------------------------------------------------------------------- #
# launch config
@settings(**COMMON_SETTINGS)
@given(
    nx=st.integers(1, 64),
    ny=st.integers(1, 64),
    nz=st.integers(1, 16),
    bx=st.integers(1, 16),
    by=st.integers(1, 8),
    bz=st.integers(1, 8),
)
def test_launch_config_covers_volume(nx, ny, nz, bx, by, bz):
    cfg = LaunchConfig.for_volume((nx, ny, nz), block_dim=(bx, by, bz))
    ex, ey, ez = cfg.thread_extent()
    assert ex >= nx and ey >= ny and ez >= nz
    # the overhang is less than one block in each direction
    assert ex - nx < bx and ey - ny < by and ez - nz < bz
    assert cfg.total_threads == ex * ey * ez


# --------------------------------------------------------------------------- #
# h5lite roundtrip
@settings(max_examples=25, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 5), st.integers(1, 4)),
    chunk=st.one_of(st.none(), st.integers(1, 4)),
    seed=st.integers(0, 2**31 - 1),
)
def test_h5lite_roundtrip_property(tmp_path_factory, shape, chunk, seed):
    data = np.random.default_rng(seed).normal(size=shape)
    path = tmp_path_factory.mktemp("h5lite") / "prop.h5lite"
    with H5LiteFile(path, "w") as fh:
        fh.create_dataset("entry/data", data, chunk_rows=chunk)
    with H5LiteFile(path, "r") as fh:
        np.testing.assert_array_equal(fh["entry/data"][...], data)
        start = shape[0] // 2
        np.testing.assert_array_equal(fh["entry/data"][start:], data[start:])


# --------------------------------------------------------------------------- #
# depth grid
@settings(**COMMON_SETTINGS)
@given(
    start=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    step=st.floats(min_value=1e-3, max_value=1e2, allow_nan=False),
    n_bins=st.integers(1, 200),
    data=st.data(),
)
def test_depth_grid_index_roundtrip(start, step, n_bins, data):
    grid = DepthGrid(start=start, step=step, n_bins=n_bins)
    index = data.draw(st.integers(0, n_bins - 1))
    depth = float(grid.index_to_depth(index))
    assert int(grid.depth_to_index(depth)) == index
    assert grid.contains(depth)
