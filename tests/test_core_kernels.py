"""Unit tests for the reconstruction kernel bodies."""

import numpy as np
import pytest

from repro.core.config import DifferenceMode, ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.core.depth_mapping import pixel_yz_to_depth
from repro.core.engine import StackChunkSource, build_chunk_context, build_execution_plan
from repro.core.kernels import (
    KernelContext,
    _step_span,
    _trapezoid_table,
    depth_resolve_chunk_fused,
    depth_resolve_chunk_scalar,
    depth_resolve_element,
    make_set_two_kernel,
    set_two_vectorized,
)
from repro.core.trapezoid import MIN_TRAPEZOID_AREA, trapezoid_area
from repro.cudasim.kernel import LaunchConfig
from repro.geometry.detector import Detector
from repro.geometry.wire import Wire, WireEdge
from repro.synthetic.forward_model import design_scan_for_depth_range
from repro.utils.validation import ValidationError


def _context(stack, config):
    """The kernel context of every row of *stack*, as an engine run builds it."""
    source = StackChunkSource(stack)
    plan = build_execution_plan(source, config)
    return build_chunk_context(source, config, plan, 0, source.n_rows)


def _differences(ctx):
    """Every element's edge-signed difference, from the scalar accessor."""
    return np.array([
        [[ctx.signed_difference(step, row, col) for col in range(ctx.n_cols)]
         for row in range(ctx.n_rows)]
        for step in range(ctx.n_steps)
    ])


@pytest.fixture()
def context_and_grid(point_source_stack, depth_grid):
    stack, _source = point_source_stack
    config = ReconstructionConfig(grid=depth_grid)
    return _context(stack, config), depth_grid


class TestKernelContext:
    def test_dimensions(self, context_and_grid):
        ctx, _ = context_and_grid
        assert ctx.n_positions == ctx.images.shape[0]
        assert ctx.n_steps == ctx.n_positions - 1
        assert ctx.back_edge_yz.shape == (ctx.n_rows, 2)

    def test_signed_difference_scalar_matches_array(self, context_and_grid):
        ctx, _ = context_and_grid
        diffs = ctx.images[:-1] - ctx.images[1:]  # leading edge: I[i] - I[i+1]
        assert ctx.signed_difference(3, 2, 1) == diffs[3, 2, 1]
        assert np.array_equal(_differences(ctx), diffs)

    def test_trailing_edge_flips_sign(self, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        leading = _context(stack, ReconstructionConfig(grid=depth_grid, wire_edge=WireEdge.LEADING))
        trailing = _context(stack, ReconstructionConfig(grid=depth_grid, wire_edge=WireEdge.TRAILING))
        np.testing.assert_allclose(_differences(leading), -_differences(trailing))

    def test_rectified_mode_clamps(self, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        config = ReconstructionConfig(grid=depth_grid, difference_mode=DifferenceMode.RECTIFIED)
        ctx = _context(stack, config)
        assert np.all(_differences(ctx) >= 0)


def _trimmed(ctx, position_start, position_stop):
    """*ctx* with only positions ``position_start:position_stop`` of its slab."""
    return KernelContext(
        images=ctx.images[position_start:position_stop],
        back_edge_yz=ctx.back_edge_yz,
        front_edge_yz=ctx.front_edge_yz,
        wire_positions_yz=ctx.wire_positions_yz,
        trapezoids=ctx.trapezoids,
        grid=ctx.grid,
        wire_edge=ctx.wire_edge,
        difference_mode=ctx.difference_mode,
        intensity_cutoff=ctx.intensity_cutoff,
        mask=ctx.mask,
        position_start=position_start,
    )


class TestTrimmedSlab:
    """A slab may hold only the positions its rows' span of usable steps
    differences; ``position_start`` says which, and no step may read a
    position the slab does not hold."""

    def test_span_slab_equals_the_full_slab(self, context_and_grid):
        ctx, grid = context_and_grid
        s0, s1 = _step_span(ctx.trapezoids[5], slice(None))
        assert 0 < s0 < s1 < ctx.n_steps  # the point-source scan trims both ends
        trimmed = _trimmed(ctx, s0, s1 + 1)
        assert trimmed.n_steps == ctx.n_steps and trimmed.n_positions == s1 + 1 - s0
        full = np.zeros((grid.n_bins, ctx.n_rows, ctx.n_cols))
        span = np.zeros_like(full)
        assert depth_resolve_chunk_fused(trimmed, span) == depth_resolve_chunk_fused(ctx, full)
        assert np.array_equal(span, full)
        assert trimmed.signed_difference(s0, 2, 1) == ctx.signed_difference(s0, 2, 1)

    @pytest.mark.parametrize(
        "position_start,n_images", [(-1, 3), (1, None)], ids=["negative-start", "past-the-table"]
    )
    def test_context_refuses_a_slab_outside_the_table(
        self, context_and_grid, position_start, n_images
    ):
        ctx, _ = context_and_grid
        with pytest.raises(ValidationError, match="does not fit the .* positions"):
            KernelContext(
                images=ctx.images[:n_images],
                back_edge_yz=ctx.back_edge_yz,
                front_edge_yz=ctx.front_edge_yz,
                wire_positions_yz=ctx.wire_positions_yz,
                trapezoids=ctx.trapezoids,
                grid=ctx.grid,
                position_start=position_start,
            )

    @pytest.mark.parametrize("cut", ["first", "last"])
    def test_fused_kernel_refuses_a_span_outside_the_slab(self, context_and_grid, cut):
        """A slab one position short of the span would wrap a negative index
        or read short; the kernel raises and writes nothing."""
        ctx, grid = context_and_grid
        s0, s1 = _step_span(ctx.trapezoids[5], slice(None))
        trimmed = _trimmed(ctx, s0 + 1, s1 + 1) if cut == "first" else _trimmed(ctx, s0, s1)
        out = np.zeros((grid.n_bins, ctx.n_rows, ctx.n_cols))
        with pytest.raises(ValidationError, match="outside the slab"):
            depth_resolve_chunk_fused(trimmed, out)
        assert not out.any()

    def test_signed_difference_refuses_a_step_outside_the_slab(self, context_and_grid):
        ctx, _ = context_and_grid
        trimmed = _trimmed(ctx, 2, 10)
        assert trimmed.signed_difference(8, 1, 1) == ctx.signed_difference(8, 1, 1)
        for step in (1, 9):  # reads position 1, or position 10
            with pytest.raises(ValidationError, match="outside the slab"):
                trimmed.signed_difference(step, 1, 1)


class TestScalarVsVectorized:
    def test_chunk_scalar_equals_vectorized(self, context_and_grid):
        ctx, grid = context_and_grid
        out_scalar = np.zeros((grid.n_bins, ctx.n_rows, ctx.n_cols))
        out_vector = np.zeros_like(out_scalar)
        n_active_scalar = depth_resolve_chunk_scalar(ctx, out_scalar)
        n_active_vector = depth_resolve_chunk_fused(ctx, out_vector)
        assert np.array_equal(out_vector, out_scalar)
        assert n_active_scalar == n_active_vector

    def test_set_two_vectorized_equals_chunk(self, context_and_grid):
        ctx, grid = context_and_grid
        out_chunk = np.zeros((grid.n_bins, ctx.n_rows, ctx.n_cols))
        n_active = depth_resolve_chunk_fused(ctx, out_chunk)

        out_threads = np.zeros_like(out_chunk)
        counter = np.zeros(1, dtype=np.int64)
        cfg = LaunchConfig.for_volume((ctx.n_cols, ctx.n_rows, ctx.n_steps), block_dim=(4, 2, 4))
        ix, iy, iz = cfg.thread_indices()
        set_two_vectorized(ix, iy, iz, ctx, out_threads, counter)
        assert np.array_equal(out_threads, out_chunk)
        assert counter[0] == n_active

    @pytest.mark.parametrize("short_axis", [0, 1, 2])
    def test_set_two_vectorized_rejects_a_short_lattice(self, context_and_grid, short_axis):
        """A lattice that misses part of the (cols, rows, steps) volume raises
        instead of silently distributing only the covered elements."""
        ctx, grid = context_and_grid
        volume = [ctx.n_cols, ctx.n_rows, ctx.n_steps]
        volume[short_axis] -= 1
        ix, iy, iz = LaunchConfig.for_volume(volume, block_dim=(1, 1, 1)).thread_indices()
        out = np.zeros((grid.n_bins, ctx.n_rows, ctx.n_cols))
        counter = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValidationError, match="does not cover"):
            set_two_vectorized(ix, iy, iz, ctx, out, counter)
        assert not out.any() and counter[0] == 0

    def test_small_batches_do_not_change_result(self, context_and_grid):
        ctx, grid = context_and_grid
        big = np.zeros((grid.n_bins, ctx.n_rows, ctx.n_cols))
        small = np.zeros_like(big)
        depth_resolve_chunk_fused(ctx, big, element_batch=1 << 20)
        depth_resolve_chunk_fused(ctx, small, element_batch=7)
        assert np.array_equal(small, big)


class TestElementBehaviour:
    def test_masked_pixel_contributes_nothing(self, context_and_grid):
        ctx, grid = context_and_grid
        ctx.mask = np.zeros((ctx.n_rows, ctx.n_cols), dtype=bool)
        out = np.zeros((grid.n_bins, ctx.n_rows, ctx.n_cols))
        assert depth_resolve_chunk_fused(ctx, out) == 0
        assert out.sum() == 0.0

    def test_cutoff_removes_small_differences(self, context_and_grid):
        ctx, grid = context_and_grid
        ctx.intensity_cutoff = 1e12  # absurdly high
        out = np.zeros((grid.n_bins, ctx.n_rows, ctx.n_cols))
        assert depth_resolve_chunk_fused(ctx, out) == 0

    def test_single_element_deposit_is_conserving(self, context_and_grid):
        ctx, grid = context_and_grid
        diffs = _differences(ctx)
        step, row, col = np.unravel_index(np.argmax(np.abs(diffs)), diffs.shape)
        out = np.zeros((grid.n_bins, ctx.n_rows, ctx.n_cols))
        assert depth_resolve_element(ctx, int(col), int(row), int(step), out)
        deposited = out.sum()
        assert deposited != 0.0
        assert abs(deposited) <= abs(diffs[step, row, col]) + 1e-9

    def test_total_deposit_bounded_by_total_signal(self, context_and_grid):
        ctx, grid = context_and_grid
        out = np.zeros((grid.n_bins, ctx.n_rows, ctx.n_cols))
        depth_resolve_chunk_fused(ctx, out)
        assert out.sum() <= np.abs(_differences(ctx)).sum() + 1e-9

    def test_deposits_land_in_correct_pixel_column(self, context_and_grid):
        # each (row, col) element only ever writes to its own (row, col)
        ctx, grid = context_and_grid
        out = np.zeros((grid.n_bins, ctx.n_rows, ctx.n_cols))
        mask = np.zeros((ctx.n_rows, ctx.n_cols), dtype=bool)
        mask[2, 3] = True
        ctx.mask = mask
        depth_resolve_chunk_fused(ctx, out)
        others = out.copy()
        others[:, 2, 3] = 0.0
        assert others.sum() == 0.0
        assert out[:, 2, 3].sum() > 0.0


class TestKernelFactory:
    def test_make_set_two_kernel_has_both_bodies(self):
        kernel = make_set_two_kernel()
        assert kernel.per_thread is not None
        assert kernel.vectorized is not None
        assert kernel.name == "setTwo"

    def test_extra_flops_added(self):
        base = make_set_two_kernel()
        extra = make_set_two_kernel(extra_flops_per_thread=10.0)
        assert extra.flops_per_thread == base.flops_per_thread + 10.0


def _four_solve_table(back, front, wire, radius, edge, grid):
    """The trapezoid table by its definition: the ``setTwo`` kernel's four
    critical-depth solves of every step, ``partial_start``,
    ``partial_end``, ``full_start`` and ``full_end``, step by step."""
    def solve(pixel_edges, position):
        y, z = wire[position]
        return pixel_yz_to_depth(pixel_edges[:, 0], pixel_edges[:, 1], y, z, radius, int(edge))

    steps = range(len(wire) - 1)
    partial_start = np.array([solve(front, s) for s in steps])
    partial_end = np.array([solve(back, s + 1) for s in steps])
    full_start = np.array([solve(back, s) for s in steps])
    full_end = np.array([solve(front, s + 1) for s in steps])
    corners = np.stack([partial_start, partial_end, full_start, full_end])
    corners_valid = np.all(np.isfinite(corners), axis=0)
    d1, d2, d3, d4 = np.sort(corners, axis=0)
    area = trapezoid_area(d1, d2, d3, d4)
    active = corners_valid & (area > MIN_TRAPEZOID_AREA) & (d4 > grid.start) & (d1 < grid.stop)
    return d1, d2, d3, d4, area, active


class TestTrapezoidTable:
    """The table solves each pixel edge's critical depth once per wire
    position, which the two steps beside it share; it must equal the four
    solves per step of the definition byte for byte, in all six arrays."""

    GRID = DepthGrid.from_range(0.0, 100.0, 25)

    @pytest.fixture(scope="class")
    def geometry(self):
        """A full-height detector column's pixel edges at the benchmark
        scans' geometry, plus two rows whose edges lie inside the wire at
        some of its positions."""
        detector = Detector(n_rows=87, n_cols=2, pixel_size=200.0, distance=510_000.0)
        scan = design_scan_for_depth_range(
            detector, (0.0, 100.0), wire=Wire(radius=26.0), n_points=49
        )
        wire = np.asarray(scan.positions, dtype=np.float64)
        back, front = detector.row_edges_yz(np.arange(detector.n_rows))
        inside = wire[[10, 30]] + [3.0, 0.0]
        back = np.vstack([back, inside])
        front = np.vstack([front, inside + [0.0, 40.0]])
        return back, front, wire, scan.wire.radius

    @pytest.mark.parametrize("edge", [WireEdge.LEADING, WireEdge.TRAILING])
    def test_equals_the_four_solve_definition(self, geometry, edge):
        back, front, wire, radius = geometry
        table = _trapezoid_table(back, front, wire, radius, edge, self.GRID)
        expected = _four_solve_table(back, front, wire, radius, edge, self.GRID)
        for name, part, want in zip(("d1", "d2", "d3", "d4", "area", "active"), table, expected):
            assert part.shape == (len(wire) - 1, len(back)), name
            assert part.dtype == want.dtype and part.tobytes() == want.tobytes(), name
        # the edges inside the wire leave NaN corners, and those pairs unusable
        d1, d2, d3, d4, _area, active = table
        nan_pairs = np.isnan(np.stack([d1, d2, d3, d4])).any(axis=0)
        assert nan_pairs[:, -2:].any() and not active[nan_pairs].any()
        assert not nan_pairs[:, :-2].any()
