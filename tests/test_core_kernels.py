"""Unit tests for the reconstruction kernel bodies."""

import numpy as np
import pytest

from repro.core.backends.base import build_kernel_context
from repro.core.config import DifferenceMode, ReconstructionConfig
from repro.core.kernels import (
    depth_resolve_chunk_fused,
    depth_resolve_chunk_scalar,
    depth_resolve_element,
    make_set_two_kernel,
    set_two_vectorized,
)
from repro.cudasim.kernel import LaunchConfig
from repro.geometry.wire import WireEdge
from repro.utils.validation import ValidationError


@pytest.fixture()
def context_and_grid(point_source_stack, depth_grid):
    stack, _source = point_source_stack
    config = ReconstructionConfig(grid=depth_grid)
    return build_kernel_context(stack, config), depth_grid


class TestKernelContext:
    def test_dimensions(self, context_and_grid):
        ctx, _ = context_and_grid
        assert ctx.n_positions == ctx.images.shape[0]
        assert ctx.n_steps == ctx.n_positions - 1
        assert ctx.back_edge_yz.shape == (ctx.n_rows, 2)

    def test_signed_difference_scalar_matches_array(self, context_and_grid):
        ctx, _ = context_and_grid
        diffs = ctx.signed_differences()
        assert np.isclose(ctx.signed_difference(3, 2, 1), diffs[3, 2, 1])

    def test_trailing_edge_flips_sign(self, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        leading = build_kernel_context(stack, ReconstructionConfig(grid=depth_grid, wire_edge=WireEdge.LEADING))
        trailing = build_kernel_context(stack, ReconstructionConfig(grid=depth_grid, wire_edge=WireEdge.TRAILING))
        np.testing.assert_allclose(leading.signed_differences(), -trailing.signed_differences())

    def test_rectified_mode_clamps(self, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        config = ReconstructionConfig(grid=depth_grid, difference_mode=DifferenceMode.RECTIFIED)
        ctx = build_kernel_context(stack, config)
        assert np.all(ctx.signed_differences() >= 0)


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
        diffs = ctx.signed_differences()
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
        assert out.sum() <= np.abs(ctx.signed_differences()).sum() + 1e-9

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
