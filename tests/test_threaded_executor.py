"""Threaded executor: identity, band planning, pool lifecycle, strategy plumbing.

The threaded backend's contract is **bitwise identity** with the serial
engine under any chunking, any band split and any worker count — plus the
properties that make threads worth having: view-only band dispatch (no slab
copies), a bounded number of bands in flight during streamed runs, and reuse
of one persistent thread pool across runs.
"""

import numpy as np
import pytest

from repro.core.backends import get_backend
from repro.core.backends.threaded import (
    ThreadedExecutor,
    _band_context,
    _reconstruct_band,
)
from repro.core.backends.base import build_kernel_context
from repro.core.config import AUTO, ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.core.engine import (
    StackChunkSource,
    execute,
    execute_backend,
    make_strategy_executor,
)
from repro.core.workerpool import (
    shared_thread_pool,
    shutdown_shared_thread_pool,
)
from repro.io.image_stack import save_wire_scan
from repro.io.streaming import StreamingWireScanSource
from tests.helpers import make_tiny_stack


@pytest.fixture(autouse=True)
def _fresh_thread_pool():
    yield
    shutdown_shared_thread_pool()


def _noisy_stack(n_rows=7, n_cols=5, n_positions=17, masked=False, seed=13):
    stack = make_tiny_stack(n_rows=n_rows, n_cols=n_cols, n_positions=n_positions)
    rng = np.random.default_rng(seed)
    stack.images = stack.images + rng.random(stack.images.shape) * 5.0
    if masked:
        stack.pixel_mask = rng.random((n_rows, n_cols)) > 0.3
    return stack


def _grid():
    return DepthGrid.from_range(0.0, 100.0, 20)


def _serial_reference(stack, grid, **config_kwargs):
    config = ReconstructionConfig(grid=grid, backend="vectorized", **config_kwargs)
    result, _report = execute(
        StackChunkSource(stack), config, make_strategy_executor(config)
    )
    return result


class TestIdentity:
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 8])
    def test_bitwise_identical_to_serial(self, n_workers):
        stack = _noisy_stack(masked=True)
        grid = _grid()
        reference = _serial_reference(stack, grid)
        config = ReconstructionConfig(grid=grid, backend="threaded", n_workers=n_workers)
        result, report = get_backend("threaded").reconstruct(stack, config)
        assert np.array_equal(reference.data, result.data)
        assert report.backend == "threaded"

    @pytest.mark.parametrize("rows_per_chunk", [1, 2, 3, 100])
    def test_bitwise_identical_chunked(self, rows_per_chunk):
        stack = _noisy_stack(masked=True)
        grid = _grid()
        reference = _serial_reference(stack, grid)
        config = ReconstructionConfig(
            grid=grid, backend="threaded", n_workers=2, rows_per_chunk=rows_per_chunk
        )
        result, _report = get_backend("threaded").reconstruct(stack, config)
        assert np.array_equal(reference.data, result.data)

    def test_bitwise_identical_streamed(self, tmp_path):
        stack = _noisy_stack(masked=True)
        grid = _grid()
        reference = _serial_reference(stack, grid)
        path = str(tmp_path / "scan.h5lite")
        save_wire_scan(path, stack)
        config = ReconstructionConfig(
            grid=grid, backend="threaded", n_workers=2, rows_per_chunk=2
        )
        source = StreamingWireScanSource(path)
        result, report = execute_backend(source, config)
        assert source.accounting()["max_resident_rows"] == 2
        assert report.n_chunks == 4  # ceil(7 / 2)
        assert np.array_equal(reference.data, result.data)

    def test_tiny_band_floor_does_not_change_result(self):
        """Forcing 1-row bands (floor disabled) still reproduces serial."""
        stack = _noisy_stack(masked=True)
        grid = _grid()
        reference = _serial_reference(stack, grid)
        config = ReconstructionConfig(grid=grid, backend="threaded", n_workers=4)
        executor = ThreadedExecutor(min_elements_per_dispatch=1)
        result, _report = execute(StackChunkSource(stack), config, executor)
        assert np.array_equal(reference.data, result.data)

    def test_background_subtraction_identical(self):
        stack = _noisy_stack(masked=True)
        grid = _grid()
        reference = _serial_reference(stack, grid, subtract_background=True)
        config = ReconstructionConfig(
            grid=grid, backend="threaded", n_workers=2, subtract_background=True
        )
        result, _report = get_backend("threaded").reconstruct(stack, config)
        assert np.array_equal(reference.data, result.data)


class TestBandDispatch:
    def test_band_context_is_view_only(self):
        """Band contexts must alias the chunk slab — copies would defeat threads."""
        stack = _noisy_stack(masked=True)
        config = ReconstructionConfig(grid=_grid())
        ctx = build_kernel_context(stack, config)
        band = _band_context(ctx, 2, 5)
        assert band.images.base is not None
        assert np.shares_memory(band.images, ctx.images)
        assert np.shares_memory(band.mask, ctx.mask)
        assert band.n_rows == 3

    def test_band_reconstruction_is_contiguous(self):
        stack = _noisy_stack()
        ctx = build_kernel_context(stack, ReconstructionConfig(grid=_grid()))
        out, _n_active = _reconstruct_band(_band_context(ctx, 1, 4))
        assert out.flags["C_CONTIGUOUS"]
        assert out.shape == (20, 3, stack.n_cols)

    def test_granularity_floor_coarsens_small_chunks(self):
        """A tiny chunk collapses to one band: no dispatch smaller than the floor."""
        stack = _noisy_stack(n_rows=6, n_cols=5, n_positions=9)
        grid = _grid()
        config = ReconstructionConfig(grid=grid, backend="threaded", n_workers=4)
        executor = ThreadedExecutor()
        source = StackChunkSource(stack)
        plan = executor.plan(source, config)
        executor.prepare(source, config, plan)
        ctx = build_kernel_context(stack, config)
        bands = executor._bands(ctx)
        # 8 * 6 * 5 = 240 elements << the 65536-element default floor
        assert bands == [(0, 6)]
        executor.close()

    def test_bounded_inflight_during_streamed_run(self, tmp_path):
        """A streamed run never queues more than 2 x workers bands."""
        stack = _noisy_stack(n_rows=12, n_cols=5, n_positions=9)
        path = str(tmp_path / "scan.h5lite")
        save_wire_scan(path, stack)
        config = ReconstructionConfig(
            grid=_grid(), backend="threaded", n_workers=2, rows_per_chunk=1
        )
        executor = ThreadedExecutor(min_elements_per_dispatch=1)
        source = StreamingWireScanSource(path)
        execute(source, config, executor)
        assert executor.peak_inflight <= 2 * 2

    def test_report_extras_count_bands_and_elements(self):
        stack = _noisy_stack(n_rows=8)
        config = ReconstructionConfig(grid=_grid(), backend="threaded", n_workers=2)
        executor = ThreadedExecutor(min_elements_per_dispatch=1)
        _result, report = execute(StackChunkSource(stack), config, executor)
        assert report.n_kernel_launches >= 2  # at least one band per worker
        assert report.n_threads_launched == 16 * 8 * stack.n_cols

    def test_worker_count_clamped_to_rows(self):
        stack = _noisy_stack(n_rows=3)
        config = ReconstructionConfig(grid=_grid(), backend="threaded", n_workers=16)
        executor = ThreadedExecutor()
        source = StackChunkSource(stack)
        executor.prepare(source, config, executor.plan(source, config))
        assert executor._n_workers == 3
        executor.close()


class TestPoolLifecycle:
    def test_shared_pool_reused_across_runs(self):
        stack = _noisy_stack()
        config = ReconstructionConfig(grid=_grid(), backend="threaded", n_workers=2)
        backend = get_backend("threaded")
        backend.reconstruct(stack, config)
        pool = shared_thread_pool(2)
        spawns_before = pool.n_spawns
        backend.reconstruct(stack, config)
        assert shared_thread_pool(2) is pool
        assert pool.n_spawns == spawns_before  # no new threadpool spawn

    def test_single_worker_runs_inline(self):
        stack = _noisy_stack()
        config = ReconstructionConfig(grid=_grid(), backend="threaded", n_workers=1)
        executor = ThreadedExecutor()
        source = StackChunkSource(stack)
        executor.prepare(source, config, executor.plan(source, config))
        assert executor._pool is None  # no pool touched for serial width
        result, report = execute(StackChunkSource(stack), config, ThreadedExecutor())
        assert "in-line" in " ".join(report.notes)
        reference = _serial_reference(stack, _grid())
        assert np.array_equal(reference.data, result.data)


class TestStrategyPlumbing:
    def test_executor_strategy_threads_on_vectorized_backend(self):
        stack = _noisy_stack(masked=True)
        grid = _grid()
        reference = _serial_reference(stack, grid)
        config = ReconstructionConfig(
            grid=grid, backend="vectorized", executor="threads", n_workers=2
        )
        result, report = execute(
            StackChunkSource(stack), config, make_strategy_executor(config)
        )
        assert report.backend == "threaded"
        assert np.array_equal(reference.data, result.data)

    def test_executor_strategy_processes_on_vectorized_backend(self):
        """The retired ``processes`` strategy runs on threads, with a warning."""
        stack = _noisy_stack(masked=True)
        grid = _grid()
        reference = _serial_reference(stack, grid)
        with pytest.warns(DeprecationWarning, match="processes"):
            config = ReconstructionConfig(
                grid=grid, backend="vectorized", executor="processes", n_workers=2
            )
        result, report = execute(
            StackChunkSource(stack), config, make_strategy_executor(config)
        )
        assert report.backend == "threaded"
        assert np.array_equal(reference.data, result.data)

    def test_unresolved_auto_falls_back_to_serial(self):
        config = ReconstructionConfig(grid=_grid(), backend="vectorized", executor=AUTO)
        executor = make_strategy_executor(config)
        assert executor.name == "vectorized"

    def test_executor_field_round_trips_config(self):
        config = ReconstructionConfig(
            grid=_grid(), backend="vectorized", executor="threads", n_workers=AUTO
        )
        clone = ReconstructionConfig.from_dict(config.to_dict())
        assert clone.executor == "threads"
        assert clone.n_workers == AUTO
