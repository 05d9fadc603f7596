"""Threaded executor: identity, band planning, pool lifecycle, strategy plumbing.

The ``threads`` executor's contract is **bitwise identity** with the serial
engine under any chunking, any band split and any worker count — plus the
properties that make threads worth having: view-only band dispatch (no slab
copies), a bounded number of bands in flight during streamed runs, and reuse
of one persistent thread pool across runs.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import kernels
from repro.core.backends import get_backend
from repro.core.backends.threaded import (
    ThreadedExecutor,
    _band_context,
    _reconstruct_band,
)
from repro.core.config import ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.core.kernels import depth_resolve_chunk_fused
from repro.core.engine import (
    StackChunkSource,
    build_chunk_context,
    build_execution_plan,
    execute,
    execute_backend,
)
from repro.core.workerpool import (
    shared_thread_pool,
    shutdown_shared_thread_pool,
)
from repro.cudasim.atomic import atomic_add
from repro.io.image_stack import save_wire_scan
from repro.io.streaming import StreamingWireScanSource
from tests.helpers import make_tiny_stack, sent_bands_to_the_pool


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
    result, _report = execute_backend(StackChunkSource(stack), config)
    return result


def _threads(**kwargs):
    """A config running the vectorized backend on the ``threads`` executor."""
    return ReconstructionConfig(backend="vectorized", executor="threads", **kwargs)


def _split_run(source, config):
    """*config*'s run of *source* on a ``threads`` executor whose element
    floor is 1, so a chunk of two or more rows splits into a band per worker
    on the pool; returns the result and the executor."""
    executor = ThreadedExecutor(min_elements_per_dispatch=1)
    result, _report = execute(source, config, executor)
    return result, executor


class TestIdentity:
    """Every case runs at element floor 1, where a chunk of two or more rows
    splits into bands on the pool; all but the tiny-band case also run at
    the default floor, where every chunk of these small stacks is one band
    and runs in the caller."""

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 8])
    def test_bitwise_identical_to_serial(self, n_workers):
        stack = _noisy_stack(masked=True)
        grid = _grid()
        reference = _serial_reference(stack, grid)
        config = _threads(grid=grid, n_workers=n_workers)
        result, report = get_backend("vectorized").reconstruct(stack, config)
        assert np.array_equal(reference.data, result.data)
        assert report.backend == result.metadata["backend"] == "vectorized"
        split, executor = _split_run(StackChunkSource(stack), config)
        assert np.array_equal(reference.data, split.data)
        assert (executor.peak_inflight > 0) == (n_workers > 1)  # no pool at one worker

    @pytest.mark.parametrize("rows_per_chunk", [1, 2, 3, 100])
    def test_bitwise_identical_chunked(self, rows_per_chunk):
        stack = _noisy_stack(masked=True)
        grid = _grid()
        reference = _serial_reference(stack, grid)
        config = _threads(grid=grid, n_workers=2, rows_per_chunk=rows_per_chunk)
        result, _report = get_backend("vectorized").reconstruct(stack, config)
        assert np.array_equal(reference.data, result.data)
        split, executor = _split_run(StackChunkSource(stack), config)
        assert np.array_equal(reference.data, split.data)
        assert (executor.peak_inflight > 0) == (rows_per_chunk > 1)  # a 1-row chunk never splits

    def test_bitwise_identical_streamed(self, tmp_path):
        stack = _noisy_stack(masked=True)
        grid = _grid()
        reference = _serial_reference(stack, grid)
        path = str(tmp_path / "scan.h5lite")
        save_wire_scan(path, stack)
        config = _threads(grid=grid, n_workers=2, rows_per_chunk=2)
        source = StreamingWireScanSource(path)
        result, report = execute_backend(source, config)
        assert source.accounting()["max_resident_rows"] == 2
        assert report.n_chunks == 4  # ceil(7 / 2)
        assert np.array_equal(reference.data, result.data)
        source = StreamingWireScanSource(path)
        split, executor = _split_run(source, config)
        assert source.accounting()["max_resident_rows"] == 2
        assert np.array_equal(reference.data, split.data)
        assert executor.peak_inflight > 0

    def test_tiny_band_floor_does_not_change_result(self):
        """Forcing 1-row bands (floor disabled) still reproduces serial."""
        stack = _noisy_stack(masked=True)
        grid = _grid()
        reference = _serial_reference(stack, grid)
        config = _threads(grid=grid, n_workers=4)
        executor = ThreadedExecutor(min_elements_per_dispatch=1)
        result, _report = execute(StackChunkSource(stack), config, executor)
        assert np.array_equal(reference.data, result.data)

    def test_background_subtraction_identical(self):
        stack = _noisy_stack(masked=True)
        grid = _grid()
        reference = _serial_reference(stack, grid, subtract_background=True)
        config = _threads(grid=grid, n_workers=2, subtract_background=True)
        result, _report = get_backend("vectorized").reconstruct(stack, config)
        assert np.array_equal(reference.data, result.data)
        split, executor = _split_run(StackChunkSource(stack), config)
        assert np.array_equal(reference.data, split.data)
        assert executor.peak_inflight > 0


class TestBandDispatch:
    def test_band_context_is_view_only(self):
        """Band contexts must alias the chunk slab — copies would defeat threads."""
        stack = _noisy_stack(masked=True)
        config = ReconstructionConfig(grid=_grid())
        source = StackChunkSource(stack)
        plan = build_execution_plan(source, config)
        ctx = build_chunk_context(source, config, plan, 0, source.n_rows)
        band = _band_context(ctx, 2, 5)
        assert band.images.base is not None
        assert np.shares_memory(band.images, ctx.images)
        assert np.shares_memory(band.mask, ctx.mask)
        assert band.n_rows == 3

    def test_band_reconstruction_is_contiguous(self):
        """A band writes exactly its own contiguous rows of the output cube."""
        stack = _noisy_stack()
        config = ReconstructionConfig(grid=_grid())
        source = StackChunkSource(stack)
        plan = build_execution_plan(source, config)
        ctx = build_chunk_context(source, config, plan, 0, source.n_rows)
        whole = np.zeros((20, stack.n_rows, stack.n_cols))
        n_whole = depth_resolve_chunk_fused(ctx, whole)
        out = np.zeros_like(whole)
        n_active = _reconstruct_band(ctx, 1, 4, out)
        assert 0 < n_active < n_whole
        assert np.array_equal(out[:, 1:4], whole[:, 1:4])
        assert not out[:, :1].any() and not out[:, 4:].any()

    def test_granularity_floor_coarsens_small_chunks(self):
        """A tiny chunk collapses to one band: no dispatch smaller than the floor."""
        stack = _noisy_stack(n_rows=6, n_cols=5, n_positions=9)
        grid = _grid()
        config = _threads(grid=grid, n_workers=4)
        executor = ThreadedExecutor()
        source = StackChunkSource(stack)
        plan = executor.plan(source, config)
        executor.prepare(source, config, plan)
        ctx = build_chunk_context(source, config, plan, 0, source.n_rows)
        bands = executor._bands(ctx)
        # 8 * 6 * 5 = 240 elements << the 65536-element default floor
        assert bands == [(0, 6)]
        executor.close()

    def test_bounded_inflight_during_streamed_run(self, tmp_path):
        """A streamed run never queues more than 2 x workers bands (its
        2-row windows split in two, so their bands reach the pool)."""
        stack = _noisy_stack(n_rows=12, n_cols=5, n_positions=9)
        path = str(tmp_path / "scan.h5lite")
        save_wire_scan(path, stack)
        config = _threads(grid=_grid(), n_workers=2, rows_per_chunk=2)
        executor = ThreadedExecutor(min_elements_per_dispatch=1)
        source = StreamingWireScanSource(path)
        execute(source, config, executor)
        assert executor.peak_inflight <= 2 * 2
        assert executor.peak_inflight > 0

    def test_report_extras_count_bands_and_elements(self):
        stack = _noisy_stack(n_rows=8)
        config = _threads(grid=_grid(), n_workers=2)
        executor = ThreadedExecutor(min_elements_per_dispatch=1)
        _result, report = execute(StackChunkSource(stack), config, executor)
        assert report.n_kernel_launches >= 2  # at least one band per worker
        assert report.n_threads_launched == 16 * 8 * stack.n_cols

    def test_worker_count_clamped_to_rows(self):
        stack = _noisy_stack(n_rows=3)
        config = _threads(grid=_grid(), n_workers=16)
        executor = ThreadedExecutor()
        source = StackChunkSource(stack)
        executor.prepare(source, config, executor.plan(source, config))
        assert executor._n_workers == 3
        executor.close()


class TestPoolLifecycle:
    def test_shared_pool_reused_across_runs(self, pool_bands):
        stack = _noisy_stack()
        config = _threads(grid=_grid(), n_workers=2)
        backend = get_backend("vectorized")
        backend.reconstruct(stack, config)
        pool = shared_thread_pool(2)
        spawns_before = pool.n_spawns
        backend.reconstruct(stack, config)
        assert shared_thread_pool(2) is pool
        assert pool.n_spawns == spawns_before  # no new threadpool spawn
        assert spawns_before == 1 and sent_bands_to_the_pool(pool_bands)

    def test_single_worker_runs_inline(self):
        stack = _noisy_stack()
        config = _threads(grid=_grid(), n_workers=1)
        executor = ThreadedExecutor()
        source = StackChunkSource(stack)
        executor.prepare(source, config, executor.plan(source, config))
        assert executor._pool is None  # no pool touched for serial width
        result, report = execute(StackChunkSource(stack), config, ThreadedExecutor())
        assert "in-line" in " ".join(report.notes)
        reference = _serial_reference(stack, _grid())
        assert np.array_equal(reference.data, result.data)

    def test_single_worker_shares_the_run_element_batch(self, monkeypatch):
        """One worker takes the serial path: the sparse elements of every
        chunk collect in one batch per run, not one per chunk.  So does a
        chunk two workers leave as one band: at the default element floor
        every 1-row chunk here is one band, and none reaches the pool."""
        calls = []

        def recording_atomic_add(array, indices, values):
            calls.append(len(indices))
            return atomic_add(array, indices, values)

        monkeypatch.setattr(kernels, "atomic_add", recording_atomic_add)
        stack = _noisy_stack()
        config = ReconstructionConfig(grid=_grid(), intensity_cutoff=3.0, rows_per_chunk=1)
        result, serial_report = execute_backend(StackChunkSource(stack), config)
        serial, serial_adds = result.data, len(calls)
        for n_workers in (1, 2):
            executor = ThreadedExecutor()
            calls.clear()
            result, report = execute(
                StackChunkSource(stack),
                config.with_overrides(executor="threads", n_workers=n_workers),
                executor,
            )
            assert report.n_chunks == 7
            assert len(calls) == serial_adds == 1
            assert executor.peak_inflight == 0
            assert result.data.tobytes() == serial.tobytes()
            assert report.n_active_pixels == serial_report.n_active_pixels > 0
            assert report.n_kernel_launches == serial_report.n_kernel_launches == 7
            assert report.n_threads_launched == serial_report.n_threads_launched

    def test_split_and_whole_chunks_mix_in_one_streamed_run(self, tmp_path):
        """2-row windows split into pool bands while the last, 1-row window
        runs in the caller, into the run's element batch, as the bands
        write other rows of the cube: bitwise serial, the same counts."""
        stack = _noisy_stack(masked=True)
        grid = _grid()
        path = str(tmp_path / "scan.h5lite")
        save_wire_scan(path, stack)
        serial, serial_report = execute_backend(
            StreamingWireScanSource(path), ReconstructionConfig(grid=grid, rows_per_chunk=2)
        )
        executor = ThreadedExecutor(min_elements_per_dispatch=1)
        result, report = execute(
            StreamingWireScanSource(path), _threads(grid=grid, n_workers=2, rows_per_chunk=2), executor
        )
        assert report.n_chunks == serial_report.n_chunks == 4  # rows 2, 2, 2, 1
        assert executor.peak_inflight > 0
        assert result.data.tobytes() == serial.data.tobytes()
        assert report.n_active_pixels == serial_report.n_active_pixels > 0
        assert report.n_threads_launched == serial_report.n_threads_launched
        # three chunks of two bands each, and one chunk in-line
        assert serial_report.n_kernel_launches == 4
        assert report.n_kernel_launches == 3 * 2 + 1


class TestConcurrentWidths:
    def test_runs_of_different_widths_share_the_pool(self):
        """Two concurrent runs asking the shared pool for different widths
        both complete, bitwise-equal to serial: widening the pool for one
        run never cancels the other run's queued bands."""
        stack = _noisy_stack(n_rows=12, masked=True)
        grid = _grid()
        reference = _serial_reference(stack, grid)
        start = threading.Barrier(2)
        results, peaks, errors = {}, {}, []

        def run(n_workers):
            # 3-row chunks split into a band per worker at either width
            config = _threads(grid=grid, n_workers=n_workers, rows_per_chunk=3)
            try:
                start.wait(timeout=30)
                for _ in range(25):
                    executor = ThreadedExecutor(min_elements_per_dispatch=1)
                    result, _report = execute(StackChunkSource(stack), config, executor)
                    results.setdefault(n_workers, []).append(result.data)
                    peaks.setdefault(n_workers, []).append(executor.peak_inflight)
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(n,)) for n in (2, 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(results) == [2, 3]
        for outputs in results.values():
            assert len(outputs) == 25
            assert all(np.array_equal(reference.data, data) for data in outputs)
        assert all(peak > 0 for run_peaks in peaks.values() for peak in run_peaks)
        assert shared_thread_pool(1).max_workers == 3  # grown once, never shrunk


class TestStrategyPlumbing:
    def test_executor_strategy_threads_on_vectorized_backend(self, pool_bands):
        stack = _noisy_stack(masked=True)
        grid = _grid()
        reference = _serial_reference(stack, grid)
        config = _threads(grid=grid, n_workers=2)
        result, report = execute_backend(StackChunkSource(stack), config)
        # the report names the backend; the executor shows in the notes
        assert report.backend == "vectorized"
        assert "2 worker thread(s)" in " ".join(report.notes)
        assert np.array_equal(reference.data, result.data)
        assert sent_bands_to_the_pool(pool_bands)

    def test_executor_strategy_processes_on_vectorized_backend(self, pool_bands):
        """The retired ``processes`` strategy runs on threads, with a warning."""
        stack = _noisy_stack(masked=True)
        grid = _grid()
        reference = _serial_reference(stack, grid)
        with pytest.warns(DeprecationWarning, match="processes"):
            config = ReconstructionConfig(
                grid=grid, backend="vectorized", executor="processes", n_workers=2
            )
        result, report = execute_backend(StackChunkSource(stack), config)
        assert report.backend == "vectorized"
        assert np.array_equal(reference.data, result.data)
        assert sent_bands_to_the_pool(pool_bands)

    def test_unresolved_auto_falls_back_to_serial(self):
        """The retired ``executor="auto"`` runs serially, with a warning."""
        with pytest.warns(DeprecationWarning, match="executor='auto'"):
            config = ReconstructionConfig(grid=_grid(), backend="vectorized", executor="auto")
        executor = get_backend("vectorized").make_executor(config)
        assert executor.name == "vectorized"

    def test_unresolved_auto_width_runs_one_worker_in_line(self):
        """The retired ``n_workers="auto"`` runs one worker in line, with a
        warning."""
        stack = _noisy_stack(masked=True)
        grid = _grid()
        reference = _serial_reference(stack, grid)
        with pytest.warns(DeprecationWarning, match="n_workers='auto'"):
            config = _threads(grid=grid, n_workers="auto")
        result, report = execute_backend(StackChunkSource(stack), config)
        assert report.backend == "vectorized"
        assert "1 worker thread(s)" in " ".join(report.notes)
        assert "in-line" in " ".join(report.notes)
        assert np.array_equal(reference.data, result.data)

    def test_notes_count_pool_bands_and_inline_chunks(self):
        """The note counts what reached the pool: nothing, at two workers,
        when the element floor leaves every chunk one band."""
        stack = _noisy_stack()
        notes = {}
        for n_workers, floor in ((2, 1), (2, 65536), (1, 1)):
            config = _threads(grid=_grid(), n_workers=n_workers, rows_per_chunk=2)
            executor = ThreadedExecutor(min_elements_per_dispatch=floor)
            _result, report = execute(StackChunkSource(stack), config, executor)
            notes[n_workers, floor] = report.notes[-1]
        assert notes[2, 1] == (
            "2 worker thread(s): 6 row band(s) on the thread pool, 1 chunk(s) in-line"
        )
        assert notes[2, 65536] == (
            "2 worker thread(s): 0 row band(s) on the thread pool, 4 chunk(s) in-line"
        )
        assert notes[1, 1] == (
            "1 worker thread(s): 0 row band(s) on the thread pool, 4 chunk(s) in-line"
        )

    def test_executor_field_round_trips_config(self):
        config = ReconstructionConfig(
            grid=_grid(), backend="vectorized", executor="threads", n_workers=3
        )
        clone = ReconstructionConfig.from_dict(config.to_dict())
        assert clone.executor == "threads"
        assert clone.n_workers == 3
