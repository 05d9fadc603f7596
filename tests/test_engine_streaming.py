"""Engine, out-of-core streaming and batch-scheduler tests.

The load-bearing guarantee of the engine refactor: a streamed reconstruction
(any ``rows_per_chunk``, any backend, with or without background subtraction
and pixel masks) is **bitwise identical** to the in-memory reconstruction,
and never materialises the full image cube.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backends import get_backend
from repro.core.backends.threaded import ThreadedExecutor
from repro.core.backends.vectorized import VectorizedExecutor
from repro.core.config import ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.core.engine import (
    StackChunkSource,
    build_execution_plan,
    compute_stack_background,
    execute as engine_execute,
    execute_backend,
)
from repro.core.session import _output_names, session
from repro.core.stack import WireScanStack
from repro.geometry.beam import Beam
from repro.geometry.detector import Detector
from repro.io.h5lite import H5LiteError
from repro.io.image_stack import (
    load_depth_resolved,
    load_wire_scan,
    load_wire_scan_window,
    read_wire_scan_geometry,
    save_wire_scan,
)
from repro.io.streaming import StreamingWireScanSource
from repro.synthetic.forward_model import design_scan_for_depth_range
from repro.utils.validation import ValidationError
from tests.helpers import RUNS, make_tiny_stack


def _noisy_stack(n_rows=7, n_cols=5, n_positions=17, masked=False, seed=11):
    """A small stack with per-pixel structure (so chunking bugs cannot hide)."""
    stack = make_tiny_stack(n_rows=n_rows, n_cols=n_cols, n_positions=n_positions)
    rng = np.random.default_rng(seed)
    stack.images = stack.images + rng.random(stack.images.shape) * 5.0
    if masked:
        stack.pixel_mask = rng.random((n_rows, n_cols)) > 0.3
    return stack


def _partly_usable_stack(masked=False, seed=3):
    """A noisy stack whose rows can use different spans of wire steps.

    The detector is steep (large pixels close to the sample) and its wire
    scan is designed for rows 0-3 only: every row's span of usable steps
    (see ``repro.core.kernels._step_span``) leaves out positions at one end
    or the other, and rows 6-7 can use no step at all.
    """
    detector = Detector(n_rows=8, n_cols=3, pixel_size=2000.0, distance=51_000.0)
    scan = design_scan_for_depth_range(detector.row_window(0, 4), (0.0, 100.0), n_points=17)
    rng = np.random.default_rng(seed)
    images = np.linspace(10.0, 0.0, 17)[:, None, None] + rng.random((17, 8, 3)) * 5.0
    stack = WireScanStack(images=images, scan=scan, detector=detector, beam=Beam())
    if masked:
        stack.pixel_mask = rng.random((8, 3)) > 0.3
    return stack


@pytest.fixture()
def scan_file(tmp_path):
    stack = _noisy_stack(masked=True)
    path = tmp_path / "scan.h5lite"
    save_wire_scan(path, stack)
    return str(path), stack


# --------------------------------------------------------------------------- #
class TestStreamedEqualsInMemory:
    @pytest.mark.parametrize("run", RUNS)
    @pytest.mark.parametrize("rows_per_chunk", [1, 3, None])
    def test_bitwise_identical(self, tmp_path, run, rows_per_chunk):
        stack = _noisy_stack(masked=True)
        path = tmp_path / "scan.h5lite"
        save_wire_scan(path, stack)
        config = ReconstructionConfig(
            grid=DepthGrid.from_range(0.0, 100.0, 20),
            rows_per_chunk=rows_per_chunk,
            subtract_background=True,
            **RUNS[run],
        )
        in_memory = session(config=config).run(str(path))
        streamed = session(config=config.with_overrides(streaming=True)).run(str(path))
        np.testing.assert_array_equal(streamed.result.data, in_memory.result.data)
        assert streamed.report.n_chunks == in_memory.report.n_chunks

    @settings(max_examples=12, deadline=None)
    @given(
        rows_per_chunk=st.integers(1, 9),
        subtract_background=st.booleans(),
        masked=st.booleans(),
        backend=st.sampled_from(["vectorized", "gpusim"]),
    )
    def test_any_chunking_matches_unchunked(
        self, tmp_path_factory, rows_per_chunk, subtract_background, masked, backend
    ):
        """Streamed with *any* chunk size == in-memory with a single chunk."""
        stack = _noisy_stack(n_rows=8, masked=masked, seed=5)
        path = tmp_path_factory.mktemp("hyp") / "scan.h5lite"
        save_wire_scan(path, stack)
        grid = DepthGrid.from_range(0.0, 100.0, 16)
        reference = session(
            grid=grid, backend=backend, subtract_background=subtract_background
        ).run(stack).result
        config = ReconstructionConfig(
            grid=grid,
            backend=backend,
            rows_per_chunk=rows_per_chunk,
            subtract_background=subtract_background,
            streaming=True,
        )
        streamed = session(config=config).run(str(path))
        np.testing.assert_array_equal(streamed.result.data, reference.data)

    def test_streamed_background_matches_every_backend(self, scan_file):
        """With subtract_background on, every backend and executor agrees
        bit-for-bit (a per-chunk median would make the chunked runs diverge)."""
        path, _stack = scan_file
        grid = DepthGrid.from_range(0.0, 100.0, 18)
        results = {}
        for run in RUNS:
            config = ReconstructionConfig(
                grid=grid, rows_per_chunk=2, subtract_background=True, streaming=True,
                **RUNS[run],
            )
            results[run] = session(config=config).run(path).result.data
        for run in RUNS:
            np.testing.assert_array_equal(results[run], results["cpu_reference"])


class TestOutOfCore:
    def test_peak_resident_slab_is_one_chunk(self, scan_file):
        path, stack = scan_file
        config = ReconstructionConfig(
            grid=DepthGrid.from_range(0.0, 100.0, 20), backend="vectorized",
            rows_per_chunk=2,
        )
        source = StreamingWireScanSource(path)
        result, report = execute_backend(source, config)
        accounting = source.accounting()
        assert accounting["max_resident_rows"] == 2  # never a full-cube read
        assert accounting["n_window_reads"] == report.n_chunks == 4  # ceil(7 / 2)
        assert result.total_intensity() > 0

    def test_an_unusable_chunk_reads_nothing(self, tmp_path):
        """A chunk whose rows can use no wire step is not read at all, and
        is not counted as a window read; the others read their span only."""
        stack = _partly_usable_stack()
        path = str(tmp_path / "scan.h5lite")
        save_wire_scan(path, stack)
        config = ReconstructionConfig(
            grid=DepthGrid.from_range(0.0, 100.0, 20), backend="vectorized", rows_per_chunk=2
        )
        plan = build_execution_plan(StackChunkSource(stack), config, trim_positions=True)
        assert plan.position_ranges == ((0, 12), (5, 17), (11, 17), (0, 0))
        windows = []

        class RecordingSource(StreamingWireScanSource):
            def load_window(self, row_start, row_stop, position_start, position_stop):
                windows.append((row_start, row_stop, position_start, position_stop))
                return super().load_window(row_start, row_stop, position_start, position_stop)

        source = RecordingSource(path)
        result, report = execute_backend(source, config)
        assert windows == [(0, 2, 0, 12), (2, 4, 5, 17), (4, 6, 11, 17)]
        accounting = source.accounting()
        assert accounting["n_window_reads"] == report.n_chunks - 1 == 3
        assert accounting["bytes_read"] == (12 + 12 + 6) * 2 * stack.n_cols * 8
        reference, _report = get_backend("cpu_reference").reconstruct(
            stack, config.with_backend("cpu_reference")
        )
        assert np.array_equal(result.data, reference.data)
        assert not result.data[:, 6:].any()

    def test_default_streaming_plan_is_bounded(self, scan_file, monkeypatch):
        """Without rows_per_chunk, an out-of-core run must still chunk once the
        cube exceeds the streaming slab budget (never one full-cube read)."""
        import repro.core.engine as engine_module

        path, stack = scan_file
        monkeypatch.setattr(engine_module, "STREAMING_CHUNK_BYTES", 4_000)
        config = ReconstructionConfig(grid=DepthGrid.from_range(0.0, 100.0, 20))
        for run in ("vectorized", "threaded"):
            source = StreamingWireScanSource(path)
            result, report = execute_backend(source, config.with_overrides(**RUNS[run]))
            assert report.n_chunks > 1
            assert source.accounting()["max_resident_rows"] < stack.n_rows
            reference = session(config=config.with_overrides(**RUNS[run])).run(path)
            np.testing.assert_array_equal(result.data, reference.result.data)

    def test_streaming_source_geometry_matches_file(self, scan_file):
        path, stack = scan_file
        source = StreamingWireScanSource(path)
        assert (source.n_positions, source.n_rows, source.n_cols) == stack.shape
        np.testing.assert_allclose(source.wire_positions_yz, stack.scan.positions)
        np.testing.assert_array_equal(source.mask_rows(0, stack.n_rows), stack.pixel_mask)
        np.testing.assert_array_equal(source.load_rows(2, 5), stack.images[:, 2:5, :])
        np.testing.assert_array_equal(source.position_image(3), stack.images[3])

    def test_streaming_report_notes_mention_streaming(self, scan_file):
        path, _stack = scan_file
        config = ReconstructionConfig(
            grid=DepthGrid.from_range(0.0, 100.0, 10), rows_per_chunk=3, streaming=True
        )
        outcome = session(config=config).run(path)
        assert any("streamed from disk" in note for note in outcome.report.notes)
        assert any(note.startswith("plan[") for note in outcome.report.notes)

    def test_load_wire_scan_window(self, scan_file):
        path, stack = scan_file
        window = load_wire_scan_window(path, 2, 6)
        np.testing.assert_array_equal(window.images, stack.images[:, 2:6, :])
        np.testing.assert_array_equal(window.pixel_mask, stack.pixel_mask[2:6])
        assert window.detector.n_rows == 4
        # the window's rows keep their absolute lab-frame geometry
        full = load_wire_scan(path)
        np.testing.assert_allclose(
            window.detector.row_yz(), full.detector.row_yz(np.arange(2, 6))
        )

    def test_read_wire_scan_geometry_reads_no_images(self, scan_file):
        path, stack = scan_file
        scan, detector, beam, metadata = read_wire_scan_geometry(path)
        assert detector.shape == (stack.n_rows, stack.n_cols)
        assert scan.n_points == stack.n_positions


class TestTrimmedWindows:
    """The vectorized backend's plans give each chunk only the positions its
    usable steps difference; ``cpu_reference`` (the scalar loop, which
    differences every element) and gpusim (whole-chunk copies) read every
    position.  Every backend and executor still matches the full-window
    reference bit for bit, with the same active count."""

    GRID = DepthGrid.from_range(0.0, 100.0, 20)

    @pytest.fixture(scope="class")
    def scan(self, tmp_path_factory):
        stack = _partly_usable_stack(masked=True)
        path = str(tmp_path_factory.mktemp("trimmed") / "scan.h5lite")
        save_wire_scan(path, stack)
        return stack, path

    @pytest.mark.parametrize("subtract_background", [False, True], ids=["raw", "background"])
    @pytest.mark.parametrize("rows_per_chunk", [1, 2, 3, 4])
    @pytest.mark.parametrize("mode", ["in-memory", "streamed"])
    def test_every_run_matches_the_reference(self, scan, mode, rows_per_chunk, subtract_background):
        stack, path = scan
        config = ReconstructionConfig(
            grid=self.GRID, rows_per_chunk=rows_per_chunk,
            subtract_background=subtract_background, n_workers=2,
        )
        ranges = build_execution_plan(StackChunkSource(stack), config, trim_positions=True).position_ranges
        assert any(stop - start < stack.n_positions for start, stop in ranges)
        # rows 6-7 can use no step: a chunk of them alone reads nothing
        assert ((0, 0) in ranges) == (rows_per_chunk < 4)
        runs = {}
        for run in RUNS:
            source = StreamingWireScanSource(path) if mode == "streamed" else StackChunkSource(stack)
            runs[run] = execute_backend(source, config.with_overrides(**RUNS[run]))
        reference, reference_report = runs["cpu_reference"]
        assert reference_report.n_active_pixels > 0
        for run, (result, report) in runs.items():
            assert np.array_equal(result.data, reference.data), run
            assert report.n_active_pixels == reference_report.n_active_pixels, run

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_trimmed_streamed_runs_launch_what_full_windows_launch(self, scan, executor):
        """``n_kernel_launches`` and ``n_threads_launched`` are functions of
        the plan's chunks and the scan's steps, not of the slabs read."""
        stack, path = scan
        config = ReconstructionConfig(
            grid=self.GRID, rows_per_chunk=3, executor=executor, n_workers=2
        )
        base = ThreadedExecutor if executor == "threads" else VectorizedExecutor
        kwargs = {"min_elements_per_dispatch": 1} if executor == "threads" else {}

        class FullWindows(base):
            def plan(self, source, config):
                return build_execution_plan(source, config)

        full, full_report = engine_execute(StackChunkSource(stack), config, FullWindows(**kwargs))
        source = StreamingWireScanSource(path)
        trimmed, trimmed_report = engine_execute(source, config, base(**kwargs))
        assert source.accounting()["bytes_read"] < stack.images.nbytes
        assert np.array_equal(trimmed.data, full.data)
        assert full_report.n_kernel_launches > full_report.n_chunks or executor == "serial"
        for field in ("n_active_pixels", "n_kernel_launches", "n_threads_launched"):
            assert getattr(trimmed_report, field) == getattr(full_report, field), field


class TestTruncatedScan:
    """A scan file shorter than its header says fails with one typed error."""

    @pytest.mark.parametrize("streaming", [False, True], ids=["in-memory", "streamed"])
    def test_session_run_raises_typed_error(self, scan_file, streaming):
        path, _stack = scan_file
        # the image cube is the file's first block, so a tail cut loses the
        # wire trajectory: the in-memory load and the streamed open read it
        os.truncate(path, os.path.getsize(path) - 100)
        config = ReconstructionConfig(
            grid=DepthGrid.from_range(0.0, 100.0, 10), rows_per_chunk=3, streaming=streaming
        )
        with pytest.raises(H5LiteError, match="truncated h5lite file"):
            session(config=config).run(path)

    @pytest.mark.parametrize("run", ["vectorized", "threaded"])
    @pytest.mark.parametrize("subtract_background", [False, True])
    def test_window_read_past_the_end_raises_typed_error(
        self, scan_file, run, subtract_background
    ):
        path, stack = scan_file
        source = StreamingWireScanSource(path)
        # cut inside the image cube after the header reads: the first window
        # (or, with background subtraction, a later image) runs past the end
        os.truncate(path, source._file._data_start + stack.images[0].nbytes + 8)
        config = ReconstructionConfig(
            grid=DepthGrid.from_range(0.0, 100.0, 10), rows_per_chunk=3,
            subtract_background=subtract_background, **RUNS[run],
        )
        with pytest.raises(H5LiteError, match="truncated h5lite file"):
            execute_backend(source, config)


# --------------------------------------------------------------------------- #
class TestEngine:
    def test_all_backends_share_engine_plan_note(self, scan_file):
        path, stack = scan_file
        grid = DepthGrid.from_range(0.0, 100.0, 12)
        for run in RUNS:
            config = ReconstructionConfig(grid=grid, rows_per_chunk=3, **RUNS[run])
            _, report = get_backend(config.backend).reconstruct(stack, config)
            assert any(note.startswith("plan[") for note in report.notes), run
            assert report.n_chunks == 3  # ceil(7 / 3): identical chunking everywhere

    def test_global_background_shared_across_chunkings(self):
        stack = _noisy_stack()
        config = ReconstructionConfig(
            grid=DepthGrid.from_range(0.0, 100.0, 10), subtract_background=True
        )
        background = compute_stack_background(StackChunkSource(stack), config)
        assert background.shape == (stack.n_positions, 1, 1)
        np.testing.assert_allclose(
            background[:, 0, 0], np.median(stack.images, axis=(1, 2))
        )
        # chunked gpusim == unchunked vectorized with background on
        chunked, _ = get_backend("gpusim").reconstruct(
            stack, config.with_backend("gpusim", rows_per_chunk=2)
        )
        unchunked, _ = get_backend("vectorized").reconstruct(
            stack, config.with_backend("vectorized")
        )
        np.testing.assert_array_equal(chunked.data, unchunked.data)

    def test_host_backends_honour_rows_per_chunk(self):
        stack = _noisy_stack()
        grid = DepthGrid.from_range(0.0, 100.0, 10)
        for backend in ("cpu_reference", "vectorized"):
            one_chunk, rep_a = get_backend(backend).reconstruct(
                stack, ReconstructionConfig(grid=grid, backend=backend)
            )
            chunked, rep_b = get_backend(backend).reconstruct(
                stack, ReconstructionConfig(grid=grid, backend=backend, rows_per_chunk=2)
            )
            assert rep_a.n_chunks == 1 and rep_b.n_chunks == 4
            np.testing.assert_array_equal(chunked.data, one_chunk.data)

    def test_execution_plan_summary_and_chunks(self):
        stack = _noisy_stack()
        config = ReconstructionConfig(grid=DepthGrid.from_range(0.0, 100.0, 10), rows_per_chunk=3)
        plan = build_execution_plan(StackChunkSource(stack), config, strategy="host")
        assert plan.chunks == ((0, 3), (3, 6), (6, 7))
        assert plan.n_chunks == 3 and plan.rows_per_chunk == 3
        assert plan.summary().startswith("plan[host]")
        assert plan.chunk_plan.covers_all_rows()

    def test_result_hands_over_the_plan_output(self):
        """One zeroed output cube per run, handed over as the result, never copied."""
        stack = _noisy_stack()
        config = ReconstructionConfig(grid=DepthGrid.from_range(0.0, 100.0, 10), rows_per_chunk=3)
        kept = []

        class SpyExecutor(VectorizedExecutor):
            def prepare(self, source, config, plan):
                assert plan.output.shape == (10, stack.n_rows, stack.n_cols)
                assert not plan.output.any()
                kept.append(plan.output)
                super().prepare(source, config, plan)

        result, report = engine_execute(StackChunkSource(stack), config, SpyExecutor())
        (output,) = kept
        assert np.shares_memory(result.data, output)
        assert result.metadata["backend"] == "vectorized" and report.n_chunks == 3
        reference, _ = get_backend("vectorized").reconstruct(
            stack, config.with_overrides(rows_per_chunk=None)
        )
        assert np.array_equal(result.data, reference.data)

    def test_compare_backends_validates_up_front(self, scan_file):
        _path, stack = scan_file
        sess = session(grid=DepthGrid.from_range(0.0, 100.0, 10))
        with pytest.raises(ValidationError):
            sess.compare(stack, ["vectorized", "no-such-backend"])

    def test_compare_backends_notes_shared_plan(self, scan_file):
        _path, stack = scan_file
        sess = session(
            grid=DepthGrid.from_range(0.0, 100.0, 10), rows_per_chunk=2
        )
        results = sess.compare(stack, ["vectorized", "gpusim"])
        for _name, run in results.items():
            assert any("compare_backends shared plan:" in note for note in run.report.notes)
        # without a fixed chunk size the note must not claim shared chunking
        loose = session(grid=DepthGrid.from_range(0.0, 100.0, 10))
        results = loose.compare(stack, ["vectorized", "gpusim"])
        for _name, run in results.items():
            (note,) = [n for n in run.report.notes if "compare_backends" in n]
            assert "reference plan" in note and "may chunk differently" in note


# --------------------------------------------------------------------------- #
class TestThreadedParallel:
    """Failure hygiene and batch identity of the ``threads`` executor."""

    def _config(self, **overrides):
        base = {
            "grid": DepthGrid.from_range(0.0, 100.0, 14),
            "executor": "threads",
            "n_workers": 2,
        }
        base.update(overrides)
        return ReconstructionConfig(**base)

    def test_chunk_failure_cancels_pending(self):
        """A chunk raising mid-run surfaces its error and leaves no band
        pending in the shared pool."""

        class ExplodingSource(StackChunkSource):
            def __init__(self, stack, fail_at):
                super().__init__(stack)
                self.fail_at = fail_at
                self.loads = 0

            def load_rows(self, row_start, row_stop):
                self.loads += 1
                if self.loads > self.fail_at:
                    raise RuntimeError("disk died mid-run")
                return super().load_rows(row_start, row_stop)

        stack = _noisy_stack(n_rows=10, seed=9)
        source = ExplodingSource(stack, fail_at=5)
        executor = ThreadedExecutor()
        with pytest.raises(RuntimeError, match="disk died"):
            engine_execute(source, self._config(rows_per_chunk=1), executor)
        assert executor.peak_inflight > 1  # bands were in flight when it failed
        assert not executor._pending  # nothing left pending after the failure
        # the shared pool survives the failed run
        recovered = session(config=self._config()).run(stack)
        reference = session(config=self._config(executor="serial")).run(stack)
        np.testing.assert_array_equal(recovered.result.data, reference.result.data)

    @pytest.mark.parametrize("streaming", [False, True])
    def test_batched_threaded_matches_reference(self, tmp_path, streaming):
        """Bitwise identity holds through run_many too (both in-memory and
        streamed), not just single runs."""
        paths = []
        for index in range(2):
            stack = _noisy_stack(seed=30 + index)
            path = tmp_path / f"scan_{index}.h5lite"
            save_wire_scan(path, stack)
            paths.append(str(path))
        config = self._config(streaming=streaming, rows_per_chunk=2)
        batch = session(config=config).run_many(paths, max_workers=2)
        assert batch.n_ok == 2
        for path, item in zip(paths, batch.items):
            reference = session(
                config=config.with_overrides(executor="serial", streaming=False)
            ).run(path)
            np.testing.assert_array_equal(item.result.data, reference.result.data)


# --------------------------------------------------------------------------- #
class TestBatch:
    def _make_files(self, tmp_path, n=3):
        paths = []
        for index in range(n):
            stack = _noisy_stack(seed=20 + index)
            path = tmp_path / f"scan_{index}.h5lite"
            save_wire_scan(path, stack)
            paths.append(str(path))
        return paths

    def test_run_many_memory_budget_clamps_concurrency(self, tmp_path):
        """A batch whose items dwarf the budget degrades to serial, not OOM."""
        stack = _noisy_stack(seed=40)
        path = tmp_path / "scan.h5lite"
        save_wire_scan(path, stack)
        paths = [str(path)] * 3
        config = ReconstructionConfig(grid=DepthGrid.from_range(0.0, 100.0, 14))
        clamped = session(config=config).run_many(paths, max_workers=3, memory_budget=1)
        assert clamped.max_workers == 1 and clamped.n_ok == 3
        roomy = session(config=config).run_many(paths, max_workers=3)
        assert roomy.max_workers == 3
        for a, b in zip(clamped.items, roomy.items):
            np.testing.assert_array_equal(a.result.data, b.result.data)

    def test_batch_processes_files_concurrently(self, tmp_path):
        paths = self._make_files(tmp_path, n=3)
        config = ReconstructionConfig(grid=DepthGrid.from_range(0.0, 100.0, 12), streaming=True)
        batch = session(config=config).run_many(paths, max_workers=3)
        assert batch.n_files == 3 and batch.n_ok == 3 and batch.n_failed == 0
        assert batch.max_workers == 3
        assert [item.input_path for item in batch.items] == paths
        for item in batch.items:
            assert item.ok and item.report is not None and item.result is not None
            assert item.result.total_intensity() > 0
        assert batch.throughput_files_per_second > 0

    def test_batch_matches_single_file_runs(self, tmp_path):
        paths = self._make_files(tmp_path, n=3)
        config = ReconstructionConfig(grid=DepthGrid.from_range(0.0, 100.0, 12))
        batch = session(config=config).run_many(paths, max_workers=2)
        for path, item in zip(paths, batch.items):
            solo = session(config=config).run(path)
            np.testing.assert_array_equal(item.result.data, solo.result.data)

    def test_batch_error_isolation(self, tmp_path):
        paths = self._make_files(tmp_path, n=2)
        bad = tmp_path / "broken.h5lite"
        bad.write_bytes(b"not an h5lite file at all")
        scheduled = [paths[0], str(bad), paths[1]]
        config = ReconstructionConfig(grid=DepthGrid.from_range(0.0, 100.0, 12))
        batch = session(config=config).run_many(scheduled, max_workers=3)
        assert batch.n_files == 3 and batch.n_ok == 2 and batch.n_failed == 1
        (failure,) = batch.failed
        assert failure.input_path == str(bad)
        assert "H5LiteError" in failure.error
        for item in batch.succeeded:
            assert item.result.total_intensity() > 0

    def test_batch_writes_outputs(self, tmp_path):
        paths = self._make_files(tmp_path, n=2)
        out_dir = tmp_path / "out"
        config = ReconstructionConfig(grid=DepthGrid.from_range(0.0, 100.0, 12))
        batch = session(config=config).run_many(paths, output_dir=str(out_dir), keep_results=False)
        for item in batch.items:
            assert item.ok and item.result is None
            loaded = load_depth_resolved(item.output_path)
            assert loaded.grid.n_bins == 12
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "scan_0_depth.h5lite",
            "scan_1_depth.h5lite",
        ]

    def test_empty_batch(self):
        config = ReconstructionConfig(grid=DepthGrid.from_range(0.0, 100.0, 12))
        batch = session(config=config).run_many([])
        assert batch.n_files == 0 and batch.wall_time == 0.0
        assert batch.summary().startswith("batch: 0/0")

    def test_batch_summary_mentions_failures(self, tmp_path):
        bad = tmp_path / "missing.h5lite"
        config = ReconstructionConfig(grid=DepthGrid.from_range(0.0, 100.0, 12))
        batch = session(config=config).run_many([str(bad)])
        assert batch.n_failed == 1
        assert "FAIL" in batch.summary()

    def test_batch_disambiguates_colliding_output_names(self, tmp_path):
        stack = _noisy_stack()
        dirs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            save_wire_scan(d / "scan.h5lite", stack)
            dirs.append(str(d / "scan.h5lite"))
        out_dir = tmp_path / "out"
        config = ReconstructionConfig(grid=DepthGrid.from_range(0.0, 100.0, 12))
        batch = session(config=config).run_many(dirs, output_dir=str(out_dir), keep_results=False)
        assert batch.n_ok == 2
        outputs = {item.output_path for item in batch.items}
        assert len(outputs) == 2  # no silent overwrite
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "scan_1_depth.h5lite",
            "scan_depth.h5lite",
        ]

    def test_batch_output_suffix_never_collides_with_real_stem(self, tmp_path):
        """A stem ending in _1 must not be clobbered by a collision suffix."""
        stems = ["a", "a", "a_1"]  # e.g. d1/a.h5lite, d2/a.h5lite, d3/a_1.h5lite
        names = [p.split("/")[-1] for p in _output_names(stems, "out")]
        assert names == ["a_depth.h5lite", "a_1_depth.h5lite", "a_1_1_depth.h5lite"]
        assert len(set(names)) == 3
