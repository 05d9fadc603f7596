"""Tests for the ``repro.open()`` / ``repro.session()`` front door.

Source polymorphism, fluent-session immutability, run observability
(RunResult provenance), batch scheduling through ``run_many``, and file
runs: their outputs, their errors, and results bitwise identical to the
in-memory run across all four backends, streamed or not.
"""

import json
import warnings

import numpy as np
import pytest

import repro
from repro.core.config import ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.core.session import BatchRunResult, RunResult, Session, session
from repro.core.source import BatchSource, FileSource, StackSource, open as open_source
from repro.io.h5lite import H5LiteError
from repro.io.image_stack import load_depth_resolved, save_wire_scan
from repro.io.text_output import read_depth_profiles
from repro.utils.validation import ValidationError
from tests.helpers import RUNS, make_tiny_stack



def _noisy_stack(n_rows=6, n_cols=4, n_positions=13, seed=3, masked=False):
    stack = make_tiny_stack(n_rows=n_rows, n_cols=n_cols, n_positions=n_positions)
    rng = np.random.default_rng(seed)
    stack.images = stack.images + rng.random(stack.images.shape) * 5.0
    if masked:
        stack.pixel_mask = rng.random((n_rows, n_cols)) > 0.3
    return stack


@pytest.fixture()
def grid():
    return DepthGrid.from_range(0.0, 100.0, 15)


@pytest.fixture()
def scan_dir(tmp_path):
    """Three scan files in one directory (plus a decoy non-h5lite file)."""
    paths = []
    for index in range(3):
        path = tmp_path / f"scan_{index}.h5lite"
        save_wire_scan(path, _noisy_stack(seed=40 + index))
        paths.append(str(path))
    (tmp_path / "notes.txt").write_text("not a scan")
    return tmp_path, paths


# --------------------------------------------------------------------------- #
class TestOpenPolymorphism:
    def test_open_stack(self):
        stack = _noisy_stack()
        source = repro.open(stack)
        assert isinstance(source, StackSource)
        assert not source.is_batch
        assert source.identity()["kind"] == "stack"
        assert source.identity()["shape"] == list(stack.shape)

    def test_open_source_passthrough(self):
        source = repro.open(_noisy_stack())
        assert repro.open(source) is source

    def test_open_file(self, scan_dir):
        _root, paths = scan_dir
        source = repro.open(paths[0])
        assert isinstance(source, FileSource)
        identity = source.identity()
        assert identity["kind"] == "file"
        assert identity["path"] == paths[0]
        assert identity["bytes"] > 0

    def test_open_pathlike(self, scan_dir):
        root, paths = scan_dir
        source = repro.open(root / "scan_0.h5lite")
        assert isinstance(source, FileSource)
        assert source.path == paths[0]

    def test_open_glob(self, scan_dir):
        root, paths = scan_dir
        source = repro.open(str(root / "scan_*.h5lite"))
        assert isinstance(source, BatchSource)
        assert source.is_batch
        assert [item.path for item in source.items()] == paths

    def test_open_directory(self, scan_dir):
        root, paths = scan_dir
        source = repro.open(str(root))
        assert isinstance(source, BatchSource)
        # only the .h5lite files, sorted; the decoy .txt is ignored
        assert [item.path for item in source.items()] == paths

    def test_open_list_flattens(self, scan_dir):
        root, paths = scan_dir
        stack = _noisy_stack()
        source = repro.open([stack, str(root / "scan_*.h5lite")])
        assert source.is_batch
        kinds = [item.kind for item in source.items()]
        assert kinds == ["stack", "file", "file", "file"]

    def test_open_ndarray_with_geometry(self, grid):
        stack = _noisy_stack()
        source = repro.open(
            stack.images, scan=stack.scan, detector=stack.detector, beam=stack.beam
        )
        assert isinstance(source, StackSource)
        run = session(grid=grid).run(source)
        reference = session(grid=grid).run(stack)
        np.testing.assert_array_equal(run.result.data, reference.result.data)

    def test_open_ndarray_without_geometry_rejected(self):
        with pytest.raises(ValidationError, match="scan= and detector="):
            repro.open(np.zeros((3, 2, 2)))

    def test_open_empty_glob_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="matched no files"):
            repro.open(str(tmp_path / "*.h5lite"))

    def test_open_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="contains no .h5lite"):
            repro.open(str(tmp_path))

    def test_open_unsupported_type_rejected(self):
        with pytest.raises(ValidationError, match="cannot open"):
            repro.open(42)

    def test_existing_file_with_glob_chars_opened_literally(self, tmp_path):
        """A real file named scan[1].h5lite must not be glob-interpreted."""
        literal = tmp_path / "scan[1].h5lite"
        decoy = tmp_path / "scan1.h5lite"  # what the [1] character class would match
        save_wire_scan(literal, _noisy_stack(seed=1))
        save_wire_scan(decoy, _noisy_stack(seed=2))
        source = repro.open(str(literal))
        assert isinstance(source, FileSource)
        assert source.path == str(literal)

    def test_open_list_of_ndarrays_forwards_geometry(self, grid):
        stack = _noisy_stack()
        source = repro.open(
            [stack.images, stack.images], scan=stack.scan, detector=stack.detector
        )
        assert source.is_batch and len(source.items()) == 2
        batch = session(grid=grid).run_many(source)
        assert batch.n_ok == 2

    def test_open_rejects_geometry_keywords_on_non_ndarray(self, scan_dir):
        _root, paths = scan_dir
        mask = np.ones((6, 4), dtype=bool)
        with pytest.raises(ValidationError, match="ndarray inputs only"):
            repro.open(paths[0], pixel_mask=mask)
        with pytest.raises(ValidationError, match="ndarray inputs only"):
            repro.open(_noisy_stack(), pixel_mask=mask)

    def test_batch_source_has_no_single_chunk_source(self, scan_dir, grid):
        root, _paths = scan_dir
        source = repro.open(str(root))
        with pytest.raises(ValidationError, match="run_many"):
            source.chunk_source(ReconstructionConfig(grid=grid))


# --------------------------------------------------------------------------- #
class TestSessionFluency:
    def test_builder_is_immutable(self, grid):
        base = session(grid=grid)
        gpu = base.on("gpusim", layout="pointer3d")
        streamed = gpu.stream(rows_per_chunk=4)
        assert base.config.backend == "vectorized"
        assert gpu.config.backend == "gpusim" and gpu.config.layout == "pointer3d"
        assert not gpu.config.streaming
        assert streamed.config.streaming and streamed.config.rows_per_chunk == 4
        assert streamed.in_memory().config.streaming is False
        assert isinstance(streamed, Session)

    def test_configure_overrides(self, grid):
        sess = session(grid=grid).configure(intensity_cutoff=2.0, n_workers=3)
        assert sess.config.intensity_cutoff == 2.0
        assert sess.config.n_workers == 3

    def test_session_requires_grid_or_config(self):
        with pytest.raises(ValidationError):
            session()

    def test_session_rejects_config_plus_overrides(self, grid):
        config = ReconstructionConfig(grid=grid)
        with pytest.raises(ValidationError):
            session(config=config, backend="gpusim")

    def test_properties(self, grid):
        sess = session(grid=grid).on("gpusim")
        assert sess.grid is grid
        assert sess.backend_name == "gpusim"

    def test_run_rejects_batch(self, scan_dir, grid):
        root, _paths = scan_dir
        with pytest.raises(ValidationError, match="run_many"):
            session(grid=grid).run(str(root))

    def test_fluent_chain_end_to_end(self, scan_dir, grid):
        _root, paths = scan_dir
        run = (
            session(grid=grid)
            .on("gpusim", layout="pointer3d")
            .stream(rows_per_chunk=2)
            .run(repro.open(paths[0]))
        )
        assert run.report.backend == "gpusim"
        assert run.report.layout == "pointer3d"
        assert any("streamed from disk" in note for note in run.report.notes)


# --------------------------------------------------------------------------- #
class TestRunResultObservability:
    def test_provenance_contents(self, grid):
        stack = _noisy_stack()
        run = session(grid=grid).on("gpusim").run(stack)
        record = run.provenance()
        assert record["repro_version"] == repro.__version__
        assert record["backend"] == "gpusim"
        assert record["config"] == run.config.to_dict()
        assert record["source"]["kind"] == "stack"
        assert record["plan"].startswith("plan[")
        assert record["timings"]["wall_time"] == run.report.wall_time
        assert record["counters"]["n_chunks"] == run.report.n_chunks
        assert record["created_unix"] > 0

    def test_to_json_round_trips(self, grid):
        run = session(grid=grid).run(_noisy_stack())
        decoded = json.loads(run.to_json())
        assert decoded["config"]["backend"] == "vectorized"
        restored = ReconstructionConfig.from_dict(decoded["config"])
        assert restored == run.config

    def test_config_snapshot_rebuilds_equivalent_run(self, grid):
        stack = _noisy_stack()
        first = session(grid=grid).on("gpusim").run(stack)
        snapshot = json.loads(first.to_json())["config"]
        replay = session(config=ReconstructionConfig.from_dict(snapshot)).run(stack)
        np.testing.assert_array_equal(replay.result.data, first.result.data)

    def test_report_always_carried(self, grid):
        run = session(grid=grid).run(_noisy_stack())
        assert isinstance(run, RunResult)
        assert run.report is not None
        assert run.wall_time == run.report.wall_time
        assert run.data is run.result.data

    def test_save_and_write_profiles(self, grid, tmp_path):
        out = tmp_path / "depth.h5lite"
        text = tmp_path / "profiles.txt"
        run = session(grid=grid).run(
            _noisy_stack(), output_path=str(out), text_path=str(text)
        )
        assert out.exists() and text.exists()
        assert run.output_path == str(out)
        assert run.text_path == str(text)
        assert json.loads(run.to_json())["outputs"]["output_path"] == str(out)

    def test_summary_mentions_source(self, grid):
        run = session(grid=grid).run(_noisy_stack())
        assert "source:" in run.summary()
        assert "backend=vectorized" in run.summary()


# --------------------------------------------------------------------------- #
class TestRunMany:
    def test_run_many_accepts_glob(self, scan_dir, grid):
        root, paths = scan_dir
        batch = session(grid=grid).run_many(str(root / "scan_*.h5lite"), max_workers=2)
        assert isinstance(batch, BatchRunResult)
        assert batch.n_files == len(paths) and batch.n_failed == 0
        assert [item.input_path for item in batch.items] == paths

    def test_run_many_single_source_is_batch_of_one(self, scan_dir, grid):
        _root, paths = scan_dir
        batch = session(grid=grid).run_many(paths[0])
        assert batch.n_files == 1 and batch.n_ok == 1

    def test_run_many_mixed_stacks_and_files(self, scan_dir, grid):
        _root, paths = scan_dir
        stack = _noisy_stack()
        batch = session(grid=grid).run_many([stack, paths[0]])
        assert batch.n_ok == 2
        solo = session(grid=grid).run(stack)
        np.testing.assert_array_equal(batch.items[0].result.data, solo.result.data)

    def test_run_many_provenance(self, scan_dir, grid):
        root, paths = scan_dir
        batch = session(grid=grid).run_many(str(root))
        record = json.loads(batch.to_json())
        assert record["n_files"] == len(paths)
        assert record["config"]["backend"] == "vectorized"
        assert record["source"]["kind"] == "batch"
        assert [item["input_path"] for item in record["items"]] == paths

    def test_run_many_error_isolation(self, scan_dir, grid):
        _root, paths = scan_dir
        bad = paths[0] + ".missing.h5lite"
        batch = session(grid=grid).run_many([paths[0], bad, paths[1]], max_workers=3)
        assert batch.n_ok == 2 and batch.n_failed == 1
        (failure,) = batch.failed
        assert failure.input_path == bad
        assert failure.error

    def test_run_many_isolates_unopenable_entries(self, scan_dir, grid):
        """A bad glob or empty-dir entry fails that item, not the batch."""
        root, paths = scan_dir
        empty = root / "empty_subdir"
        empty.mkdir()
        scheduled = [paths[0], "no-match-*.h5lite", str(empty), paths[1]]
        batch = session(grid=grid).run_many(scheduled, max_workers=2)
        assert batch.n_files == 4
        assert batch.n_ok == 2 and batch.n_failed == 2
        assert [item.ok for item in batch.items] == [True, False, False, True]
        assert "matched no files" in batch.items[1].error
        assert "contains no .h5lite" in batch.items[2].error
        record = json.loads(batch.to_json())
        assert record["items"][1]["input_path"] == "no-match-*.h5lite"

    def test_run_many_takes_file_sources_literally(self, scan_dir, grid):
        """A FileSource entry is never glob- or directory-expanded: one item
        per entry, failures recorded per entry."""
        root, paths = scan_dir
        scheduled = [paths[0], str(root), "nomatch-*.h5lite"]
        batch = session(grid=grid).run_many([FileSource(path) for path in scheduled])
        assert batch.n_files == 3
        assert [item.input_path for item in batch.items] == scheduled
        assert [item.ok for item in batch.items] == [True, False, False]

    def test_run_many_empty(self, grid):
        batch = session(grid=grid).run_many([])
        assert batch.n_files == 0 and batch.wall_time == 0.0
        assert json.loads(batch.to_json())["items"] == []


# --------------------------------------------------------------------------- #
class TestFileRuns:
    """``Session.run`` on an ``.h5lite`` path."""

    def test_writes_stack_and_brightest_pixel_profile(
        self, point_source_stack, depth_grid, tmp_path
    ):
        stack, _ = point_source_stack
        path = tmp_path / "scan.h5lite"
        out = tmp_path / "depth.h5lite"
        text = tmp_path / "profiles.txt"
        save_wire_scan(path, stack)
        run = session(grid=depth_grid).run(str(path), output_path=str(out), text_path=str(text))
        assert run.result.total_intensity() > 0

        loaded = load_depth_resolved(out)
        np.testing.assert_array_equal(loaded.data, run.result.data)
        assert loaded.grid == run.result.grid

        depths, profiles = read_depth_profiles(text)
        (pixel, profile), = profiles.items()
        totals = run.result.data.sum(axis=0)
        assert pixel == np.unravel_index(int(totals.argmax()), totals.shape)
        np.testing.assert_allclose(profile, run.result.depth_profile(*pixel), rtol=1e-6)
        np.testing.assert_allclose(depths, depth_grid.centers)

    def test_writes_explicit_text_pixels(self, point_source_stack, depth_grid, tmp_path):
        stack, _ = point_source_stack
        path = tmp_path / "scan.h5lite"
        text = tmp_path / "profiles.txt"
        save_wire_scan(path, stack)
        session(grid=depth_grid).run(str(path), text_path=str(text), text_pixels=[(0, 0), (1, 1)])
        _, profiles = read_depth_profiles(text)
        assert set(profiles) == {(0, 0), (1, 1)}

    def test_missing_file_raises_h5lite_error(self, grid, tmp_path):
        with pytest.raises(H5LiteError):
            session(grid=grid).run(str(tmp_path / "nope.h5lite"))

    @pytest.mark.parametrize("run", RUNS)
    @pytest.mark.parametrize("streaming", [False, True])
    def test_file_run_equals_in_memory_run(self, run, streaming, grid, tmp_path):
        stack = _noisy_stack(masked=True)
        path = tmp_path / "scan.h5lite"
        save_wire_scan(path, stack)
        config = ReconstructionConfig(
            grid=grid, rows_per_chunk=2, subtract_background=True, **RUNS[run],
        )
        in_memory = session(config=config).run(stack)
        from_file = session(config=config.with_overrides(streaming=streaming)).run(str(path))
        np.testing.assert_array_equal(from_file.result.data, in_memory.result.data)
        assert from_file.report.n_chunks == in_memory.report.n_chunks
        assert from_file.report.n_active_pixels == in_memory.report.n_active_pixels
        streamed = any("streamed from disk" in note for note in from_file.report.notes)
        assert streamed == streaming

    def test_new_api_emits_no_warnings(self, grid, tmp_path):
        path = tmp_path / "scan.h5lite"
        save_wire_scan(path, _noisy_stack())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sess = session(grid=grid).on("gpusim").stream(rows_per_chunk=2)
            sess.run(str(path))
            sess.run_many([str(path)])
            open_source(str(path))
