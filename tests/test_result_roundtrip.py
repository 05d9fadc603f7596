"""The persistent RunResult round-trip: ``run.save(path)`` → ``repro.load(path)``.

The acceptance bar for the results-side redesign: stack data round-trips
bitwise-identical and the provenance record survives intact (modulo the
``outputs`` block, which the save itself legitimately fills in) on every
backend and executor.
"""

import json
import os

import numpy as np
import pytest

import repro
from repro.core.session import BatchRunResult, load, session
from repro.io.image_stack import (
    load_depth_resolved,
    load_run_payload,
    save_depth_resolved,
    save_wire_scan,
)
from repro.utils.validation import ValidationError
from tests.helpers import RUNS, make_tiny_stack


def _provenance_modulo_outputs(run):
    record = run.provenance()
    record.pop("outputs")
    return record


class TestSaveLoadRoundTrip:
    # ``multiprocess`` is a retired name the config resolves to the
    # vectorized backend on the threads executor
    @pytest.mark.parametrize("backend", list(RUNS) + ["multiprocess"])
    def test_round_trip_all_backends(self, backend, tmp_path, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        if backend in RUNS:
            run = session(grid=depth_grid, **RUNS[backend]).run(stack)
        else:
            with pytest.warns(DeprecationWarning, match=backend):
                run = session(grid=depth_grid, backend=backend).run(stack)
            assert (run.config.backend, run.config.executor) == ("vectorized", "threads")
        path = tmp_path / f"{backend}.h5lite"

        loaded = repro.load(run.save(path).output_path)

        # bitwise-identical stack data, identical grid
        assert loaded.result.data.tobytes() == run.result.data.tobytes()
        assert loaded.result.grid == run.result.grid
        # provenance equal modulo outputs — as dicts and as JSON documents
        assert _provenance_modulo_outputs(loaded) == _provenance_modulo_outputs(run)
        assert json.dumps(loaded.provenance()["config"], sort_keys=True) == json.dumps(
            run.provenance()["config"], sort_keys=True
        )
        # the full report survives, not just the provenance summary
        assert loaded.report.to_dict() == run.report.to_dict()
        assert loaded.config == run.config

    def test_output_and_text_paths_survive(self, tmp_path, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        text_path = tmp_path / "profiles.txt"
        out_path = tmp_path / "depth.h5lite"
        run = session(grid=depth_grid).run(
            stack, output_path=out_path, text_path=text_path, text_pixels=[(1, 2), (3, 4)]
        )

        loaded = load(out_path)
        assert loaded.output_path == str(out_path)
        assert loaded.text_path == str(text_path)
        assert loaded.profile_pixels == [[1, 2], [3, 4]]

    def test_default_profile_pixel_recorded(self, tmp_path, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        run = session(grid=depth_grid).run(stack)
        run.write_profiles(tmp_path / "p.txt")
        assert run.profile_pixels is not None and len(run.profile_pixels) == 1
        assert run.provenance()["outputs"]["profile_pixels"] == run.profile_pixels

    def test_load_rejects_record_less_file(self, tmp_path, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        run = session(grid=depth_grid).run(stack)
        bare = tmp_path / "bare.h5lite"
        save_depth_resolved(bare, run.result)  # no run record
        with pytest.raises(ValidationError, match="load_depth_resolved"):
            load(bare)
        # the bare reader still handles both flavours
        assert load_depth_resolved(bare).total_intensity() == run.result.total_intensity()

    def test_load_payload_reads_record_in_one_open(self, tmp_path, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        run = session(grid=depth_grid).run(stack)
        path = tmp_path / "full.h5lite"
        run.save(path)
        result, record = load_run_payload(path)
        np.testing.assert_array_equal(result.data, run.result.data)
        assert record["report"]["backend"] == "vectorized"
        assert record["outputs"]["output_path"] == str(path)

    def test_old_reader_still_reads_new_files(self, tmp_path, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        run = session(grid=depth_grid).run(stack)
        path = tmp_path / "compat.h5lite"
        run.save(path)
        np.testing.assert_array_equal(load_depth_resolved(path).data, run.result.data)


class TestBatchPersistence:
    def test_save_all_then_load_dir(self, tmp_path, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        batch = session(grid=depth_grid).run_many([stack, stack])
        out_dir = tmp_path / "runs"
        paths = batch.save_all(out_dir)
        assert len(paths) == 2 and all(os.path.exists(p) for p in paths)
        # collision suffixing: identical stems must not overwrite
        assert len(set(paths)) == 2

        loaded = BatchRunResult.load_dir(out_dir)
        assert loaded.n_ok == 2 and loaded.n_failed == 0
        assert loaded.config == batch.config
        assert loaded.backend == "vectorized"
        for item, original in zip(loaded.succeeded, batch.succeeded):
            assert item.result.data.tobytes() == original.result.data.tobytes()
            assert item.run is not None and item.run.config == batch.config

    def test_save_all_requires_kept_results(self, tmp_path, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        batch = session(grid=depth_grid).run_many([stack], keep_results=False)
        with pytest.raises(ValidationError, match="keep_results"):
            batch.save_all(tmp_path / "nope")

    def test_load_dir_skips_foreign_files_and_captures_bad_ones(
        self, tmp_path, point_source_stack, depth_grid
    ):
        stack, _ = point_source_stack
        run = session(grid=depth_grid).run(stack)
        out_dir = tmp_path / "mixed"
        os.makedirs(out_dir)
        run.save(out_dir / "good_depth.h5lite")
        # a wire-scan input sitting alongside must be skipped, not failed
        save_wire_scan(out_dir / "input_scan.h5lite", stack)
        # a corrupt .h5lite file is captured as a failed item (per-item
        # isolation, like run_many) — never silently dropped
        (out_dir / "junk.h5lite").write_bytes(b"garbage")

        loaded = BatchRunResult.load_dir(out_dir)
        assert loaded.n_ok == 1 and loaded.n_failed == 1
        assert loaded.succeeded[0].input_path.endswith("good_depth.h5lite")
        assert loaded.failed[0].input_path.endswith("junk.h5lite")
        assert "H5LiteError" in loaded.failed[0].error

    def test_load_dir_captures_truncated_run_file(self, tmp_path):
        stack = make_tiny_stack(n_rows=8, n_cols=8)
        run = session(grid=repro.DepthGrid.from_range(0.0, 100.0, 8)).run(stack)
        out_dir = tmp_path / "cut"
        os.makedirs(out_dir)
        run.save(out_dir / "good.h5lite")
        cut = out_dir / "cut.h5lite"
        run.save(cut)
        # the data section ends inside the depth cube
        os.truncate(cut, os.path.getsize(cut) - 4000)

        loaded = BatchRunResult.load_dir(out_dir)
        assert loaded.n_ok == 1 and loaded.n_failed == 1
        assert loaded.succeeded[0].input_path.endswith("good.h5lite")
        assert loaded.failed[0].input_path.endswith("cut.h5lite")
        assert loaded.failed[0].error.startswith("H5LiteError: truncated h5lite file")

    def test_load_dir_captures_bogus_header_length(self, tmp_path):
        stack = make_tiny_stack(n_rows=8, n_cols=8)
        run = session(grid=repro.DepthGrid.from_range(0.0, 100.0, 8)).run(stack)
        out_dir = tmp_path / "bogus"
        os.makedirs(out_dir)
        run.save(out_dir / "good.h5lite")
        # a header length of 2^40: sizing that read raised MemoryError
        (out_dir / "bogus.h5lite").write_bytes(
            b"H5LITE01" + np.uint64(2**40).tobytes() + b'{"tree": {}}'
        )

        loaded = BatchRunResult.load_dir(out_dir)
        assert loaded.n_ok == 1 and loaded.n_failed == 1
        assert loaded.succeeded[0].input_path.endswith("good.h5lite")
        assert loaded.failed[0].input_path.endswith("bogus.h5lite")
        assert loaded.failed[0].error.startswith("H5LiteError: truncated h5lite header in ")

    def test_load_dir_mixed_configs_drop_shared_config(self, tmp_path, point_source_stack):
        stack, _ = point_source_stack
        out_dir = tmp_path / "mixed_cfg"
        os.makedirs(out_dir)
        grid_a = repro.DepthGrid.from_range(0.0, 100.0, 25)
        grid_b = repro.DepthGrid.from_range(0.0, 100.0, 20)
        session(grid=grid_a).run(stack).save(out_dir / "a.h5lite")
        session(grid=grid_b).run(stack).save(out_dir / "b.h5lite")
        loaded = BatchRunResult.load_dir(out_dir)
        assert loaded.n_ok == 2
        assert loaded.config is None

    def test_load_dir_requires_directory(self, tmp_path):
        with pytest.raises(ValidationError, match="directory"):
            BatchRunResult.load_dir(tmp_path / "missing")


class TestSaveFailureRollback:
    def test_failed_save_does_not_claim_output(self, tmp_path, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        run = session(grid=depth_grid).run(stack)
        good = tmp_path / "good.h5lite"
        run.save(good)
        with pytest.raises(OSError):
            run.save(tmp_path / "no_such_dir" / "depth.h5lite")
        # provenance must keep pointing at the last file actually written
        assert run.output_path == str(good)
        assert run.provenance()["outputs"]["output_path"] == str(good)


class TestLoadDirSkipsLegacyFiles:
    def test_record_less_depth_files_are_skipped_not_failed(
        self, tmp_path, point_source_stack, depth_grid
    ):
        stack, _ = point_source_stack
        run = session(grid=depth_grid).run(stack)
        out_dir = tmp_path / "legacy"
        os.makedirs(out_dir)
        run.save(out_dir / "with_record.h5lite")
        save_depth_resolved(out_dir / "legacy_bare.h5lite", run.result)  # pre-redesign shape
        loaded = BatchRunResult.load_dir(out_dir)
        assert loaded.n_ok == 1 and loaded.n_failed == 0

    def test_corrupt_run_file_is_a_failed_item(self, tmp_path, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        run = session(grid=depth_grid).run(stack)
        out_dir = tmp_path / "corrupt"
        os.makedirs(out_dir)
        run.save(out_dir / "ok.h5lite")
        # a run file whose record lost its config block: captured, not raised
        from repro.io.h5lite import H5LiteFile
        from repro.io.image_stack import RUN_RECORD_ATTR

        bad_path = out_dir / "bad.h5lite"
        run.save(bad_path)
        with H5LiteFile(bad_path, "r") as fh:
            pass  # ensure readable before corrupting
        record = run._run_record()
        record.pop("config")
        save_depth_resolved(bad_path, run.result, run_record=record)
        loaded = BatchRunResult.load_dir(out_dir)
        assert loaded.n_ok == 1 and loaded.n_failed == 1
        assert "config" in loaded.failed[0].error


class TestMovedFiles:
    def test_loaded_output_path_tracks_the_actual_file(
        self, tmp_path, point_source_stack, depth_grid
    ):
        import shutil

        stack, _ = point_source_stack
        run = session(grid=depth_grid).run(stack)
        original = tmp_path / "depth.h5lite"
        run.save(original)
        moved = tmp_path / "moved.h5lite"
        shutil.move(str(original), str(moved))
        loaded = load(moved)
        # provenance must describe the file that exists, not the save-time path
        assert loaded.output_path == str(moved)

    def test_non_object_header_file_is_a_failed_item(
        self, tmp_path, point_source_stack, depth_grid
    ):
        stack, _ = point_source_stack
        out_dir = tmp_path / "oddball"
        os.makedirs(out_dir)
        session(grid=depth_grid).run(stack).save(out_dir / "ok.h5lite")
        body = b"[1, 2, 3]"
        (out_dir / "list.h5lite").write_bytes(
            b"H5LITE01" + np.uint64(len(body)).tobytes() + body
        )
        loaded = BatchRunResult.load_dir(out_dir)
        assert loaded.n_ok == 1 and loaded.n_failed == 1
