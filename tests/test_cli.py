"""Tests for the command-line entry points."""

import json

import numpy as np
import pytest

from repro.cli import (
    main_analyze,
    main_backends,
    main_batch,
    main_benchmark,
    main_cache,
    main_generate,
    main_reconstruct,
)
from repro.core.session import load
from repro.io.image_stack import load_depth_resolved, load_wire_scan
from tests.helpers import sent_bands_to_the_pool


class TestGenerate:
    def test_generate_grain_file(self, tmp_path, capsys):
        out = tmp_path / "grains.h5lite"
        code = main_generate([str(out), "--kind", "grains", "--rows", "16", "--cols", "16",
                              "--positions", "41", "--grains", "2", "--seed", "3"])
        assert code == 0
        assert out.exists()
        stack = load_wire_scan(out)
        assert stack.shape == (41, 16, 16)
        assert "grain boundaries" in capsys.readouterr().out

    def test_generate_benchmark_file(self, tmp_path, capsys):
        out = tmp_path / "bench.h5lite"
        code = main_generate([str(out), "--kind", "benchmark", "--size-label", "0.1MB",
                              "--pixel-fraction", "0.5"])
        assert code == 0
        stack = load_wire_scan(out)
        assert stack.pixel_mask is not None
        assert "pixel fraction 50%" in capsys.readouterr().out


class TestReconstruct:
    def test_end_to_end_cli(self, tmp_path, capsys):
        scan_path = tmp_path / "scan.h5lite"
        main_generate([str(scan_path), "--kind", "benchmark", "--size-label", "0.05MB"])
        out_path = tmp_path / "depth.h5lite"
        text_path = tmp_path / "profiles.txt"
        code = main_reconstruct([
            str(scan_path), "-o", str(out_path), "--text", str(text_path),
            "--depth-bins", "30", "--backend", "gpusim", "--layout", "flat1d",
        ])
        assert code == 0
        assert out_path.exists() and text_path.exists()
        result = load_depth_resolved(out_path)
        assert result.grid.n_bins == 30
        assert result.total_intensity() > 0
        output = capsys.readouterr().out
        assert "backend=gpusim" in output
        assert "peaks at" in output

    def test_cli_backend_choices_enforced(self, tmp_path):
        with pytest.raises(SystemExit):
            main_reconstruct([str(tmp_path / "x.h5lite"), "--backend", "quantum"])

    def test_provenance_record_written(self, tmp_path, capsys):
        scan_path = tmp_path / "scan.h5lite"
        main_generate([str(scan_path), "--kind", "benchmark", "--size-label", "0.05MB"])
        record_path = tmp_path / "run.json"
        code = main_reconstruct([
            str(scan_path), "--backend", "gpusim", "--depth-bins", "20",
            "--provenance", str(record_path),
        ])
        assert code == 0
        record = json.loads(record_path.read_text())
        assert record["backend"] == "gpusim"
        assert record["config"]["grid"]["n_bins"] == 20
        assert record["source"]["path"] == str(scan_path)
        assert record["plan"].startswith("plan[")
        assert "wrote provenance record" in capsys.readouterr().out

    def test_streaming_flag_matches_in_memory(self, tmp_path, capsys):
        """Every file run streams: the retired ``--streaming`` still parses,
        warns once and changes nothing, and 2-row windows give the same
        output as the default windows."""
        scan_path = tmp_path / "scan.h5lite"
        main_generate([str(scan_path), "--kind", "benchmark", "--size-label", "0.05MB"])
        default_path = tmp_path / "default.h5lite"
        retired_path = tmp_path / "retired.h5lite"
        windows_path = tmp_path / "windows.h5lite"
        assert main_reconstruct([str(scan_path), "-o", str(default_path)]) == 0
        with pytest.warns(DeprecationWarning, match="--streaming") as caught:
            assert main_reconstruct([str(scan_path), "-o", str(retired_path), "--streaming"]) == 0
        assert len(caught) == 1
        assert main_reconstruct(
            [str(scan_path), "-o", str(windows_path), "--rows-per-chunk", "2"]
        ) == 0
        default = load(str(default_path))
        assert load(str(retired_path)).config == default.config
        assert any("streamed from disk" in note for note in default.report.notes)
        for path in (retired_path, windows_path):
            np.testing.assert_array_equal(load_depth_resolved(path).data, default.result.data)

    def test_executor_flag_and_retired_backend_match_serial(self, tmp_path, capsys, pool_bands):
        """``--executor threads`` and the retired ``--backend threaded``, which
        now means the same run, write the serial run's output bit for bit."""
        scan_path = tmp_path / "scan.h5lite"
        main_generate([str(scan_path), "--kind", "benchmark", "--size-label", "0.05MB"])
        serial_path = tmp_path / "serial.h5lite"
        threads_path = tmp_path / "threads.h5lite"
        retired_path = tmp_path / "retired.h5lite"
        assert main_reconstruct([str(scan_path), "-o", str(serial_path)]) == 0
        assert main_reconstruct(
            [str(scan_path), "-o", str(threads_path), "--executor", "threads"]
        ) == 0
        with pytest.warns(DeprecationWarning, match="threaded"):
            assert main_reconstruct(
                [str(scan_path), "-o", str(retired_path), "--backend", "threaded"]
            ) == 0
        serial = load(str(serial_path))
        assert (serial.config.backend, serial.config.executor) == ("vectorized", "serial")
        for path in (threads_path, retired_path):
            run = load(str(path))
            assert (run.config.backend, run.config.executor) == ("vectorized", "threads")
            assert run.result.data.tobytes() == serial.result.data.tobytes()
        assert len(pool_bands) == 2 and sent_bands_to_the_pool(pool_bands)


class TestBenchmarkCli:
    def test_fig8_report(self, capsys):
        code = main_benchmark(["fig8", "--scale", str(1.0 / 131072.0)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 8" in out
        for label in ("2.1G", "2.7G", "3.6G", "5.2G"):
            assert label in out
        assert "cpu_reference" in out and "gpusim" in out

    def test_fig4_report(self, capsys):
        code = main_benchmark(["fig4", "--scale", str(1.0 / 131072.0)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "flat1d" in out and "pointer3d" in out
        assert "25%" in out and "100%" in out

    def test_headline_report(self, capsys):
        code = main_benchmark(["headline", "--scale", str(1.0 / 131072.0)])
        assert code == 0
        out = capsys.readouterr().out
        assert "GPU/CPU time ratio" in out


class TestBackendsCli:
    def test_table_lists_builtins_and_capabilities(self, capsys):
        assert main_backends([]) == 0
        out = capsys.readouterr().out
        for name in ("cpu_reference", "vectorized", "gpusim"):
            assert name in out
        assert "threaded" not in out and "workers" not in out
        assert "streaming" not in out  # no capability column: all run files
        assert "3 backend(s) registered" in out

    def test_json_payload(self, capsys):
        assert main_backends(["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in payload}
        assert sorted(by_name) == ["cpu_reference", "gpusim", "vectorized"]
        for entry in payload:  # no capability flag, no worker column
            assert set(entry) == {"name", "module", "description"}
        assert by_name["vectorized"]["module"] == "repro.core.backends.vectorized"


class TestBatchCli:
    def test_batch_reconstructs_many_files(self, tmp_path, capsys):
        paths = []
        for index in range(3):
            path = tmp_path / f"scan_{index}.h5lite"
            main_generate([str(path), "--kind", "benchmark", "--size-label", "0.05MB",
                           "--seed", str(index)])
            paths.append(str(path))
        capsys.readouterr()
        out_dir = tmp_path / "depth"
        with pytest.warns(DeprecationWarning, match="--streaming") as caught:
            code = main_batch(paths + ["-d", str(out_dir), "-j", "3", "--depth-bins", "20",
                                       "--streaming"])
        assert code == 0 and len(caught) == 1
        out = capsys.readouterr().out
        assert "3/3 ok" in out
        for index in range(3):
            result = load_depth_resolved(out_dir / f"scan_{index}_depth.h5lite")
            assert result.grid.n_bins == 20
            assert result.total_intensity() > 0

    def test_batch_reports_failures_and_exits_nonzero(self, tmp_path, capsys):
        good = tmp_path / "good.h5lite"
        main_generate([str(good), "--kind", "benchmark", "--size-label", "0.05MB"])
        bad = tmp_path / "bad.h5lite"
        bad.write_bytes(b"garbage")
        capsys.readouterr()
        code = main_batch([str(good), str(bad)])
        assert code == 1
        out = capsys.readouterr().out
        assert "1/2 ok" in out
        assert "FAIL" in out and "H5LiteError" in out


class TestAnalyzeCli:
    @pytest.fixture()
    def depth_file(self, tmp_path):
        scan_path = tmp_path / "scan.h5lite"
        main_generate([str(scan_path), "--kind", "benchmark", "--size-label", "0.05MB"])
        out_path = tmp_path / "depth.h5lite"
        main_reconstruct([str(scan_path), "-o", str(out_path), "--depth-bins", "25"])
        return out_path

    def test_list_ops(self, capsys):
        assert main_analyze(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("peaks", "fwhm", "grain_boundaries", "depth_resolution"):
            assert name in out
        assert "op(s) registered" in out

    def test_list_ops_json(self, capsys):
        assert main_analyze(["--list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in payload}
        assert by_name["peaks"]["parameters"]["min_relative_height"] == 0.1
        assert by_name["fwhm"]["module"] == "repro.core.ops"

    def test_analyze_matches_api_json(self, depth_file, capsys):
        import repro

        assert main_analyze([str(depth_file), "peaks", "fwhm"]) == 0
        cli_document = capsys.readouterr().out.rstrip("\n")
        api_document = repro.analysis("peaks", "fwhm").apply(str(depth_file)).to_json()
        assert cli_document == api_document
        payload = json.loads(cli_document)
        assert [record["op"] for record in payload["results"]] == ["peaks", "fwhm"]
        assert payload["provenance"]["run"]["backend"] == "vectorized"

    def test_analyze_parameterized_op(self, depth_file, capsys):
        assert main_analyze([str(depth_file), 'peaks:{"min_relative_height": 0.5}']) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["params"] == {"min_relative_height": 0.5}

    def test_analyze_writes_output_file(self, depth_file, tmp_path, capsys):
        out = tmp_path / "analysis.json"
        assert main_analyze([str(depth_file), "total_intensity", "-o", str(out)]) == 0
        assert "wrote analysis record" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["results"][0]["value"] > 0

    def test_analyze_requires_input_and_ops(self, depth_file):
        with pytest.raises(SystemExit):
            main_analyze([])
        with pytest.raises(SystemExit):
            main_analyze([str(depth_file)])

    def test_bad_json_params_rejected(self, depth_file):
        with pytest.raises(SystemExit, match="invalid JSON parameters"):
            main_analyze([str(depth_file), "peaks:{broken"])
        with pytest.raises(SystemExit, match="must be a JSON object"):
            main_analyze([str(depth_file), "peaks:[1]"])

    def test_graph_flag_is_unrecognized(self, depth_file, capsys):
        with pytest.raises(SystemExit) as info:
            main_analyze([str(depth_file), "peaks", "--graph"])
        assert info.value.code == 2
        assert "unrecognized arguments: --graph" in capsys.readouterr().err

    def test_directory_input_reports_failed_items(self, depth_file, tmp_path, capsys):
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "good.h5lite").write_bytes(depth_file.read_bytes())
        assert main_analyze([str(runs), "total_intensity"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_ok"] == 1 and payload["n_failed"] == 0

        (runs / "corrupt.h5lite").write_text("junk")
        assert main_analyze([str(runs), "total_intensity"]) == 1
        err = capsys.readouterr().err
        assert "corrupt.h5lite" in err
        assert "1 of 2 item(s) failed" in err


class TestCache:
    def _generate(self, tmp_path):
        scan = tmp_path / "scan.h5lite"
        main_generate([str(scan), "--kind", "benchmark", "--size-label", "0.05MB"])
        return str(scan)

    def test_reconstruct_cache_flag_hits_on_second_run(self, tmp_path, capsys):
        scan = self._generate(tmp_path)
        root = str(tmp_path / "cache")
        assert main_reconstruct([scan, "--cache-root", root]) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert main_reconstruct([scan, "--cache-root", root]) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_batch_cache_flag_marks_cached_items(self, tmp_path, capsys):
        scan = self._generate(tmp_path)
        root = str(tmp_path / "cache")
        assert main_batch([scan, "--cache-root", root]) == 0
        capsys.readouterr()
        assert main_batch([scan, "--cache-root", root]) == 0
        assert "1 cached" in capsys.readouterr().out

    def test_stats_verify_prune_clear_round_trip(self, tmp_path, capsys):
        scan = self._generate(tmp_path)
        root = str(tmp_path / "cache")
        main_reconstruct([scan, "--cache-root", root])
        capsys.readouterr()

        assert main_cache(["--root", root, "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_runs"] == 1 and stats["total_bytes"] > 0

        assert main_cache(["--root", root, "verify"]) == 0
        assert "repaired (deleted) 0" in capsys.readouterr().out

        assert main_cache(["--root", root, "prune", "--older-than", "30", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 0

        assert main_cache(["--root", root, "clear", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 1

    def test_verify_reports_and_deletes_broken_entries(self, tmp_path, capsys):
        import glob
        import os

        scan = self._generate(tmp_path)
        root = str(tmp_path / "cache")
        main_reconstruct([scan, "--cache-root", root])
        entry = glob.glob(os.path.join(root, "runs", "*", "*.h5lite"))[0]
        with open(entry, "r+b") as fh:
            fh.write(b"garbage!")
        capsys.readouterr()
        assert main_cache(["--root", root, "verify"]) == 1  # non-zero: repairs made
        assert "repaired (deleted) 1" in capsys.readouterr().out
        assert not os.path.exists(entry)

    def test_prune_requires_a_bound(self, tmp_path):
        with pytest.raises(SystemExit):
            main_cache(["--root", str(tmp_path), "prune"])


class TestOneLineErrors:
    """Typed user errors print as one ``error: …`` line, never a traceback.

    Each case runs in a fresh interpreter so stderr is exactly what a shell
    user sees.
    """

    MISSING = "/nonexistent-dir/missing.h5lite"

    def _run(self, tmp_path, *args):
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, timeout=120,
            cwd=str(tmp_path), env=dict(os.environ, PYTHONPATH=src),
        )

    @pytest.mark.parametrize(
        "entry, argv, code",
        [
            ("main_reconstruct", [MISSING], 2),
            ("main_analyze", [MISSING, "peaks"], 2),
            ("main_reconstruct", [MISSING, "--rows-per-chunk", "0"], 2),
            # a batch isolates per-file failures: a FAIL row and exit 1
            ("main_batch", [MISSING], 1),
            ("main_benchmark", ["fig8", "--repeats", "0"], 2),
            ("main_benchmark", ["fig8", "--scale", "-1"], 2),
        ],
        ids=["reconstruct", "analyze", "reconstruct-invalid-option", "batch",
             "benchmark-repeats", "benchmark-scale"],
    )
    def test_missing_file_has_no_traceback(self, tmp_path, entry, argv, code):
        proc = self._run(
            tmp_path, "-c",
            f"from repro.cli import {entry}; raise SystemExit({entry}({argv!r}))",
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code == 2:
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "entry, argv",
        [
            ("main_generate", ["/nonexistent-dir/x.h5lite", "--rows", "4", "--cols", "3",
                               "--positions", "5"]),
            ("main_reconstruct", ["scan.h5lite", "-o", "/nonexistent-dir/o.h5lite"]),
            ("main_reconstruct", ["scan.h5lite", "--provenance", "/nonexistent-dir/p.json"]),
        ],
        ids=["generate", "reconstruct-output", "reconstruct-provenance"],
    )
    def test_output_into_missing_directory_has_no_traceback(self, tmp_path, entry, argv):
        from repro.io.image_stack import save_wire_scan
        from tests.helpers import make_tiny_stack

        save_wire_scan(str(tmp_path / "scan.h5lite"), make_tiny_stack())
        proc = self._run(
            tmp_path, "-c",
            f"from repro.cli import {entry}; raise SystemExit({entry}({argv!r}))",
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "/nonexistent-dir/" in proc.stderr

    @pytest.mark.parametrize(
        "entry, argv",
        [
            ("main_reconstruct", ["scan.h5lite", "-o", "out.h5lite"]),
            ("main_reconstruct", ["scan.h5lite", "-o", "out.h5lite", "--rows-per-chunk", "4"]),
            ("main_analyze", ["run.h5lite", "peaks"]),
        ],
        ids=["reconstruct", "reconstruct-streaming", "analyze"],
    )
    def test_truncated_file_has_no_traceback(self, tmp_path, entry, argv):
        import os

        import repro
        from repro.io.image_stack import save_wire_scan
        from tests.helpers import make_tiny_stack

        stack = make_tiny_stack(n_rows=8, n_cols=8)
        save_wire_scan(str(tmp_path / "scan.h5lite"), stack)
        grid = repro.DepthGrid.from_range(0.0, 100.0, 8)
        repro.session(grid=grid).run(stack).save(str(tmp_path / "run.h5lite"))
        for name in ("scan.h5lite", "run.h5lite"):
            path = str(tmp_path / name)
            os.truncate(path, os.path.getsize(path) - 100)
        proc = self._run(
            tmp_path, "-c",
            f"from repro.cli import {entry}; raise SystemExit({entry}({argv!r}))",
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: truncated h5lite file ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "entry, argv",
        [
            ("main_reconstruct", ["bogus.h5lite", "-o", "out.h5lite"]),
            ("main_analyze", ["bogus.h5lite", "peaks"]),
        ],
        ids=["reconstruct", "analyze"],
    )
    def test_bogus_header_length_has_no_traceback(self, tmp_path, entry, argv):
        # the magic, then a header length of 2^40 that the file cannot hold
        (tmp_path / "bogus.h5lite").write_bytes(
            b"H5LITE01" + np.uint64(2**40).tobytes() + b'{"tree": {}}'
        )
        proc = self._run(
            tmp_path, "-c",
            f"from repro.cli import {entry}; raise SystemExit({entry}({argv!r}))",
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: truncated h5lite header in ")
        assert proc.stderr.count("\n") == 1

    def test_module_entry_point(self, tmp_path):
        proc = self._run(tmp_path, "-m", "repro.cli", self.MISSING)
        assert proc.returncode == 2
        assert proc.stderr == f"error: no such file: {self.MISSING}\n"
