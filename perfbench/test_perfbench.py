"""Tests of the benchmark's own logic (not of the program it measures)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import corpus
import measure
import run as bench
import scan_workloads
import serve_workload
from spans import Span, Tracer, covered, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _generate(out_dir, hash_seed: str) -> None:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(HERE, "corpus.py"), "--workload",
                    "dense-scan", "--seed", "7", "--out", str(out_dir)],
                   check=True, env=env, timeout=300)


def test_corpus_is_byte_identical_across_hash_seeds(tmp_path):
    _generate(tmp_path / "a", "1")
    _generate(tmp_path / "b", "2")
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    assert len(names) == corpus.SPECS["dense-scan"].n_files + 1
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_tail_percentile_needs_ten_samples_beyond():
    assert measure.tail_percentile(list(range(99))) is None
    tail = measure.tail_percentile([float(i) for i in range(100)])
    assert (tail["pct"], tail["beyond"], tail["n"]) == (90.0, 10, 100)
    assert tail["value"] == pytest.approx(89.1)
    assert measure.tail_percentile(list(range(999)))["pct"] == 90.0
    tail = measure.tail_percentile(list(range(1000)))
    assert (tail["pct"], tail["beyond"]) == (99.0, 10)


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        Span(1, "engine.execute", 0.0, 10.0, None, "r"),
        Span(2, "io.load_rows", 1.0, 3.0, 1, "r"),
        Span(3, "kernel.execute_chunk", 2.0, 5.0, 1, "r"),   # overlaps span 2
        Span(4, "kernel.drain", 8.0, 12.0, 1, "r"),          # clipped at 10
        Span(5, "io.position_image", 2.5, 3.5, 3, "r"),      # grandchild
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[3] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_tracer_links_parents_and_inherits_the_request_id():
    tracer = Tracer()
    with tracer.span("session", "req-1"):
        with tracer.span("engine.execute"):
            with tracer.span("kernel.execute_chunk"):
                pass
    with tracer.span("other"):
        pass
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["kernel.execute_chunk"].parent == by_name["engine.execute"].id
    assert by_name["engine.execute"].parent == by_name["session"].id
    assert {by_name[n].request for n in ("session", "engine.execute",
                                         "kernel.execute_chunk")} == {"req-1"}
    assert by_name["other"].parent is None and by_name["other"].request is None
    off = Tracer(enabled=False)
    with off.span("session", "req"):
        pass
    assert off.spans == []


def test_result_digest_equals_content_digest_without_a_copy():
    import numpy as np

    from repro.core.depth_grid import DepthGrid
    from repro.core.result import DepthResolvedStack

    data = np.random.default_rng(3).random((5, 4, 6))
    stack = DepthResolvedStack(data=data, grid=DepthGrid.from_range(0.0, 100.0, 5))
    assert measure.result_digest(stack) == stack.content_digest()


@pytest.fixture()
def tiny_scan(tmp_path):
    from repro.io.image_stack import save_wire_scan

    spec = corpus.CorpusSpec(index=99, n_files=1, n_positions=9, n_rows=6, n_cols=10,
                             n_spots=3, pixel_fraction=1.0)
    path = str(tmp_path / "tiny.h5lite")
    save_wire_scan(path, corpus.make_stack(spec, seed=1, file_index=0))
    return path


def test_planted_digest_mismatch_raises_error_rate(tiny_scan):
    workload = scan_workloads.WORKLOADS["dense-scan"]
    clean = scan_workloads.ScanRun(workload, [tiny_scan], 1, 0.1, False,
                                   measure.Calibration(size=100))
    clean.run()
    assert clean.failures == [] and clean.attempted == 4
    planted = scan_workloads.ScanRun(workload, [tiny_scan], 1, 0.1, False,
                                     measure.Calibration(size=100))
    planted.setup()
    planted.reference[(0, "threads")] = "0" * 64
    planted.timed()
    assert len(planted.failures) == 1 and "differs from its reference" in planted.failures[0]
    assert len(planted.failures) / planted.attempted > 0


def test_a_seed_always_yields_the_same_request_schedule():
    plan = serve_workload.schedule(5, 4, 2.0)
    assert plan == serve_workload.schedule(5, 4, 2.0)
    assert plan != serve_workload.schedule(6, 4, 2.0)
    n_sweeps = round(2.0 * serve_workload.SWEEPS_PER_SECOND)
    assert len(plan["sweeps"]) == n_sweeps
    assert len(plan["hits"]) == serve_workload.HITS_PER_SWEEP * n_sweeps
    assert plan["sweeps"][:3] == [(plan["sweeps"][0][0], 1.0),
                                  ((plan["sweeps"][0][0] + 1) % 4, 1.001),
                                  ((plan["sweeps"][0][0] + 2) % 4, 1.002)]
    assert sorted(plan["primed"]) == [(f, c) for f in range(4) for c in (0.0, 0.5)]
    scans = scan_workloads.schedule(5, 4, 8)
    assert scans == scan_workloads.schedule(5, 4, 8)
    assert [order for _f, order in scans] == [("serial", "threads")] * 4 + [("threads", "serial")] * 4
    assert sorted(f for f, _o in scans) == [0, 0, 1, 1, 2, 2, 3, 3]


def test_benchmark_json_is_the_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == bench.definition()


def test_run_fails_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".corpus", ".out", ".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
