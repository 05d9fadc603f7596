"""Auto-tuner tests: decision cache, probe, resolution, session surface.

The tuner's contract: ``workers="auto"`` must always resolve to concrete
values before the engine sees them, the decision must be cached per
(machine, workload-shape) under the result-cache root, and the decision —
including an honest *serial* decision — must carry its reason.
"""

import json
import os

import numpy as np
import pytest

from repro.core.config import AUTO, ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.perf.autotune import (
    MIN_PARALLEL_SPEEDUP,
    TUNE_FORMAT_VERSION,
    TuningDecision,
    decision_path,
    load_decision,
    machine_fingerprint,
    resolve_auto_config,
    run_throughput_probe,
    store_decision,
    tune,
    workload_signature,
)


@pytest.fixture()
def grid():
    return DepthGrid.from_range(0.0, 100.0, 25)


def _decision(**overrides):
    defaults = {
        "executor": "threads",
        "n_workers": 4,
        "reason": "test decision",
        "machine": machine_fingerprint(),
        "workload": workload_signature(41, 8, 8, 25),
    }
    defaults.update(overrides)
    return TuningDecision(**defaults)


class TestDecisionRoundTrip:
    def test_to_from_dict(self):
        decision = _decision(probe={"serial_s": 0.1})
        clone = TuningDecision.from_dict(decision.to_dict())
        assert clone == decision

    def test_format_version_stamped(self):
        assert _decision().to_dict()["format_version"] == TUNE_FORMAT_VERSION

    def test_incompatible_version_rejected(self):
        from repro.utils.validation import ValidationError

        data = _decision().to_dict()
        data["format_version"] = TUNE_FORMAT_VERSION + 1
        with pytest.raises(ValidationError):
            TuningDecision.from_dict(data)

    def test_store_load_cycle(self, tmp_path):
        decision = _decision()
        path = store_decision(decision, root=str(tmp_path))
        assert os.path.exists(path)
        assert path.startswith(os.path.join(str(tmp_path), "autotune"))
        loaded = load_decision(decision.machine, decision.workload, root=str(tmp_path))
        assert loaded == decision

    def test_corrupt_file_is_a_miss_and_removed(self, tmp_path):
        decision = _decision()
        path = store_decision(decision, root=str(tmp_path))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert load_decision(decision.machine, decision.workload, root=str(tmp_path)) is None
        assert not os.path.exists(path)

    def test_missing_file_is_a_miss(self, tmp_path):
        assert load_decision(machine_fingerprint(), {"elements_log2": 3}, root=str(tmp_path)) is None


class TestDecisionPath:
    def test_deterministic(self, tmp_path):
        machine = machine_fingerprint()
        workload = workload_signature(41, 8, 8, 25)
        assert decision_path(machine, workload, str(tmp_path)) == decision_path(
            machine, workload, str(tmp_path)
        )

    def test_distinct_workloads_distinct_paths(self, tmp_path):
        machine = machine_fingerprint()
        a = decision_path(machine, workload_signature(41, 8, 8, 25), str(tmp_path))
        b = decision_path(machine, workload_signature(41, 512, 512, 25), str(tmp_path))
        assert a != b

    def test_similar_sizes_share_a_bucket(self):
        # same power-of-two bucket -> same cached decision
        assert workload_signature(41, 8, 8, 25) == workload_signature(41, 8, 9, 25)


class TestTune:
    def test_single_cpu_short_circuits_to_serial(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        decision = tune(41, 8, 8, 25, root=str(tmp_path))
        assert decision.executor == "serial"
        assert decision.n_workers == 1
        assert "single-CPU" in decision.reason
        assert decision.probe == {}  # no probe was run

    def test_decision_is_cached(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        first = tune(41, 8, 8, 25, root=str(tmp_path))
        path = decision_path(first.machine, first.workload, str(tmp_path))
        assert os.path.exists(path)
        # poison the stored reason: a second tune() must serve the file, not re-probe
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["reason"] = "served from cache"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        second = tune(41, 8, 8, 25, root=str(tmp_path))
        assert second.reason == "served from cache"

    def test_parallel_decision_requires_probe_win(self, tmp_path, monkeypatch):
        """With >1 CPUs the probe runs; whatever it decides carries its data."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        decision = tune(41, 8, 8, 25, root=str(tmp_path))
        assert decision.executor in ("serial", "threads")
        assert decision.probe  # the probe record is attached either way
        best = max(decision.probe["thread_speedup"].values())
        if decision.executor == "threads":
            assert best >= MIN_PARALLEL_SPEEDUP
        else:
            assert best < MIN_PARALLEL_SPEEDUP


class TestProbe:
    def test_probe_record_shape(self):
        probe = run_throughput_probe(candidate_workers=[2], repeats=1)
        assert probe["serial_s"] > 0
        assert set(probe["threaded_s"]) == {"2"}
        assert set(probe["thread_speedup"]) == {"2"}
        assert set(probe) == {
            "probe_elements", "repeats", "serial_s", "threaded_s", "thread_speedup",
        }
        from repro.core.workerpool import shutdown_shared_thread_pool

        shutdown_shared_thread_pool()


class TestResolveAutoConfig:
    def test_concrete_config_passes_through(self, grid, tmp_path):
        config = ReconstructionConfig(grid=grid, executor="serial", n_workers=2)
        resolved, decision = resolve_auto_config(config, 41, 8, 8, root=str(tmp_path))
        assert resolved is config
        assert decision is None

    def test_auto_markers_replaced(self, grid, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        config = ReconstructionConfig(grid=grid, executor=AUTO, n_workers=AUTO)
        resolved, decision = resolve_auto_config(config, 41, 8, 8, root=str(tmp_path))
        assert decision is not None
        assert resolved.executor == decision.executor
        assert resolved.n_workers == decision.n_workers
        assert resolved.executor != AUTO
        assert not isinstance(resolved.n_workers, str)

    def test_partial_auto_only_replaces_marked_field(self, grid, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        config = ReconstructionConfig(grid=grid, executor="threads", n_workers=AUTO)
        resolved, decision = resolve_auto_config(config, 41, 8, 8, root=str(tmp_path))
        assert resolved.executor == "threads"  # untouched: the user pinned it
        assert resolved.n_workers == decision.n_workers


class TestSessionSurface:
    def test_workers_auto_resolves_and_records_note(self, tmp_path, monkeypatch):
        from repro.core.session import session
        from repro.synthetic.workloads import make_point_source_stack

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        stack, _ = make_point_source_stack(depth=40.0, n_rows=6, n_cols=5, n_positions=41)
        grid = DepthGrid.from_range(0.0, 100.0, 25)

        reference = session(grid=grid, backend="vectorized").run(stack)
        auto_run = session(grid=grid, backend="vectorized").configure(workers="auto").run(stack)

        assert np.array_equal(reference.result.data, auto_run.result.data)
        assert any("autotune:" in note for note in auto_run.report.notes)
        # provenance keeps the user's markers: the cache key was computed from them
        assert auto_run.config.n_workers == AUTO
        assert auto_run.config.executor == AUTO

    def test_workers_int_alias(self, grid):
        from repro.core.session import session

        sess = session(grid=grid).configure(workers=3)
        assert sess.config.n_workers == 3
