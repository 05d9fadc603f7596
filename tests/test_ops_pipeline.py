"""The analysis-ops registry and the composable analysis pipeline."""

import json

import numpy as np
import pytest

import repro
from repro.cli import main_analyze
from repro.core.cache import ResultCache
from repro.core.depth_grid import DepthGrid
from repro.core.ops import (
    AnalysisPipeline,
    OpInfo,
    _json_value,
    analysis,
    as_pipeline,
    available_ops,
    op_info,
    ops,
    register_op,
    register_op_info,
    unregister_op,
)
from repro.core.result import DepthResolvedStack
from repro.core.session import session
from repro.io.image_stack import save_wire_scan
from repro.utils.validation import ValidationError

BUILTIN_OPS = {
    "peaks", "fwhm", "grain_boundaries", "depth_resolution",
    "total_intensity", "integrated_profile",
}


@pytest.fixture()
def grid():
    return DepthGrid.from_range(0.0, 100.0, 25)


@pytest.fixture()
def run(point_source_stack, grid):
    stack, _ = point_source_stack
    return session(grid=grid).run(stack)


@pytest.fixture()
def saved_batch(tmp_path, point_source_stack, grid):
    """Four saved wire-scan files plus the session that reconstructs them."""
    stack, _ = point_source_stack
    paths = []
    for index in range(4):
        path = tmp_path / f"scan_{index}.h5lite"
        save_wire_scan(str(path), stack)
        paths.append(str(path))
    return paths, session(grid=grid)


@pytest.fixture()
def required_param_op():
    """An op with a required keyword parameter after the stack."""

    @register_op("scaled_threshold", description="test: required keyword parameter")
    def scaled_threshold(result, threshold, scale=2.0):
        return float(threshold) * float(scale)

    yield "scaled_threshold"
    unregister_op("scaled_threshold")


# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtins_registered(self):
        assert BUILTIN_OPS <= set(available_ops())
        listing = ops()
        assert [info.name for info in listing] == sorted(available_ops())
        assert all(isinstance(info, OpInfo) for info in listing)

    def test_single_lookup_and_metadata(self):
        info = ops("peaks")
        assert info.name == "peaks"
        assert info.module == "repro.core.ops"
        assert "min_relative_height" in info.parameters()
        payload = info.to_dict()
        assert payload["parameters"]["min_separation_bins"] == 2

    def test_unknown_op_suggests(self):
        with pytest.raises(ValidationError, match="did you mean 'peaks'"):
            op_info("peeks")

    def test_register_and_unregister(self, grid):
        @register_op("bin_count", description="number of depth bins")
        def bin_count(result):
            return result.grid.n_bins

        try:
            stack = DepthResolvedStack(data=np.ones((grid.n_bins, 2, 2)), grid=grid)
            outcome = analysis("bin_count").apply(stack)
            assert outcome["bin_count"] == grid.n_bins
        finally:
            info = unregister_op("bin_count")
        assert "bin_count" not in available_ops()
        # re-registering the returned info restores it (plugin teardown contract)
        register_op_info(info)
        assert "bin_count" in available_ops()
        unregister_op("bin_count")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValidationError, match="already registered"):
            @register_op("peaks")
            def peaks(result):  # pragma: no cover - never registered
                return None

    def test_bare_decorator_uses_function_name(self):
        @register_op
        def my_bare_op(result):
            """My one-liner."""
            return 1.0

        try:
            assert op_info("my_bare_op").description == "My one-liner."
        finally:
            unregister_op("my_bare_op")

    def test_unregister_unknown_rejected(self):
        with pytest.raises(ValidationError, match="cannot unregister"):
            unregister_op("nope")

    def test_required_keyword_parameter_is_listed(self, required_param_op, capsys):
        expected = {"threshold": "<required>", "scale": 2.0}
        assert op_info(required_param_op).parameters() == expected
        assert main_analyze(["--list", "--json"]) == 0
        by_name = {entry["name"]: entry for entry in json.loads(capsys.readouterr().out)}
        assert by_name[required_param_op]["parameters"] == expected


# --------------------------------------------------------------------------- #
class TestPipelineConstruction:
    def test_then_returns_new_pipeline(self):
        base = analysis("peaks")
        extended = base.then("fwhm")
        assert len(base) == 1 and len(extended) == 2
        assert base is not extended
        assert [step.op for step in extended.steps] == ["peaks", "fwhm"]

    def test_specs_forms(self):
        pipeline = analysis(
            "peaks",
            ("grain_boundaries", {"smooth_bins": 5}),
            {"op": "fwhm"},
        )
        assert [step.op for step in pipeline.steps] == ["peaks", "grain_boundaries", "fwhm"]
        assert pipeline.steps[1].params_dict == {"smooth_bins": 5}

    def test_unknown_op_fails_at_construction(self):
        with pytest.raises(ValidationError, match="unknown analysis op"):
            analysis("peaks", "nope")

    def test_unknown_parameter_fails_at_construction(self):
        with pytest.raises(ValidationError, match="rejects parameters"):
            analysis(("peaks", {"min_relative_heigth": 0.2}))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValidationError, match="invalid op spec"):
            analysis(42)

    def test_describe(self):
        pipeline = analysis("peaks", ("fwhm", {}))
        assert "peaks" in pipeline.describe() and "fwhm" in pipeline.describe()

    def test_as_pipeline_coercions(self):
        assert len(as_pipeline("peaks")) == 1
        assert len(as_pipeline(["peaks", "fwhm"])) == 2
        assert len(as_pipeline(("peaks", {"min_separation_bins": 3}))) == 1
        ready = analysis("fwhm")
        assert as_pipeline(ready) is ready
        with pytest.raises(ValidationError):
            as_pipeline(3.14)

    def test_empty_pipeline_refuses_to_apply(self, grid):
        stack = DepthResolvedStack(data=np.ones((grid.n_bins, 2, 2)), grid=grid)
        with pytest.raises(ValidationError, match="empty analysis pipeline"):
            AnalysisPipeline().apply(stack)


# --------------------------------------------------------------------------- #
class TestApply:
    def test_apply_to_run_chains_provenance(self, run):
        outcome = repro.analysis("peaks", "fwhm").apply(run)
        assert outcome.op_names() == ["peaks", "fwhm"]
        chain = outcome.provenance()
        assert chain["run"]["backend"] == "vectorized"
        assert chain["ops"][0] == {"op": "peaks", "params": {}}
        assert json.loads(outcome.to_json())["provenance"]["run"]["config"]["backend"] == "vectorized"

    def test_apply_to_bare_stack(self, grid):
        data = np.zeros((grid.n_bins, 2, 2))
        data[10] = 1.0
        outcome = repro.analysis("total_intensity").apply(
            DepthResolvedStack(data=data, grid=grid)
        )
        assert outcome["total_intensity"] == pytest.approx(4.0)
        assert outcome.provenance()["run"] is None

    def test_apply_to_saved_file_matches_in_memory(self, run, tmp_path):
        path = tmp_path / "depth.h5lite"
        run.save(path)
        pipeline = repro.analysis("peaks", "fwhm", "depth_resolution")
        assert pipeline.apply(run).to_json() == pipeline.apply(str(path)).to_json()

    def test_values_and_getitem(self, run):
        outcome = repro.analysis("peaks", "total_intensity").apply(run)
        assert set(outcome.values) == {"peaks", "total_intensity"}
        assert outcome["total_intensity"] > 0
        assert "peaks" in outcome and "fwhm" not in outcome
        with pytest.raises(KeyError):
            outcome["fwhm"]

    def test_values_are_strict_json(self, run):
        outcome = repro.analysis("peaks", "integrated_profile", "grain_boundaries").apply(run)
        # must survive a strict (allow_nan=False) JSON round trip
        json.loads(json.dumps(outcome.to_dict(), allow_nan=False))

    def test_params_recorded_in_results(self, run):
        outcome = repro.analysis(("peaks", {"min_relative_height": 0.3})).apply(run)
        assert outcome.results[0]["params"] == {"min_relative_height": 0.3}

    def test_apply_rejects_unknown_target(self):
        with pytest.raises(ValidationError, match="apply to"):
            repro.analysis("peaks").apply(3.14)

    def test_op_error_propagates_for_single_target(self, grid):
        empty = DepthResolvedStack(data=np.zeros((grid.n_bins, 2, 2)), grid=grid)
        with pytest.raises(ValidationError, match="no signal"):
            repro.analysis("depth_resolution").apply(empty)


# --------------------------------------------------------------------------- #
class TestBatchApply:
    def test_fan_out_with_error_capture(self, point_source_stack, grid, tmp_path):
        stack, _ = point_source_stack
        missing = str(tmp_path / "missing.h5lite")
        batch = session(grid=grid).run_many([stack, missing])
        assert batch.n_ok == 1 and batch.n_failed == 1

        outcome = repro.analysis("fwhm").apply(batch)
        assert outcome.n_ok == 1 and outcome.n_failed == 1
        ok_item = outcome.succeeded[0]
        assert ok_item.analysis["fwhm"] > 0
        failed = outcome.failed[0]
        assert failed.analysis is None and "reconstruction failed" in failed.error
        payload = json.loads(outcome.to_json())
        assert payload["n_ok"] == 1
        assert payload["provenance"]["ops"] == [{"op": "fwhm", "params": {}}]

    def test_op_failure_is_isolated_per_item(self, point_source_stack, grid):
        stack, _ = point_source_stack
        batch = session(grid=grid).run_many([stack, stack])
        # zero out the second item so depth_resolution raises only there
        batch.items[1].run.result.data[:] = 0.0
        outcome = repro.analysis("depth_resolution").apply(batch)
        assert outcome.n_ok == 1 and outcome.n_failed == 1
        assert "ValidationError" in outcome.failed[0].error

    def test_keep_results_false_without_outputs_is_captured(self, point_source_stack, grid):
        stack, _ = point_source_stack
        batch = session(grid=grid).run_many([stack], keep_results=False)
        outcome = repro.analysis("fwhm").apply(batch)
        assert outcome.n_failed == 1
        assert "keep_results" in outcome.failed[0].error

    def test_items_without_results_fall_back_to_files(self, point_source_stack, grid, tmp_path):
        stack, _ = point_source_stack
        batch = session(grid=grid).run_many(
            [stack], keep_results=False, output_dir=str(tmp_path / "out")
        )
        outcome = repro.analysis("fwhm").apply(batch)
        assert outcome.n_ok == 1

    def test_batch_analyze_linear_fans_out(self, saved_batch):
        paths, sess = saved_batch
        batch = sess.run_many(paths)
        outcome = batch.analyze("peaks", "fwhm")
        assert outcome.n_ok == len(paths)
        assert batch.analysis is outcome
        assert json.loads(batch.to_json())["analysis"]["n_ok"] == len(paths)

    def test_run_many_analyze_op_names(self, saved_batch):
        paths, sess = saved_batch
        batch = sess.run_many(paths, analyze=["peaks", "fwhm"])
        assert batch.analysis.n_ok == len(paths)
        assert batch.analysis.pipeline == analysis("peaks", "fwhm").op_sequence()
        for item in batch.analysis.items:
            assert item.analysis.op_names() == ["peaks", "fwhm"]

    def test_run_many_analyze_single_spec_with_params(self, saved_batch):
        paths, sess = saved_batch
        batch = sess.run_many(paths, analyze=("peaks", {"min_relative_height": 0.2}))
        assert batch.analysis.n_ok == len(paths)
        assert batch.analysis.pipeline == [
            {"op": "peaks", "params": {"min_relative_height": 0.2}}
        ]


# --------------------------------------------------------------------------- #
class TestSurfaces:
    def test_run_result_analyze(self, run):
        outcome = run.analyze("peaks", "fwhm")
        assert outcome is run.analysis
        assert outcome.op_names() == ["peaks", "fwhm"]

    def test_run_result_analyze_single_op_params(self, run):
        outcome = run.analyze("peaks", min_relative_height=0.3)
        assert outcome.results[0]["params"] == {"min_relative_height": 0.3}

    def test_run_result_analyze_kwargs_need_single_op(self, run):
        with pytest.raises(ValidationError, match="exactly one op"):
            run.analyze("peaks", "fwhm", min_relative_height=0.3)

    def test_run_result_analyze_rejects_pipeline_with_kwargs(self, run):
        with pytest.raises(ValidationError, match="prebuilt pipeline"):
            run.analyze(repro.analysis("peaks"), min_relative_height=0.5)

    def test_session_run_analyze(self, point_source_stack, grid):
        stack, _ = point_source_stack
        run = session(grid=grid).run(stack, analyze=["peaks", "fwhm"])
        assert run.analysis is not None
        assert run.analysis.op_names() == ["peaks", "fwhm"]
        assert run.analysis.provenance()["run"]["backend"] == "vectorized"

    def test_session_run_analyze_accepts_pipeline(self, point_source_stack, grid):
        stack, _ = point_source_stack
        pipeline = repro.analysis("total_intensity")
        run = session(grid=grid).run(stack, analyze=pipeline)
        assert run.analysis["total_intensity"] > 0

    def test_top_level_exports(self):
        assert repro.available_ops() == available_ops()
        assert isinstance(repro.analysis("peaks"), repro.AnalysisPipeline)
        assert repro.ops("fwhm").name == "fwhm"

    def test_submodules_not_shadowed_by_factories(self):
        # repro.analysis (function) must not shadow repro.core.analysis
        # (module): the README promises the free functions keep working
        # through attribute access
        import repro.core.analysis as analysis_module
        import repro.core.ops as ops_module

        assert callable(analysis_module.find_profile_peaks)
        assert callable(analysis_module.profile_fwhm)
        assert callable(ops_module.register_op)
        assert repro.core.analysis is analysis_module
        assert repro.core.ops is ops_module


# --------------------------------------------------------------------------- #
class TestLinearCompat:
    """Pipeline outputs and memo keys stay what earlier versions stored."""

    def test_pipeline_json_matches_direct_ops(self, run):
        pipe = analysis("peaks", ("fwhm", {}), "total_intensity")
        outcome = pipe.apply(run)
        for record in outcome.results:
            assert record["value"] == _json_value(op_info(record["op"]).func(run.result))
        document = json.loads(outcome.to_json())
        assert [r["op"] for r in document["results"]] == ["peaks", "fwhm", "total_intensity"]
        assert all(set(r) == {"op", "params", "value"} for r in document["results"])

    def test_signature_digests_are_pinned(self):
        # analysis memos are stored under these digests: a change to them
        # orphans every memo already in a cache root
        assert analysis("peaks", "fwhm").signature() == (
            "ea9437be4d6a4184b63f9e64ced6b61a98e4c09def683c25f306cc5f675db4b5"
        )
        assert analysis(("peaks", {"min_relative_height": 0.2}), "total_intensity").signature() == (
            "2a2ceda758f059e832a2aacddcf069ef8cd1085552673784fff21c2e14a89368"
        )

    def test_repeated_pipeline_memo_hits(self, tmp_path, point_source_stack, grid):
        stack, _ = point_source_stack
        src = tmp_path / "scan.h5lite"
        save_wire_scan(str(src), stack)
        cache = ResultCache(str(tmp_path / "cache"))
        sess = session(grid=grid).cached(cache)
        pipe = analysis("peaks", "fwhm")
        run = sess.run(repro.open(str(src)))
        first = cache.analyze(run, pipe)
        hits_before = cache.n_hits
        second = cache.analyze(run, pipe)
        assert cache.n_hits == hits_before + 1
        assert first.to_json() == second.to_json()

    def test_op_errors_propagate_unwrapped(self, run):
        @register_op("always_boom", description="test: raises")
        def always_boom(result):
            raise RuntimeError("boom")

        try:
            with pytest.raises(RuntimeError, match="boom"):
                analysis("always_boom").apply(run)
        finally:
            unregister_op("always_boom")


class TestParamNormalization:
    def test_numpy_params_serialize(self, run):
        import numpy as np

        outcome = repro.analysis(("peaks", {"min_separation_bins": np.int64(2)})).apply(run)
        # must not crash after the analysis already ran
        json.loads(outcome.to_json())
        assert outcome.results[0]["params"] == {"min_separation_bins": 2}

    def test_unserializable_params_fail_at_construction(self):
        with pytest.raises(ValidationError, match="JSON-serialisable"):
            repro.analysis(("peaks", {"min_relative_height": object()}))
