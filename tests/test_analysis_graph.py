"""The DAG analysis engine: validation, scheduling, memoization, surfaces.

Covers the :mod:`repro.analysisgraph` subsystem end to end:

* build-time validation — cycles, arity, unknown ops/inputs with
  did-you-mean suggestions, reserved names, kind rules;
* topology — deterministic topo order, wave structure, ``after`` edges
  ordering without entering node signatures;
* the linear-compatibility contract — ``repro.analysis`` pipelines now
  execute through the DAG engine and must stay byte-identical (satellite:
  old memo entries keep hitting because ``signature()`` is unchanged);
* execution — ready-set thread scheduling actually overlaps independent
  nodes, errors carry the failing node's name, per-item batch isolation;
* memoization — warm graphs are all memo hits, a one-node param change
  (or, in a batch, one changed file) recomputes only the dirty subgraph,
  ``verify()`` keeps node memos;
* surfaces — ``RunResult.analyze``/``BatchRunResult.analyze``,
  ``Session.run_many(analyze=...)``, the ``repro-analyze`` CLI and the
  serve admission path.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

import pytest

import repro
from repro.analysisgraph import (
    AnalysisGraph,
    GraphAnalysisResult,
    GraphBatchResult,
    GraphExecutionError,
    as_graph,
    compile_linear,
    graph,
)
from repro.cli import main_analyze
from repro.core.cache import ResultCache
from repro.core.ops import analysis, op_info, register_op, unregister_op
from repro.io.image_stack import save_wire_scan
from repro.utils.validation import ValidationError


@pytest.fixture()
def run_result(point_source_stack, depth_grid):
    stack, _source = point_source_stack
    return repro.session(grid=depth_grid).run(repro.open(stack))


@pytest.fixture()
def chain_ops():
    """Chainable test ops: one stack consumer, one value consumer."""

    @register_op("grand_total", description="test: total of the depth cube")
    def grand_total(result):
        return float(result.data.sum())

    @register_op("scale_by", description="test: multiply an upstream value")
    def scale_by(value, factor: float = 2.0):
        return float(value) * float(factor)

    yield
    unregister_op("grand_total")
    unregister_op("scale_by")


@pytest.fixture()
def saved_batch(tmp_path, point_source_stack, depth_grid):
    """Four saved wire-scan files plus the session that reconstructs them."""
    stack, _source = point_source_stack
    paths = []
    for index in range(4):
        path = tmp_path / f"scan_{index}.h5lite"
        save_wire_scan(str(path), stack)
        paths.append(str(path))
    return paths, repro.session(grid=depth_grid)


# --------------------------------------------------------------------------- #
class TestGraphValidation:
    def test_unknown_op_suggests(self):
        with pytest.raises(ValidationError, match="aperture_total"):
            graph({"name": "x", "op": "aperture_totl"})

    def test_unknown_input_suggests(self):
        with pytest.raises(ValidationError, match="'tot'"):
            graph(
                {"name": "tot", "op": "aperture_total"},
                {"name": "est", "op": "integrated_estimate", "inputs": ["tots"]},
            )

    def test_cycle_rejected(self, chain_ops):
        with pytest.raises(ValidationError, match="[Cc]ycle"):
            graph(
                {"name": "a", "op": "scale_by", "inputs": ["b"]},
                {"name": "b", "op": "scale_by", "inputs": ["a"]},
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            graph(
                {"name": "x", "op": "total_intensity"},
                {"name": "x", "op": "peaks"},
            )

    def test_reserved_names_rejected(self):
        for reserved in ("stack", "batch"):
            with pytest.raises(ValidationError, match="reserved"):
                graph({"name": reserved, "op": "total_intensity"})

    def test_arity_enforced(self):
        # scaling_fit consumes two collected series
        with pytest.raises(ValidationError, match="2 data"):
            graph(
                {"name": "tot", "op": "aperture_total"},
                {"name": "fit", "op": "scaling_fit", "inputs": ["tot"]},
            )

    def test_run_op_cannot_consume_reduce_node(self):
        with pytest.raises(ValidationError):
            graph(
                {"name": "tot", "op": "aperture_total"},
                {"name": "est", "op": "integrated_estimate", "inputs": ["tot"],
                 "params": {"key": "total"}},
                {"name": "bad", "op": "total_intensity", "inputs": ["est"]},
            )

    def test_reduce_op_rejected_in_linear_pipeline(self):
        with pytest.raises(ValidationError, match="repro.graph"):
            analysis("integrated_estimate")

    def test_reduce_string_spec_needs_inputs(self):
        with pytest.raises(ValidationError):
            graph("integrated_estimate")

    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            graph({"name": "x", "op": "peaks", "wires": ["stack"]})

    def test_unknown_after_ref_suggests(self):
        with pytest.raises(ValidationError, match="'first'"):
            graph(
                {"name": "first", "op": "total_intensity"},
                {"name": "second", "op": "peaks", "after": ["frist"]},
            )

    def test_string_spec_sugar(self):
        built = graph("peaks", "fwhm")
        assert [node.name for node in built.nodes] == ["peaks", "fwhm"]
        assert all(node.inputs == ("stack",) for node in built.nodes)

    def test_as_graph_passthrough_and_compile(self):
        built = graph("peaks")
        assert as_graph(built) is built
        compiled = as_graph(analysis("peaks", "fwhm"))
        assert isinstance(compiled, AnalysisGraph)


# --------------------------------------------------------------------------- #
class TestTopology:
    def diamond(self, chain_ops=None):
        return graph(
            {"name": "tot", "op": "grand_total"},
            {"name": "left", "op": "scale_by", "inputs": ["tot"], "params": {"factor": 2}},
            {"name": "right", "op": "scale_by", "inputs": ["tot"], "params": {"factor": 3}},
            {"name": "join", "op": "scale_by", "inputs": ["left"], "after": ["right"]},
        )

    def test_topo_order_and_waves(self, chain_ops):
        built = self.diamond()
        order = built.topo_order()
        assert order.index("tot") < order.index("left") < order.index("join")
        waves = built.waves()
        assert waves[0] == ["tot"] and sorted(waves[1]) == ["left", "right"]

    def test_after_orders_but_does_not_sign(self, chain_ops):
        with_after = graph(
            {"name": "a", "op": "grand_total"},
            {"name": "b", "op": "scale_by", "inputs": ["a"], "after": ["a"]},
        )
        without = graph(
            {"name": "a", "op": "grand_total"},
            {"name": "b", "op": "scale_by", "inputs": ["a"]},
        )
        # node signatures ignore ordering-only edges: memo entries survive
        assert with_after.node_signature("b") == without.node_signature("b")
        # ... but the graph-level signature reflects the full spec
        assert with_after.signature() != without.signature()

    def test_param_change_dirties_only_downstream(self, chain_ops):
        base = self.diamond()
        changed = graph(
            {"name": "tot", "op": "grand_total"},
            {"name": "left", "op": "scale_by", "inputs": ["tot"], "params": {"factor": 5}},
            {"name": "right", "op": "scale_by", "inputs": ["tot"], "params": {"factor": 3}},
            {"name": "join", "op": "scale_by", "inputs": ["left"], "after": ["right"]},
        )
        assert base.node_signature("tot") == changed.node_signature("tot")
        assert base.node_signature("right") == changed.node_signature("right")
        assert base.node_signature("left") != changed.node_signature("left")
        assert base.node_signature("join") != changed.node_signature("join")

    def test_describe_mentions_every_node(self, chain_ops):
        text = self.diamond().describe()
        for name in ("tot", "left", "right", "join"):
            assert name in text


# --------------------------------------------------------------------------- #
class TestLinearCompat:
    """Satellite: linear pipelines route through the DAG engine unchanged."""

    def test_pipeline_json_matches_direct_ops(self, run_result):
        pipe = analysis("peaks", ("fwhm", {}), "total_intensity")
        outcome = pipe.apply(run_result)
        stack = run_result.result
        for record in outcome.results:
            direct = op_info(record["op"]).func(stack)
            from repro.core.ops import _json_value

            assert record["value"] == _json_value(direct)
        document = json.loads(outcome.to_json())
        assert [r["op"] for r in document["results"]] == ["peaks", "fwhm", "total_intensity"]
        assert all(set(r) == {"op", "params", "value"} for r in document["results"])

    def test_compile_linear_chain_shape(self):
        compiled = compile_linear(analysis("peaks", "peaks", "fwhm"))
        names = [node.name for node in compiled.nodes]
        assert names == ["peaks", "peaks_1", "fwhm"]
        assert all(len(wave) == 1 for wave in compiled.waves())

    def test_execute_chain_matches_pipeline_values(self, run_result):
        pipe = analysis("peaks", "fwhm")
        values = compile_linear(pipe).execute_chain(run_result.result)
        outcome = pipe.apply(run_result)
        assert values == [record["value"] for record in outcome.results]

    def test_signature_is_unchanged_by_compilation(self):
        pipe = analysis("peaks", ("fwhm", {}))
        assert pipe.signature() == analysis("peaks", "fwhm").signature()
        assert pipe.signature() != compile_linear(pipe).signature()

    def test_old_pipeline_memo_entries_still_hit(self, tmp_path, point_source_stack, depth_grid):
        stack, _source = point_source_stack
        src = tmp_path / "scan.h5lite"
        save_wire_scan(str(src), stack)
        cache = ResultCache(str(tmp_path / "cache"))
        sess = repro.session(grid=depth_grid).cached(cache)
        pipe = analysis("peaks", "fwhm")
        run = sess.run(repro.open(str(src)))
        first = cache.analyze(run, pipe)
        hits_before = cache.n_hits
        second = cache.analyze(run, pipe)
        assert cache.n_hits == hits_before + 1
        assert first.to_json() == second.to_json()

    def test_chain_errors_propagate_unwrapped(self, run_result):
        @register_op("always_boom", description="test: raises")
        def always_boom(result):
            raise RuntimeError("boom")

        try:
            with pytest.raises(RuntimeError, match="boom"):
                analysis("always_boom").apply(run_result)
        finally:
            unregister_op("always_boom")


# --------------------------------------------------------------------------- #
class TestExecution:
    def test_run_scope_values_and_provenance(self, run_result, chain_ops):
        built = graph(
            {"name": "tot", "op": "grand_total"},
            {"name": "twice", "op": "scale_by", "inputs": ["tot"]},
        )
        outcome = built.apply(run_result)
        assert isinstance(outcome, GraphAnalysisResult)
        assert outcome["twice"] == pytest.approx(outcome["tot"] * 2.0)
        prov = outcome.provenance()
        assert prov["graph"]["signature"] == built.signature()
        assert prov["execution"]["scope"] == "run"
        assert set(prov["execution"]["nodes"]) == {"tot", "twice"}
        assert prov["run"] is not None

    def test_independent_nodes_overlap(self, run_result):
        @register_op("nap_a", description="test: sleeps")
        def nap_a(result):
            time.sleep(0.25)
            return 1.0

        @register_op("nap_b", description="test: sleeps")
        def nap_b(result):
            time.sleep(0.25)
            return 2.0

        try:
            built = graph("nap_a", "nap_b")
            start = time.perf_counter()
            outcome = built.apply(run_result, executor="threads")
            threaded = time.perf_counter() - start
            start = time.perf_counter()
            built.apply(run_result, executor="serial")
            serial = time.perf_counter() - start
        finally:
            unregister_op("nap_a")
            unregister_op("nap_b")
        assert outcome.execution["executor"] == "threads"
        assert serial >= 0.5 and threaded < serial
        assert threaded < 0.45  # the two 0.25 s naps genuinely overlapped

    def test_auto_is_serial_for_chains(self, run_result, chain_ops):
        built = graph(
            {"name": "tot", "op": "grand_total"},
            {"name": "twice", "op": "scale_by", "inputs": ["tot"]},
        )
        assert built.apply(run_result).execution["executor"] == "serial"

    def test_process_executor_rejected(self, run_result):
        with pytest.raises(ValidationError, match="serial"):
            graph("peaks").apply(run_result, executor="processes")

    def test_error_names_the_node(self, run_result):
        @register_op("boom_op", description="test: raises")
        def boom_op(result):
            raise RuntimeError("kapow")

        try:
            with pytest.raises(GraphExecutionError, match="'loud'.*kapow") as info:
                graph({"name": "loud", "op": "boom_op"}).apply(run_result)
        finally:
            unregister_op("boom_op")
        assert info.value.node == "loud" and info.value.op == "boom_op"

    def test_reduce_graph_needs_a_batch(self, run_result):
        built = graph(
            {"name": "tot", "op": "aperture_total"},
            {"name": "est", "op": "integrated_estimate", "inputs": ["tot"],
             "params": {"key": "total"}},
        )
        with pytest.raises(ValidationError, match="BatchRunResult"):
            built.apply(run_result)

    def test_batch_scope_isolates_item_failures(self, saved_batch, tmp_path):
        paths, sess = saved_batch
        broken = tmp_path / "broken.h5lite"
        broken.write_text("not a wire scan")
        batch = sess.run_many(paths + [str(broken)])
        built = graph(
            {"name": "tot", "op": "aperture_total"},
            {"name": "est", "op": "integrated_estimate", "inputs": ["tot"],
             "params": {"key": "total"}},
        )
        outcome = built.apply(batch)
        assert isinstance(outcome, GraphBatchResult)
        assert outcome.n_ok == len(paths) and outcome.n_failed == 1
        assert outcome.failed[0].input_path == str(broken)
        # the reduce still ran over the surviving items, in input order
        assert outcome["est"]["n"] == len(paths)

    def test_reduce_error_captured_and_dependents_skipped(self, saved_batch):
        paths, sess = saved_batch
        batch = sess.run_many(paths)
        built = graph(
            {"name": "morph", "op": "zernike_moments"},
            # dict-valued upstream without a key: the reduce must fail fast
            {"name": "est", "op": "integrated_estimate", "inputs": ["morph"]},
            {"name": "downstream", "op": "sample_stats", "inputs": ["est"]},
        )
        outcome = built.apply(batch)
        records = {record["node"]: record for record in outcome.reduces}
        assert "pass the key" in records["est"]["error"]
        assert "skipped" in records["downstream"]["error"]
        with pytest.raises(KeyError):
            outcome["est"]


# --------------------------------------------------------------------------- #
class TestMemoization:
    @pytest.fixture()
    def cached_setup(self, tmp_path, point_source_stack, depth_grid):
        stack, _source = point_source_stack
        src = tmp_path / "scan.h5lite"
        save_wire_scan(str(src), stack)
        cache = ResultCache(str(tmp_path / "cache"))
        sess = repro.session(grid=depth_grid).cached(cache)
        return sess, str(src), cache

    def chained(self, factor: float):
        return graph(
            {"name": "tot", "op": "grand_total"},
            {"name": "scaled", "op": "scale_by", "inputs": ["tot"],
             "params": {"factor": factor}},
        )

    def test_warm_graph_is_all_hits(self, cached_setup, chain_ops):
        sess, src, _cache = cached_setup
        run = sess.run(repro.open(src))
        built = self.chained(2.0)
        cold = run.analyze(built)
        assert cold.execution["memoized"] and cold.execution["n_memo_hits"] == 0
        warm = sess.run(repro.open(src)).analyze(built)
        assert warm.execution["n_memo_hits"] == 2
        assert warm.execution["n_computed"] == 0
        assert warm.values == cold.values

    def test_param_change_recomputes_only_dirty_subgraph(self, cached_setup, chain_ops):
        sess, src, _cache = cached_setup
        run = sess.run(repro.open(src))
        run.analyze(self.chained(2.0))
        dirty = run.analyze(self.chained(5.0))
        nodes = dirty.execution["nodes"]
        assert nodes["tot"]["memo_hit"] is True
        assert nodes["scaled"]["memo_hit"] is False
        assert dirty["scaled"] == pytest.approx(dirty["tot"] * 5.0)

    def test_uncached_run_is_not_memoized(self, run_result, chain_ops):
        outcome = run_result.analyze(self.chained(2.0))
        assert outcome.execution["memoized"] is False

    def test_verify_keeps_node_memos(self, cached_setup, chain_ops):
        sess, src, cache = cached_setup
        run = sess.run(repro.open(src))
        run.analyze(self.chained(2.0))
        report = cache.verify()
        assert report["n_repaired"] == 0
        warm = run.analyze(self.chained(2.0))
        assert warm.execution["n_memo_hits"] == 2

    def test_reduce_memoizes_per_batch_content(self, tmp_path, point_source_stack, depth_grid):
        stack, _source = point_source_stack
        paths = []
        for index in range(3):
            path = tmp_path / f"scan_{index}.h5lite"
            save_wire_scan(str(path), stack)
            paths.append(str(path))
        cache = ResultCache(str(tmp_path / "cache"))
        sess = repro.session(grid=depth_grid).cached(cache)
        built = graph(
            {"name": "tot", "op": "aperture_total"},
            {"name": "est", "op": "integrated_estimate", "inputs": ["tot"],
             "params": {"key": "total"}},
        )
        cold = sess.run_many(paths, analyze=built).analysis
        assert [r["memo_hit"] for r in cold.reduces] == [False]
        warm = sess.run_many(paths, analyze=built).analysis
        assert [r["memo_hit"] for r in warm.reduces] == [True]
        assert warm["est"] == cold["est"]

    def test_batch_recomputes_only_the_dirty_subgraph(self, saved_batch, tmp_path):
        """Node counters over a 4-file batch: 2 per-run nodes per file + 2 reduces."""
        paths, sess = saved_batch
        sess = sess.cached(ResultCache(str(tmp_path / "cache")))

        def science(radius_fraction: float = 1.0):
            return graph(
                {"name": "intensity", "op": "total_intensity"},
                {"name": "tot", "op": "aperture_total",
                 "params": {"radius_fraction": radius_fraction}},
                {"name": "est", "op": "integrated_estimate", "inputs": ["intensity"]},
                {"name": "stats", "op": "sample_stats", "inputs": ["tot"]},
            )

        def counts(batch, built):
            execution = batch.analyze(built, executor="serial").execution
            return execution["n_computed"], execution["n_memo_hits"]

        batch = sess.run_many(paths)
        assert counts(batch, science()) == (10, 0)
        assert counts(batch, science()) == (0, 10)
        # a dirty parameter: 'tot' on every file and its reduce
        assert counts(batch, science(radius_fraction=0.5)) == (5, 5)
        # a dirty file: its two per-run nodes and both reduces, whose batch key changed
        stat = os.stat(paths[-1])
        os.utime(paths[-1], ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        assert counts(sess.run_many(paths), science()) == (4, 6)


# --------------------------------------------------------------------------- #
class TestSurfaces:
    def test_run_analyze_rejects_graph_with_kwargs(self, run_result):
        with pytest.raises(ValidationError):
            run_result.analyze(graph("peaks"), min_relative_height=0.5)

    def test_batch_analyze_linear_fans_out(self, saved_batch):
        paths, sess = saved_batch
        batch = sess.run_many(paths)
        outcome = batch.analyze("peaks", "fwhm")
        assert outcome.n_ok == len(paths)
        assert batch.analysis is outcome
        assert json.loads(batch.to_json())["analysis"]["n_ok"] == len(paths)

    def test_run_many_analyze_kwarg_with_graph(self, saved_batch):
        paths, sess = saved_batch
        built = graph(
            {"name": "tot", "op": "aperture_total"},
            {"name": "stats", "op": "sample_stats", "inputs": ["tot"],
             "params": {"key": "total"}},
        )
        batch = sess.run_many(paths, analyze=built)
        assert isinstance(batch.analysis, GraphBatchResult)
        assert batch.analysis["stats"]["n"] == len(paths)

    def test_cli_graph_batch_and_failure_exit(self, saved_batch, tmp_path):
        paths, sess = saved_batch
        out_dir = tmp_path / "depth"
        out_dir.mkdir()
        batch = sess.run_many(paths)
        for index, item in enumerate(batch.succeeded):
            item.run.save(str(out_dir / f"depth_{index}.h5lite"))
        spec = json.dumps({"name": "tot", "op": "aperture_total"})
        est = json.dumps({"name": "est", "op": "integrated_estimate",
                          "inputs": ["tot"], "params": {"key": "total"}})
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main_analyze([str(out_dir), "--graph", spec, est])
        assert code == 0
        document = json.loads(buffer.getvalue())
        fit = [r for r in document["reduces"] if r["node"] == "est"][0]
        assert fit["value"]["n"] == len(paths)

        (out_dir / "corrupt.h5lite").write_text("junk")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main_analyze([str(out_dir), "total_intensity"])
        assert code == 1
        assert "corrupt.h5lite" in err.getvalue()
        assert "1 of" in err.getvalue()

    def test_serve_submission_accepts_run_graph(self, saved_batch):
        from repro.serve.jobs import parse_submission

        paths, sess = saved_batch
        body = {
            "source": {"path": paths[0]},
            "config": sess.config.to_dict(),
            "graph": graph("peaks", "fwhm").to_spec(),
        }
        job = parse_submission(body)
        assert isinstance(job.pipeline, AnalysisGraph)
        assert [spec["op"] for spec in job.analyze_specs] == ["peaks", "fwhm"]

    def test_serve_submission_rejects_reduce_graph(self, saved_batch):
        from repro.serve.jobs import parse_submission

        paths, sess = saved_batch
        body = {
            "source": {"path": paths[0]},
            "config": sess.config.to_dict(),
            "graph": graph(
                {"name": "tot", "op": "aperture_total"},
                {"name": "est", "op": "integrated_estimate", "inputs": ["tot"],
                 "params": {"key": "total"}},
            ).to_spec(),
        }
        with pytest.raises(ValidationError, match="reduce"):
            parse_submission(body)

    def test_serve_submission_rejects_graph_plus_analyze(self, saved_batch):
        from repro.serve.jobs import parse_submission

        paths, sess = saved_batch
        body = {
            "source": {"path": paths[0]},
            "config": sess.config.to_dict(),
            "analyze": [["peaks", {}]],
            "graph": [{"name": "x", "op": "peaks"}],
        }
        with pytest.raises(ValidationError, match="not both"):
            parse_submission(body)

    def test_ops_listing_reports_kinds(self):
        kinds = {info.name: info.kind for info in repro.ops()}
        assert kinds["peaks"] == "run"
        assert kinds["scaling_fit"] == "reduce"
        assert kinds["integrated_estimate"] == "reduce"
