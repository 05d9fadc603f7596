"""Tests for ``repro.staticcheck`` — the repro-lint subsystem.

Each built-in rule gets a tripping fixture and a passing one, suppression
comments are verified to silence (but still record) findings, the JSON
report schema is pinned, the CLI's exit codes are exercised, and the
whole repository source tree must lint clean against the checked-in
``api_snapshot.json`` — the same gate CI runs.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.staticcheck import (
    Finding,
    available_rules,
    build_api_surface,
    diff_surfaces,
    lint_paths,
    iter_python_files,
    register_rule,
    rule_info,
    rules,
    unregister_rule,
    write_snapshot,
)
from repro.staticcheck.apisnapshot import check_snapshot
from repro.staticcheck.cli import main
from repro.staticcheck.model import parse_suppressions
from repro.utils.validation import ValidationError

REPO_ROOT = Path(__file__).resolve().parents[1]

BUILTIN_RULES = {
    "registry-contract",
    "async-purity",
    "resource-lifecycle",
    "kernel-determinism",
    "type-discipline",
    "api-snapshot",
    "lock-discipline",
    "thread-escape",
}


def _lint(tmp_path, source, name="fixture.py", rule_ids=None, snapshot_path=None):
    """Write *source* under tmp_path and lint just that file."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_paths([str(path)], rule_ids=rule_ids, snapshot_path=snapshot_path)


def _rules_fired(report):
    return {finding.rule for finding in report.gating}


# --------------------------------------------------------------------------- #
class TestRuleRegistry:
    def test_builtins_registered(self):
        assert BUILTIN_RULES <= set(available_rules())

    def test_rules_returns_sorted_infos(self):
        infos = rules()
        assert [info.id for info in infos] == sorted(info.id for info in infos)
        assert all(callable(info.func) for info in infos)

    def test_rule_info_lookup_and_did_you_mean(self):
        assert rule_info("async-purity").scope == "module"
        with pytest.raises(ValidationError, match="did you mean 'async-purity'"):
            rule_info("async-purty")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValidationError, match="already registered"):
            @register_rule("async-purity")
            def shadow(ctx):  # pragma: no cover - never runs
                return []

    def test_register_and_unregister_roundtrip(self):
        @register_rule("test-only-rule", severity="info", description="fixture")
        def test_only_rule(ctx):
            yield ctx.finding(ctx.tree, "fires everywhere")

        try:
            assert "test-only-rule" in available_rules()
            assert rule_info("test-only-rule").severity == "info"
        finally:
            unregister_rule("test-only-rule")
        assert "test-only-rule" not in available_rules()
        with pytest.raises(ValidationError, match="unknown"):
            unregister_rule("test-only-rule")

    def test_bare_decorator_kebab_cases_the_name(self):
        @register_rule
        def my_fixture_rule(ctx):  # pragma: no cover - never runs
            return []

        try:
            assert "my-fixture-rule" in available_rules()
        finally:
            unregister_rule("my-fixture-rule")

    def test_bad_severity_rejected(self):
        with pytest.raises(ValidationError, match="severity"):
            @register_rule("bad-severity-rule", severity="fatal")
            def bad(ctx):  # pragma: no cover - never runs
                return []

    def test_custom_rule_runs_through_the_engine(self, tmp_path):
        @register_rule("no-todo-comment", severity="warning")
        def no_todo_comment(ctx):
            for index, line in enumerate(ctx.lines, start=1):
                if "TODO" in line:
                    yield Finding(message="unresolved TODO", line=index, col=0)

        try:
            report = _lint(tmp_path, "x = 1  # TODO later\n",
                           rule_ids=["no-todo-comment"])
        finally:
            unregister_rule("no-todo-comment")
        assert [f.rule for f in report.gating] == ["no-todo-comment"]
        assert report.gating[0].severity == "warning"


# --------------------------------------------------------------------------- #
class TestRegistryContractRule:
    RULE = ["registry-contract"]

    def test_clean_op_passes(self, tmp_path):
        report = _lint(tmp_path, """
            @register_op("peaks")
            def find_peaks(stack, threshold=0.5, labels=("a", "b")):
                return stack
        """, rule_ids=self.RULE)
        assert report.exit_code() == 0

    def test_nested_registration_flagged(self, tmp_path):
        report = _lint(tmp_path, """
            def install():
                @register_op("late")
                def late_op(stack):
                    return stack
        """, rule_ids=self.RULE)
        assert _rules_fired(report) == {"registry-contract"}
        assert "module-top-level" in report.gating[0].message

    def test_non_json_default_flagged(self, tmp_path):
        report = _lint(tmp_path, """
            @register_op("bad-default")
            def bad_default(stack, mode=object()):
                return stack
        """, rule_ids=self.RULE)
        assert any("JSON-serializable" in f.message for f in report.gating)

    def test_zero_arg_op_flagged(self, tmp_path):
        report = _lint(tmp_path, """
            @register_op("no-args")
            def no_args():
                return None
        """, rule_ids=self.RULE)
        assert any("no positional parameter" in f.message for f in report.gating)

    def test_async_op_flagged(self, tmp_path):
        report = _lint(tmp_path, """
            @register_op("async-op")
            async def async_op(stack):
                return stack
        """, rule_ids=self.RULE)
        assert any("plain function" in f.message for f in report.gating)

    def test_backend_must_be_a_class(self, tmp_path):
        report = _lint(tmp_path, """
            @register_backend("funcback")
            def funcback(config):
                return None
        """, rule_ids=self.RULE)
        assert any("must decorate a class" in f.message for f in report.gating)

    def test_backend_class_passes(self, tmp_path):
        report = _lint(tmp_path, """
            @register_backend("okback")
            class OkBackend:
                pass
        """, rule_ids=self.RULE)
        assert report.exit_code() == 0


# --------------------------------------------------------------------------- #
class TestAsyncPurityRule:
    RULE = ["async-purity"]

    def test_time_sleep_in_async_def_flagged(self, tmp_path):
        report = _lint(tmp_path, """
            import time

            async def handler():
                time.sleep(1.0)
        """, rule_ids=self.RULE)
        assert _rules_fired(report) == {"async-purity"}
        assert "time.sleep" in report.gating[0].message

    def test_builtin_open_flagged(self, tmp_path):
        report = _lint(tmp_path, """
            async def handler(path):
                with open(path) as handle:
                    return handle.read()
        """, rule_ids=self.RULE)
        assert any("`open`" in f.message for f in report.gating)

    def test_bare_future_result_flagged(self, tmp_path):
        report = _lint(tmp_path, """
            async def handler(future):
                return future.result()
        """, rule_ids=self.RULE)
        assert any(".result()" in f.message for f in report.gating)

    def test_result_with_timeout_not_flagged(self, tmp_path):
        # result(timeout=0) is a non-parking poll; only the bare read gates
        report = _lint(tmp_path, """
            async def handler(future):
                return future.result(0)
        """, rule_ids=self.RULE)
        assert report.exit_code() == 0

    def test_sync_function_not_flagged(self, tmp_path):
        report = _lint(tmp_path, """
            import time

            def worker():
                time.sleep(1.0)
        """, rule_ids=self.RULE)
        assert report.exit_code() == 0

    def test_nested_sync_def_is_a_separate_context(self, tmp_path):
        report = _lint(tmp_path, """
            import time

            async def handler(loop):
                def blocking_probe():
                    time.sleep(1.0)
                return await loop.run_in_executor(None, blocking_probe)
        """, rule_ids=self.RULE)
        assert report.exit_code() == 0

    def test_asyncio_sleep_passes(self, tmp_path):
        report = _lint(tmp_path, """
            import asyncio

            async def handler():
                await asyncio.sleep(0.1)
        """, rule_ids=self.RULE)
        assert report.exit_code() == 0


# --------------------------------------------------------------------------- #
class TestResourceLifecycleRule:
    RULE = ["resource-lifecycle"]

    def test_unreleased_executor_flagged(self, tmp_path):
        report = _lint(tmp_path, """
            from concurrent.futures import ThreadPoolExecutor

            def run(tasks):
                pool = ThreadPoolExecutor(4)
                return [pool.submit(task) for task in tasks]
        """, rule_ids=self.RULE)
        assert _rules_fired(report) == {"resource-lifecycle"}

    def test_with_statement_passes(self, tmp_path):
        report = _lint(tmp_path, """
            from concurrent.futures import ThreadPoolExecutor

            def run(tasks):
                with ThreadPoolExecutor(4) as pool:
                    return [pool.submit(task) for task in tasks]
        """, rule_ids=self.RULE)
        assert report.exit_code() == 0

    def test_try_finally_release_passes(self, tmp_path):
        report = _lint(tmp_path, """
            from multiprocessing import shared_memory

            def run(nbytes):
                segment = shared_memory.SharedMemory(create=True, size=nbytes)
                try:
                    return bytes(segment.buf[:8])
                finally:
                    segment.close()
                    segment.unlink()
        """, rule_ids=self.RULE)
        assert report.exit_code() == 0

    def test_attribute_assignment_passes(self, tmp_path):
        report = _lint(tmp_path, """
            from concurrent.futures import ThreadPoolExecutor

            class Owner:
                def __init__(self):
                    self._pool = ThreadPoolExecutor(2)

                def close(self):
                    self._pool.shutdown()
        """, rule_ids=self.RULE)
        assert report.exit_code() == 0

    def test_factory_return_passes(self, tmp_path):
        report = _lint(tmp_path, """
            from concurrent.futures import ProcessPoolExecutor

            def make_pool(n):
                return ProcessPoolExecutor(n)
        """, rule_ids=self.RULE)
        assert report.exit_code() == 0

    def test_exit_stack_adoption_passes(self, tmp_path):
        report = _lint(tmp_path, """
            from concurrent.futures import ThreadPoolExecutor

            def run(stack_manager):
                pool = stack_manager.enter_context(ThreadPoolExecutor(2))
                return pool
        """, rule_ids=self.RULE)
        assert report.exit_code() == 0


# --------------------------------------------------------------------------- #
class TestKernelDeterminismRule:
    RULE = ["kernel-determinism"]
    KERNEL = "core/kernels/fixture_kernel.py"

    def test_rule_only_governs_kernel_paths(self, tmp_path):
        source = """
            import time

            def kernel(values):
                return time.perf_counter()
        """
        ungoverned = _lint(tmp_path, source, name="util/helpers.py", rule_ids=self.RULE)
        governed = _lint(tmp_path, source, name=self.KERNEL, rule_ids=self.RULE)
        assert ungoverned.exit_code() == 0
        assert any("clock read" in f.message for f in governed.gating)

    def test_env_read_flagged(self, tmp_path):
        report = _lint(tmp_path, """
            import os

            THREADS = os.getenv("OMP_NUM_THREADS")
        """, name=self.KERNEL, rule_ids=self.RULE)
        assert any("os.getenv" in f.message for f in report.gating)

    def test_unseeded_rng_flagged_seeded_passes(self, tmp_path):
        report = _lint(tmp_path, """
            import numpy as np

            def noisy(shape):
                return np.random.rand(*shape)

            def seeded(shape, seed):
                return np.random.default_rng(seed).random(shape)

            def entropy_seeded(shape):
                return np.random.default_rng().random(shape)
        """, name=self.KERNEL, rule_ids=self.RULE)
        messages = [f.message for f in report.gating]
        assert any("numpy.random.rand" in m for m in messages)
        assert any("without an explicit seed" in m for m in messages)
        assert not any("default_rng` " in m for m in messages)

    def test_set_iteration_flagged_sorted_passes(self, tmp_path):
        report = _lint(tmp_path, """
            def accumulate(values):
                total = 0.0
                for value in set(values):
                    total += value
                for value in sorted(set(values)):
                    total -= value
                return total
        """, name=self.KERNEL, rule_ids=self.RULE)
        assert len(report.gating) == 1
        assert "set()" in report.gating[0].message


# --------------------------------------------------------------------------- #
class TestTypeDisciplineRule:
    RULE = ["type-discipline"]

    def test_none_into_non_optional_annotation_flagged(self, tmp_path):
        report = _lint(tmp_path, """
            class Queue:
                def __init__(self):
                    self._event: "asyncio.Event" = None
        """, rule_ids=self.RULE)
        assert _rules_fired(report) == {"type-discipline"}
        assert "lazy initializer" in report.gating[0].message

    def test_optional_annotation_passes(self, tmp_path):
        report = _lint(tmp_path, """
            from typing import Optional

            class Queue:
                def __init__(self):
                    self._event: Optional[object] = None
        """, rule_ids=self.RULE)
        assert report.exit_code() == 0

    def test_type_ignored_none_assignment_flagged(self, tmp_path):
        report = _lint(tmp_path, """
            class Queue:
                def __init__(self):
                    self._event = None  # type: ignore[assignment]
        """, rule_ids=self.RULE)
        assert any("type: ignore" in f.message for f in report.gating)

    def test_plain_none_assignment_passes(self, tmp_path):
        report = _lint(tmp_path, "state = None\n", rule_ids=self.RULE)
        assert report.exit_code() == 0


# --------------------------------------------------------------------------- #
class TestSuppressions:
    def test_parse_same_line_rule_list(self):
        table = parse_suppressions("x = 1  # repro-lint: ignore[a-rule, b-rule]\n")
        assert table == {1: frozenset({"a-rule", "b-rule"})}

    def test_parse_bare_ignore_means_all(self):
        table = parse_suppressions("x = 1  # repro-lint: ignore\n")
        assert table == {1: None}

    def test_standalone_comment_covers_next_line(self):
        table = parse_suppressions(
            "# repro-lint: ignore[a-rule]\nx = 1\n"
        )
        assert table == {2: frozenset({"a-rule"})}

    def test_suppressed_finding_is_recorded_not_gating(self, tmp_path):
        report = _lint(tmp_path, """
            import time

            async def handler():
                time.sleep(1.0)  # repro-lint: ignore[async-purity]
        """, rule_ids=["async-purity"])
        assert report.exit_code() == 0
        assert len(report.suppressed) == 1
        assert report.suppressed[0].suppressed is True
        assert report.suppressed[0].rule == "async-purity"

    def test_suppression_is_rule_specific(self, tmp_path):
        # a waiver for one rule must not blanket others on the same line
        report = _lint(tmp_path, """
            import time

            async def handler():
                time.sleep(1.0)  # repro-lint: ignore[resource-lifecycle]
        """, rule_ids=["async-purity"])
        assert report.exit_code() == 1

    def test_standalone_suppression_covers_the_next_line(self, tmp_path):
        report = _lint(tmp_path, """
            import time

            async def handler():
                # repro-lint: ignore[async-purity]
                time.sleep(1.0)
        """, rule_ids=["async-purity"])
        assert report.exit_code() == 0
        assert len(report.suppressed) == 1


# --------------------------------------------------------------------------- #
class TestReportAndEngine:
    def test_json_schema(self, tmp_path):
        report = _lint(tmp_path, """
            import time

            async def handler():
                time.sleep(1.0)
                time.sleep(2.0)  # repro-lint: ignore[async-purity]
        """, rule_ids=["async-purity"])
        document = json.loads(report.to_json())
        assert document["tool"] == "repro-lint"
        assert document["rules"] == ["async-purity"]
        assert document["n_files"] == 1
        assert document["summary"] == {
            "gating": 1, "suppressed": 1, "parse_errors": 0,
            "by_severity": {"error": 1},
        }
        (finding,) = document["findings"]
        assert set(finding) == {
            "message", "line", "col", "rule", "severity", "path", "suppressed",
        }
        assert finding["suppressed"] is False
        (waived,) = document["suppressed_findings"]
        assert waived["suppressed"] is True

    def test_findings_sorted_by_path_then_line(self, tmp_path):
        (tmp_path / "b.py").write_text(
            "import time\n\nasync def g():\n    time.sleep(2)\n    time.sleep(1)\n"
        )
        (tmp_path / "a.py").write_text(
            "import time\n\nasync def f():\n    time.sleep(1)\n"
        )
        report = lint_paths([str(tmp_path)], rule_ids=["async-purity"])
        keys = [(f.path, f.line) for f in report.gating]
        assert keys == sorted(keys)

    def test_parse_error_is_a_gating_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        report = lint_paths([str(tmp_path)], rule_ids=["async-purity"])
        assert report.exit_code() == 1
        assert report.gating[0].rule == "parse-error"

    def test_unknown_rule_fails_fast(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown lint rule"):
            lint_paths([str(tmp_path)], rule_ids=["no-such-rule"])

    def test_missing_path_fails_fast(self):
        with pytest.raises(ValidationError, match="no such file"):
            lint_paths(["/no/such/dir"])

    def test_iter_python_files_skips_caches_and_dedups(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "mod.cpython-39.py").write_text("x = 1\n")
        files = iter_python_files([str(tmp_path), str(tmp_path / "mod.py")])
        assert files == [str(tmp_path / "mod.py")]

    def test_render_text_mentions_summary(self, tmp_path):
        report = _lint(tmp_path, "x = 1\n", rule_ids=["async-purity"])
        assert "repro-lint: clean in 1 file(s)" in report.render_text()


# --------------------------------------------------------------------------- #
class TestApiSnapshot:
    def test_surface_is_deterministic(self):
        first = build_api_surface()
        second = build_api_surface()
        assert first == second
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert "0x" not in json.dumps(first)

    def test_surface_covers_the_public_package(self):
        import repro

        surface = build_api_surface()
        assert set(surface["symbols"]) == set(repro.__all__) | {"open"}

    def test_fresh_snapshot_is_clean(self, tmp_path):
        path = tmp_path / "snap.json"
        write_snapshot(str(path))
        drifts, present = check_snapshot(str(path))
        assert present is True
        assert drifts == []

    def test_missing_snapshot_reports_how_to_create_it(self, tmp_path):
        drifts, present = check_snapshot(str(tmp_path / "absent.json"))
        assert present is False
        assert any("--write-snapshot" in message for message in drifts)

    def test_tampered_snapshot_reports_drift(self, tmp_path):
        path = tmp_path / "snap.json"
        surface = write_snapshot(str(path))
        doctored = json.loads(json.dumps(surface))
        removed = "DepthGrid"
        assert removed in doctored["symbols"]
        del doctored["symbols"][removed]
        doctored["symbols"]["brand_new_thing"] = {"kind": "function", "signature": "()"}
        path.write_text(json.dumps(doctored))
        drifts, present = check_snapshot(str(path))
        assert present is True
        assert any(removed in message for message in drifts)
        assert any("brand_new_thing" in message for message in drifts)

    def test_signature_drift_detected(self, tmp_path):
        path = tmp_path / "snap.json"
        surface = write_snapshot(str(path))
        doctored = json.loads(json.dumps(surface))
        name = next(
            symbol for symbol, info in sorted(doctored["symbols"].items())
            if info.get("signature")
        )
        doctored["symbols"][name]["signature"] = "(totally, different)"
        drifts = diff_surfaces(doctored, surface)
        assert any(name in message and "signature" in message for message in drifts)

    def test_snapshot_rule_gates_through_the_engine(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        report = lint_paths(
            [str(tmp_path)],
            rule_ids=["api-snapshot"],
            snapshot_path=str(tmp_path / "absent.json"),
        )
        assert report.exit_code() == 1
        assert report.gating[0].rule == "api-snapshot"

    def test_snapshot_rule_skipped_without_a_path(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        report = lint_paths([str(tmp_path)], rule_ids=["api-snapshot"])
        assert report.exit_code() == 0


# --------------------------------------------------------------------------- #
class TestCli:
    def _write_dirty(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text(
            "import time\n\nasync def handler():\n    time.sleep(1.0)\n"
        )
        return str(path)

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert main([str(tmp_path), "--no-snapshot"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_and_render(self, tmp_path, capsys):
        path = self._write_dirty(tmp_path)
        assert main([path, "--no-snapshot"]) == 1
        out = capsys.readouterr().out
        assert "async-purity" in out and "dirty.py:4" in out

    def test_json_format_parses(self, tmp_path, capsys):
        path = self._write_dirty(tmp_path)
        assert main([path, "--format", "json", "--no-snapshot"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["gating"] == 1

    def test_rules_filter(self, tmp_path):
        path = self._write_dirty(tmp_path)
        assert main([path, "--rules", "type-discipline", "--no-snapshot"]) == 0

    def test_unknown_rule_is_a_usage_error(self, tmp_path, capsys):
        path = self._write_dirty(tmp_path)
        assert main([path, "--rules", "nope", "--no-snapshot"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in BUILTIN_RULES:
            assert rule_id in out

    def test_list_rules_json(self, capsys):
        assert main(["--list-rules", "--format", "json"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert BUILTIN_RULES <= {entry["id"] for entry in table}

    def test_no_paths_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_write_snapshot(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--write-snapshot"]) == 0
        assert "wrote api_snapshot.json" in capsys.readouterr().out
        drifts, present = check_snapshot(str(tmp_path / "api_snapshot.json"))
        assert present and drifts == []

    def test_snapshot_gate_via_cli(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code = main([
            str(tmp_path), "--snapshot", str(tmp_path / "absent.json"),
        ])
        assert code == 1
        assert "api-snapshot" in capsys.readouterr().out

    def test_write_callgraph_cli(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "cg.json"
        fixture = REPO_ROOT / "tests" / "fixtures" / "racepkg"
        assert main(["--write-callgraph", str(target), str(fixture)]) == 0
        assert "wrote" in capsys.readouterr().out
        document = json.loads(target.read_text())
        assert document["tool"] == "repro-callgraph"


# --------------------------------------------------------------------------- #
class TestFullCorpus:
    """The repository's own source tree is the ultimate fixture."""

    def test_src_lints_clean_against_checked_in_snapshot(self):
        report = lint_paths(
            [str(REPO_ROOT / "src")],
            snapshot_path=str(REPO_ROOT / "api_snapshot.json"),
        )
        assert report.gating == [], report.render_text()
        # every waiver in the tree names a real rule at a deliberate site
        assert report.suppressed, "expected the documented deliberate waivers"
        assert {f.rule for f in report.suppressed} <= BUILTIN_RULES

    def test_checked_in_snapshot_is_current(self):
        snapshot_path = REPO_ROOT / "api_snapshot.json"
        drifts, present = check_snapshot(str(snapshot_path))
        assert present is True
        assert drifts == [], "\n".join(drifts)
