"""Tests for ``repro.staticcheck.callgraph`` — the whole-program call graph.

Covers module naming, node/edge construction on synthetic packages,
registry-decorated entry points, submission-site detection (including the
parameter-forwarding resolution ``ThreadPool.submit`` needs),
reachability, and the byte-determinism of the JSON artifact that CI
uploads as ``callgraph.json``.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.staticcheck.callgraph import (
    build_call_graph,
    module_name_for_path,
    write_callgraph,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
RACEPKG = REPO_ROOT / "tests" / "fixtures" / "racepkg"


@pytest.fixture(scope="module")
def project_graph():
    """The call graph of the repository's ``src/`` tree, built once for every
    test that only reads it."""
    return build_call_graph([str(REPO_ROOT / "src")])


def _write_pkg(tmp_path, files):
    """Create a package tree from {relative path: source} and return its root."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return str(tmp_path)


# --------------------------------------------------------------------------- #
class TestModuleNaming:
    def test_package_chain_walked(self):
        path = str(REPO_ROOT / "src" / "repro" / "core" / "cache.py")
        assert module_name_for_path(path) == "repro.core.cache"

    def test_init_module_named_after_package(self):
        path = str(REPO_ROOT / "src" / "repro" / "core" / "__init__.py")
        assert module_name_for_path(path) == "repro.core"

    def test_walk_stops_at_non_package_dir(self):
        path = str(RACEPKG / "board.py")
        assert module_name_for_path(path) == "racepkg.board"


# --------------------------------------------------------------------------- #
class TestGraphConstruction:
    def test_method_call_edges_via_self_and_annotation(self, tmp_path):
        root = _write_pkg(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                class Greeter:
                    def greet(self) -> str:
                        return self.name()

                    def name(self) -> str:
                        return "hi"

                def use(greeter: Greeter) -> str:
                    return greeter.greet()
            """,
        })
        graph = build_call_graph([root])
        assert "pkg.mod.Greeter.name" in graph.edges["pkg.mod.Greeter.greet"]
        assert "pkg.mod.Greeter.greet" in graph.edges["pkg.mod.use"]

    def test_registry_decorated_functions_are_entry_points(self, tmp_path):
        root = _write_pkg(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/ops.py": """
                from repro.core.ops import register_op

                @register_op("fixture-op")
                def fixture_op(run):
                    return run

                def helper(run):
                    return run
            """,
        })
        graph = build_call_graph([root])
        entries = graph.entry_points()
        assert "pkg.ops.fixture_op" in entries
        assert "pkg.ops.helper" not in entries

    def test_nested_function_qualname_and_edge(self, tmp_path):
        root = _write_pkg(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/nest.py": """
                def outer():
                    def inner():
                        return leaf()
                    return inner

                def leaf():
                    return 1
            """,
        })
        graph = build_call_graph([root])
        assert "pkg.nest.outer.<locals>.inner" in graph.functions
        assert "pkg.nest.leaf" in graph.edges["pkg.nest.outer.<locals>.inner"]

    def test_submission_site_thread_target(self):
        graph = build_call_graph([str(RACEPKG)])
        sites = [s for s in graph.submission_sites if s.api == "Thread"]
        assert any(
            s.callee == "racepkg.runner.hammer.<locals>.spin" for s in sites
        )

    def test_reachability_crosses_closure_receiver_type(self):
        graph = build_call_graph([str(RACEPKG)])
        reached = graph.reachable(["racepkg.runner.hammer.<locals>.spin"])
        assert "racepkg.board.TallyBoard.bump_miss" in reached


# --------------------------------------------------------------------------- #
class TestProjectGraph:
    """The repository's own source tree as the fixture."""

    def test_forwarded_submission_resolves_thread_pool_band(self, project_graph):
        # ThreadPool.submit(fn) forwards its parameter to executor.submit on
        # two lines (first try and respawn); both resolve to the callable
        # the threaded backend hands it
        graph = project_graph
        band = "repro.core.backends.threaded._reconstruct_band"
        lines = {
            site.line for site in graph.submission_sites
            if site.caller == "repro.core.workerpool.ThreadPool.submit"
            and site.api == "submit" and site.callee == band
        }
        assert len(lines) == 2
        assert band in graph.submission_roots()

    def test_every_edge_endpoint_is_known(self, project_graph):
        # callers are always functions; callees may also be classes
        # (a constructor call is an edge to the class qualname)
        graph = project_graph
        for caller, callees in graph.edges.items():
            assert caller in graph.functions
            for callee in callees:
                assert callee in graph.functions or callee in graph.classes, (
                    f"{caller} -> {callee}"
                )


# --------------------------------------------------------------------------- #
class TestDeterminism:
    def test_two_fresh_builds_are_byte_identical(self, project_graph):
        # the module's shared graph is one independent build, this the other
        first = project_graph.to_json()
        second = build_call_graph([str(REPO_ROOT / "src")]).to_json()
        assert first == second
        assert "0x" not in first  # no leaked object ids

    def test_write_callgraph_artifact_roundtrips(self, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        out = tmp_path / "callgraph.json"
        document = write_callgraph(str(out), paths=("src",))
        on_disk = json.loads(out.read_text())
        assert on_disk == document
        assert on_disk["tool"] == "repro-callgraph"
        summary = on_disk["summary"]
        assert summary["n_functions"] == len(on_disk["functions"])
        assert summary["n_submission_sites"] == len(on_disk["submission_sites"])

    def test_json_document_is_sorted(self):
        document = build_call_graph([str(RACEPKG)]).to_dict()
        functions = list(document["functions"])
        assert functions == sorted(functions)
        modules = list(document["modules"])
        assert modules == sorted(modules)
