"""Every definition in ``src/`` is named somewhere else in ``src/``.

A function, class or method that nothing in the program names is kept alive
only by its own tests.  The definitions, and which of them a decorator
registers (``@register_op``, ``@register_backend``, ``@register_rule``),
come from repro-lint's call graph.  The graph holds call edges only, while a
definition can be used without being called (a property read, a callback
passed by reference, a call made at module level), so the scan counts words:
every word of ``src/``, docstrings and comments included, except the
``def``/``class`` line itself and the lines of ``import`` statements and
``__all__`` lists, which only re-export a name.  Excluded as well: names in
``api_snapshot.json`` (the public surface and its classes' members), dunder
methods, the ``setup.py`` entry points, and names the code under
``examples/``, ``benchmarks/`` or ``perfbench/`` imports or reads as an
attribute.  A bare name there (a local variable, a parameter) exempts
nothing: it only shares a definition's name.  Anything else the scan finds
must be in :data:`ALLOWLIST`, with its reason.

A name mentioned only in a docstring, a comment or the definition's own body
still counts as named, so the scan is a floor: it catches a definition
nothing mentions, not every one nothing calls.
"""

import ast
import re
from pathlib import Path

from repro.staticcheck.apisnapshot import load_snapshot
from repro.staticcheck.callgraph import build_call_graph, module_name_for_path
from repro.staticcheck.engine import iter_python_files

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ALLOWLIST = {
    "repro.core.depth_mapping.pixel_yz_to_depth_scalar": (
        "scalar reference: tests compare the kernels' trapezoid table with it"
    ),
    "repro.core.trapezoid.trapezoid_from_depths": (
        "reference form: tests compare the fused kernel's overlaps with the Trapezoid it builds"
    ),
    "repro.geometry.detector.Detector.pixel_positions": (
        "reference form: test_row_yz_matches_pixel_positions compares row_yz with it"
    ),
    "repro.io.image_stack.load_wire_scan": (
        "reads back what save_wire_scan writes; tests round-trip scans through it"
    ),
    "repro.io.text_output.read_depth_profiles": (
        "reads back what write_depth_profiles writes; tests check the round trip"
    ),
    "repro.staticcheck.callgraph.CallGraph.submission_roots": (
        "tests observe forwarded thread-pool submissions through it"
    ),
    "repro.staticcheck.registry.unregister_rule": (
        "the inverse of @register_rule; tests remove the throwaway rules they register"
    ),
    "repro.synthetic.noise.add_background": (
        "builds the inputs of the background-subtraction reconstruction tests"
    ),
    "repro.synthetic.noise.add_hot_pixels": (
        "builds the inputs of the masked-hot-pixel reconstruction tests"
    ),
    "repro.utils.logging.RequestContextFilter.filter": (
        "logging.Filter callback: the logging module calls it by name"
    ),
}


def _reexport_lines(tree):
    """Line numbers of import statements and ``__all__`` assignments."""
    lines = set()
    for node in ast.walk(tree):
        is_all = isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        )
        if isinstance(node, (ast.Import, ast.ImportFrom)) or is_all:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _exempt_names():
    used = set()
    outside = [str(ROOT / directory) for directory in ("examples", "benchmarks", "perfbench")]
    for path in iter_python_files(outside):
        for node in ast.walk(ast.parse(Path(path).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
    snapshot = load_snapshot(str(ROOT / "api_snapshot.json"))["symbols"]
    used.update(snapshot)
    for symbol in snapshot.values():
        used.update(symbol.get("methods", {}), symbol.get("properties", []))
    setup = (ROOT / "setup.py").read_text(encoding="utf-8")
    used.update(re.findall(r"=\s*[\w.]+:(\w+)", setup))
    return used


def _definitions():
    """``(qualname, module, line)`` of every module- and class-level def and
    class in ``src/``, less the functions and classes a decorator registers."""
    graph = build_call_graph([str(SRC)])
    found = [
        (qualname, node.module, node.line)
        for qualname, node in graph.functions.items()
        if node.kind == "method" or (node.kind == "function" and not node.is_entry)
    ]
    found += [
        (qualname, record.module, record.node.lineno)
        for qualname, record in graph.classes.items()
        if not record.is_entry
    ]
    return found


def unnamed_definitions():
    """Qualnames of the definitions named nowhere else in ``src/``, after
    the exclusions."""
    word_lines = {}  # word -> {(module, line)}
    for path in iter_python_files([str(SRC)]):
        text = Path(path).read_text(encoding="utf-8")
        module = module_name_for_path(path)
        skipped = _reexport_lines(ast.parse(text))
        for lineno, line in enumerate(text.splitlines(), start=1):
            if lineno not in skipped:
                for word in set(re.findall(r"\w+", line)):
                    word_lines.setdefault(word, set()).add((module, lineno))
    exempt = _exempt_names()
    unnamed = []
    for qualname, module, line in _definitions():
        name = qualname.rsplit(".", 1)[-1]
        if (name.startswith("__") and name.endswith("__")) or name in exempt:
            continue
        if not word_lines.get(name, set()) - {(module, line)}:
            unnamed.append(qualname)
    return sorted(unnamed)


def test_every_definition_is_named_elsewhere_in_src():
    unnamed = unnamed_definitions()
    unexplained = [qualname for qualname in unnamed if qualname not in ALLOWLIST]
    assert not unexplained, (
        "definitions nothing else in src/ names (delete them, or add each to "
        f"ALLOWLIST with its reason): {unexplained}"
    )
    stale = sorted(set(ALLOWLIST) - set(unnamed))
    assert not stale, f"ALLOWLIST entries the scan no longer finds: {stale}"


def test_allowlist_stays_short():
    assert len(ALLOWLIST) <= 10
    assert all(reason.strip() for reason in ALLOWLIST.values())
