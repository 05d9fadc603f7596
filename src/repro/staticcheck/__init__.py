"""repro.staticcheck — the project-invariant static analysis subsystem.

The codebase's correctness rests on contracts no general-purpose linter
knows about: bitwise-deterministic kernels, leak-free shared-memory
lifecycles, non-blocking asyncio handlers, registry-decorated ops with
strict introspectable signatures, and a public API that changes only on
purpose.  ``repro-lint`` (also ``python -m repro.staticcheck``) enforces
them as AST-level rules with the same plugin idiom as backends and ops::

    from repro.staticcheck import lint_paths, register_rule

    report = lint_paths(["src"], snapshot_path="api_snapshot.json")
    print(report.render_text())

Findings are suppressed in place with ``# repro-lint: ignore[rule-id]``
(same line, or a standalone comment on the line above) — every waiver is
visible at the site it waives and in the JSON report CI uploads.

Deliberately **not** exported from the top-level ``repro`` package: the
linter is a development tool, importing it must never be a side effect of
using the library, and the API snapshot it guards should not include the
guard itself.
"""

from repro.staticcheck.apisnapshot import (
    build_api_surface,
    diff_surfaces,
    load_snapshot,
    write_snapshot,
)
from repro.staticcheck.callgraph import (
    CallGraph,
    build_call_graph,
    write_callgraph,
)
from repro.staticcheck.engine import LintReport, iter_python_files, lint_paths
from repro.staticcheck.model import Finding, ModuleContext, ProjectContext
from repro.staticcheck.registry import (
    RuleInfo,
    available_rules,
    register_rule,
    register_rule_info,
    rule_info,
    rules,
    unregister_rule,
)

__all__ = [
    "CallGraph",
    "Finding",
    "LintReport",
    "ModuleContext",
    "ProjectContext",
    "RuleInfo",
    "available_rules",
    "build_api_surface",
    "build_call_graph",
    "diff_surfaces",
    "iter_python_files",
    "lint_paths",
    "load_snapshot",
    "register_rule",
    "register_rule_info",
    "rule_info",
    "rules",
    "unregister_rule",
    "write_callgraph",
    "write_snapshot",
]
