"""The lint engine: walk files, parse, run rules, apply suppressions.

:func:`lint_paths` is the one entry point — the CLI, the CI job and the
test suite all route through it, so they can never disagree about what a
"clean" run means::

    from repro.staticcheck import lint_paths

    report = lint_paths(["src"], snapshot_path="api_snapshot.json")
    print(report.render_text())
    raise SystemExit(report.exit_code())

The report separates **unsuppressed** findings (which gate: any of them
makes :meth:`LintReport.exit_code` nonzero) from **suppressed** ones
(visible in the JSON record so a suppression can never silently hide —
CI artifacts show exactly what was waived and where) and **parse errors**
(a file the linter cannot read is a finding, not an excuse).
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence

from repro.staticcheck.model import Finding, ModuleContext, ProjectContext
from repro.staticcheck.registry import available_rules, rule_info
from repro.utils.validation import ValidationError
from repro.utils.version import package_version

__all__ = ["LintReport", "lint_paths", "iter_python_files"]

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".mypy_cache", ".pytest_cache"}


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        found.append(os.path.join(dirpath, name))
        elif os.path.isfile(path):
            found.append(path)
        else:
            raise ValidationError(f"no such file or directory: {path!r}")
    seen = set()
    unique = []
    for path in found:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


@dataclass
class LintReport:
    """Everything one lint invocation learned."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    parse_errors: List[Finding] = field(default_factory=list)
    rule_ids: List[str] = field(default_factory=list)
    n_files: int = 0

    # ------------------------------------------------------------------ #
    @property
    def gating(self) -> List[Finding]:
        """Findings that fail the run: every unsuppressed one, parse errors included."""
        return sorted(self.parse_errors + self.findings, key=Finding.sort_key)

    def counts_by_severity(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.gating:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return counts

    def exit_code(self) -> int:
        """``0`` clean, ``1`` any unsuppressed finding (the CI gate)."""
        return 1 if self.gating else 0

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """The ``--format json`` document (stable schema, sorted findings)."""
        return {
            "tool": "repro-lint",
            "version": package_version(),
            "rules": list(self.rule_ids),
            "n_files": self.n_files,
            "summary": {
                "gating": len(self.gating),
                "suppressed": len(self.suppressed),
                "parse_errors": len(self.parse_errors),
                "by_severity": self.counts_by_severity(),
            },
            "findings": [f.to_dict() for f in self.gating],
            "suppressed_findings": [
                f.to_dict() for f in sorted(self.suppressed, key=Finding.sort_key)
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render_text(self, show_suppressed: bool = False) -> str:
        """Human rendering: one line per finding plus a summary line."""
        lines = [finding.render() for finding in self.gating]
        if show_suppressed:
            lines.extend(f.render() for f in sorted(self.suppressed, key=Finding.sort_key))
        counts = self.counts_by_severity()
        summary = ", ".join(f"{counts[s]} {s}(s)" for s in sorted(counts)) or "clean"
        lines.append(
            f"repro-lint: {summary} in {self.n_files} file(s) "
            f"({len(self.suppressed)} suppressed)"
        )
        return "\n".join(lines)


def _select_rules(rule_ids: Optional[Iterable[str]]):
    if rule_ids is None:
        return [rule_info(rule_id) for rule_id in available_rules()]
    return [rule_info(rule_id) for rule_id in rule_ids]


def lint_paths(
    paths: Sequence[str],
    rule_ids: Optional[Iterable[str]] = None,
    snapshot_path: Optional[str] = None,
) -> LintReport:
    """Lint *paths* (files and/or directories) and return the report.

    ``rule_ids`` restricts the run to the named rules (default: every
    registered rule); unknown ids fail fast with a did-you-mean, exactly
    like unknown backends.  ``snapshot_path`` feeds project-scope rules —
    the ``api-snapshot`` rule is skipped when it is ``None`` (module-scope
    fixture runs in the test suite) and enforced when given (the CI gate).
    """
    infos = _select_rules(rule_ids)
    report = LintReport(rule_ids=[info.id for info in infos])
    module_rules = [info for info in infos if info.scope == "module"]
    project_rules = [info for info in infos if info.scope == "project"]

    contexts: List[ModuleContext] = []
    for path in iter_python_files(paths):
        report.n_files += 1
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (UnicodeDecodeError, OSError) as exc:
            report.parse_errors.append(Finding(
                message=f"cannot parse: {exc}", line=0, col=0,
                rule="parse-error", severity="error", path=path,
            ))
            continue

        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            line = getattr(exc, "lineno", 0) or 0
            report.parse_errors.append(Finding(
                message=f"cannot parse: {exc}", line=line, col=0,
                rule="parse-error", severity="error", path=path,
            ))
            continue
        context = ModuleContext(path=path, source=source, tree=tree)
        contexts.append(context)

        for info in module_rules:
            for draft in info.func(context):
                finding = draft.stamped(
                    rule=info.id, severity=info.severity, path=path
                )
                if context.is_suppressed(finding.line, info.id):
                    report.suppressed.append(replace(finding, suppressed=True))
                else:
                    report.findings.append(finding)

    if project_rules:
        project = ProjectContext(
            paths=list(paths),
            modules=contexts,
            options={"snapshot_path": snapshot_path},
        )
        context_by_path = {context.path: context for context in contexts}
        for info in project_rules:
            for draft in info.func(project):
                finding = draft.stamped(
                    rule=info.id, severity=info.severity,
                    path=draft.path or (snapshot_path or ""),
                )
                # project rules anchor findings in real modules too
                # (thread-escape, kernel-determinism) — honor at-site
                # suppressions exactly like module-scope findings
                context = context_by_path.get(finding.path)
                if context is not None and context.is_suppressed(finding.line, info.id):
                    report.suppressed.append(replace(finding, suppressed=True))
                else:
                    report.findings.append(finding)

    report.findings.sort(key=Finding.sort_key)
    return report
