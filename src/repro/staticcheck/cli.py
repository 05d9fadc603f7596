"""The ``repro-lint`` command line (also ``python -m repro.staticcheck``).

Usage patterns::

    repro-lint src                        # lint, text output, exit 1 on findings
    repro-lint src --format json          # machine-readable report (CI artifact)
    repro-lint src --snapshot api_snapshot.json   # + public-API drift gate
    repro-lint --write-snapshot           # regenerate api_snapshot.json
    repro-lint --write-callgraph          # write the call graph to callgraph.json
    repro-lint --list-rules               # the rule table
    repro-lint src --rules async-purity,resource-lifecycle
    repro-lint src --changed-only         # only files git says changed
    repro-lint src --no-memo              # bypass the per-file result memo

Exit codes: ``0`` clean, ``1`` at least one unsuppressed finding (or API
drift), ``2`` usage error.  The JSON document is stable and includes the
suppressed findings, so the CI artifact records what was waived as well as
what fired.

``--changed-only`` restricts the run to files ``git`` reports as changed
since ``--since`` (default ``HEAD``) plus untracked files, and runs only
**module-scope** rules — project rules (call-graph reachability, the API
snapshot) are whole-corpus analyses that a partial file list would
silently weaken, so they are skipped with a note rather than half-run.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from typing import List, Optional, Sequence

from repro.staticcheck.apisnapshot import write_snapshot
from repro.staticcheck.engine import lint_paths
from repro.staticcheck.registry import rule_info, rules as rule_registry
from repro.utils.validation import ValidationError

__all__ = ["main"]

#: conventional snapshot location (repo root / CWD)
DEFAULT_SNAPSHOT = "api_snapshot.json"


def changed_python_files(paths: Sequence[str], since: str = "HEAD") -> List[str]:
    """``.py`` files under *paths* that git reports changed or untracked.

    Changed = ``git diff --name-only --diff-filter=ACMR <since>`` (added,
    copied, modified, renamed — deletions have nothing to lint) plus
    ``git ls-files --others --exclude-standard`` for new files not yet
    staged.  Raises :class:`ValidationError` when git is unavailable or
    *since* does not resolve.
    """
    commands = (
        ["git", "diff", "--name-only", "--diff-filter=ACMR", since],
        ["git", "ls-files", "--others", "--exclude-standard"],
    )
    names: List[str] = []
    for command in commands:
        try:
            result = subprocess.run(
                command, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", "") or str(exc)
            raise ValidationError(
                f"--changed-only needs a working git checkout: "
                f"`{' '.join(command)}` failed: {detail.strip()}"
            ) from None
        names.extend(line.strip() for line in result.stdout.splitlines())

    prefixes = [os.path.normpath(p) for p in paths]
    selected: List[str] = []
    for name in names:
        if not name.endswith(".py") or not os.path.isfile(name):
            continue
        normalized = os.path.normpath(name)
        for prefix in prefixes:
            if (prefix == "." or normalized == prefix
                    or normalized.startswith(prefix + os.sep)):
                if normalized not in selected:
                    selected.append(normalized)
                break
    return sorted(selected)


def _format_rule_table() -> str:
    infos = rule_registry()
    width = max(len(info.id) for info in infos)
    lines = [f"{'rule':<{width}}  severity  scope    description",
             f"{'-' * width}  --------  -------  -----------"]
    for info in infos:
        lines.append(
            f"{info.id:<{width}}  {info.severity:<8}  {info.scope:<7}  {info.description}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-lint``."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Project-invariant static analysis for the repro codebase: "
                    "registry contracts, async purity, resource lifecycles, "
                    "kernel determinism, type discipline and the public-API "
                    "snapshot.",
    )
    parser.add_argument("paths", nargs="*",
                        help="files and/or directories to lint (e.g. src)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (json is the CI artifact schema)")
    parser.add_argument("--rules", default=None, metavar="ID[,ID...]",
                        help="run only the named rules (default: all registered)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rule table and exit")
    parser.add_argument("--snapshot", default=None, metavar="PATH",
                        help="api_snapshot.json location; enables the "
                             "api-snapshot drift gate (default: used when "
                             f"./{DEFAULT_SNAPSHOT} exists)")
    parser.add_argument("--no-snapshot", action="store_true",
                        help="skip the api-snapshot rule even if the default "
                             "snapshot file exists")
    parser.add_argument("--write-snapshot", action="store_true",
                        help="regenerate the API snapshot from the live "
                             "package and exit")
    parser.add_argument("--write-callgraph", nargs="?", const="callgraph.json",
                        default=None, metavar="PATH",
                        help="build the project call graph over the given "
                             "paths (default: src) and write it as "
                             "deterministic JSON, then exit")
    parser.add_argument("--changed-only", action="store_true",
                        help="lint only files git reports changed (plus "
                             "untracked); module-scope rules only")
    parser.add_argument("--since", default="HEAD", metavar="REF",
                        help="base revision for --changed-only (default: HEAD)")
    parser.add_argument("--no-memo", action="store_true",
                        help="disable the per-file lint result memo under "
                             "the shared cache root")
    parser.add_argument("--memo-root", default=None, metavar="DIR",
                        help="override the memo directory (default: "
                             "$REPRO_CACHE_DIR/lint)")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="include suppressed findings in text output")
    args = parser.parse_args(argv)

    if args.list_rules:
        if args.format == "json":
            import json

            print(json.dumps([info.to_dict() for info in rule_registry()],
                             indent=2, sort_keys=True))
        else:
            print(_format_rule_table())
        return 0

    snapshot_path = args.snapshot or DEFAULT_SNAPSHOT
    if args.write_snapshot:
        surface = write_snapshot(snapshot_path)
        print(f"wrote {snapshot_path} ({len(surface['symbols'])} public symbols)")
        return 0

    if args.write_callgraph is not None:
        from repro.staticcheck.callgraph import write_callgraph

        graph_paths = tuple(args.paths) if args.paths else ("src",)
        document = write_callgraph(args.write_callgraph, paths=graph_paths)
        summary = document["summary"]
        print(
            f"wrote {args.write_callgraph} "
            f"({summary['n_functions']} functions, {summary['n_edges']} edges, "
            f"{summary['n_submission_sites']} submission sites)"
        )
        return 0

    if not args.paths:
        parser.error("no paths given (try: repro-lint src)")

    if args.no_snapshot:
        snapshot_arg = None
    elif args.snapshot is not None:
        snapshot_arg = args.snapshot
    else:
        import os

        snapshot_arg = DEFAULT_SNAPSHOT if os.path.isfile(DEFAULT_SNAPSHOT) else None

    rule_ids = None
    if args.rules is not None:
        rule_ids = [part.strip() for part in args.rules.split(",") if part.strip()]

    lint_targets: Sequence[str] = args.paths
    try:
        if args.changed_only:
            lint_targets = changed_python_files(args.paths, since=args.since)
            if not lint_targets:
                print("repro-lint: no changed python files under "
                      + ", ".join(args.paths), file=sys.stderr)
                return 0
            # project rules analyse the whole corpus; running them over a
            # diff would silently weaken them, so drop them with a note
            candidates = rule_ids if rule_ids is not None else [
                info.id for info in rule_registry()
            ]
            skipped = [rid for rid in candidates
                       if rule_info(rid).scope == "project"]
            rule_ids = [rid for rid in candidates
                        if rule_info(rid).scope == "module"]
            if skipped:
                print("repro-lint: --changed-only skips project-scope "
                      "rule(s): " + ", ".join(sorted(skipped)),
                      file=sys.stderr)
            snapshot_arg = None

        memo = None
        if not args.no_memo:
            from repro.staticcheck.memo import LintMemo

            memo = LintMemo(root=args.memo_root)

        report = lint_paths(lint_targets, rule_ids=rule_ids,
                            snapshot_path=snapshot_arg, memo=memo)
    except ValidationError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text(show_suppressed=args.show_suppressed))
    return report.exit_code()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
