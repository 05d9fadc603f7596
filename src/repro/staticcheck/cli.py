"""The ``repro-lint`` command line (also ``python -m repro.staticcheck``).

Usage patterns::

    repro-lint src                        # lint, text output, exit 1 on findings
    repro-lint src --format json          # machine-readable report (CI artifact)
    repro-lint src --snapshot api_snapshot.json   # + public-API drift gate
    repro-lint --write-snapshot           # regenerate api_snapshot.json
    repro-lint --write-callgraph          # write the call graph to callgraph.json
    repro-lint --list-rules               # the rule table
    repro-lint src --rules async-purity,resource-lifecycle

Exit codes: ``0`` clean, ``1`` at least one unsuppressed finding (or API
drift), ``2`` usage error.  The JSON document is stable and includes the
suppressed findings, so the CI artifact records what was waived as well as
what fired.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.staticcheck.apisnapshot import write_snapshot
from repro.staticcheck.engine import lint_paths
from repro.staticcheck.registry import rules as rule_registry
from repro.utils.validation import ValidationError

__all__ = ["main"]

#: conventional snapshot location (repo root / CWD)
DEFAULT_SNAPSHOT = "api_snapshot.json"


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

    try:
        report = lint_paths(args.paths, rule_ids=rule_ids, snapshot_path=snapshot_arg)
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
