"""Command-line entry points.

Nine small tools mirror the original workflow:

``repro-generate``
    Produce a synthetic wire-scan data set (h5lite file) with known ground
    truth — the stand-in for acquiring data at the beamline.
``repro-reconstruct``
    Run the depth reconstruction on a wire-scan file and write the
    depth-resolved output (the original program's job).  ``--streaming``
    selects the out-of-core mode that never loads the full cube;
    ``--executor threads`` runs the vectorized kernel on the thread pool;
    ``--provenance`` writes the run's JSON provenance record.
``repro-batch``
    Schedule many wire-scan files (or globs/directories) across a worker
    pool and print the aggregated batch report.
``repro-backends``
    Introspect the pluggable backend registry: names, capability flags and
    where each backend is defined.
``repro-analyze``
    Apply named analysis ops (``repro.analysis`` pipelines) to saved
    depth-resolved run files and emit the JSON analysis record — for a
    single file, byte-identical to
    ``repro.analysis(...).apply(path).to_json()``.  A glob or directory
    input analyses every run in it (per-item error table on stderr and a
    nonzero exit when any item fails).
``repro-cache``
    Administer the content-addressed result cache: ``stats``, ``prune``
    (``--max-bytes`` / ``--older-than``), ``clear`` and ``verify`` (which
    deletes — never serves — unverifiable entries).
``repro-benchmark``
    Run the paper's figure sweeps from the command line.
``repro-serve``
    Run the reconstruction service: an asyncio HTTP daemon with a bounded
    fair priority queue, cache-first admission (single-flight collapsed),
    per-job timeouts, graceful SIGTERM drain and a ``/metrics`` endpoint.
    See the README's *Serving* section.
``repro-lint``
    Run the project-invariant static analysis (registry contracts, async
    purity, resource lifecycles, kernel determinism, type discipline, the
    public-API snapshot).  Lives in :mod:`repro.staticcheck.cli` — a
    development tool, deliberately not imported here so the runtime CLI
    never pays for the linter.

Everything routes through the ``repro.open()`` / ``repro.session()`` front
door, so the CLI exercises exactly the code path library users get.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.config import _RETIRED_NAMES, DifferenceMode, ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.core.registry import available_backends, backends
from repro.core.session import session
from repro.geometry.wire import WireEdge
from repro.utils.logging import configure as configure_logging
from repro.utils.validation import ValidationError

__all__ = [
    "main_generate",
    "main_reconstruct",
    "main_batch",
    "main_backends",
    "main_analyze",
    "main_cache",
    "main_benchmark",
    "main_serve",
]


def _add_reconstruction_args(parser: argparse.ArgumentParser) -> None:
    """Reconstruction-configuration flags shared by the single-file and batch tools."""
    parser.add_argument("--depth-start", type=float, default=0.0)
    parser.add_argument("--depth-stop", type=float, default=100.0)
    parser.add_argument("--depth-bins", type=int, default=50)
    # the retired backend names still parse (the config maps them, with a
    # DeprecationWarning) but the usage line names only the current ones
    current = available_backends()
    parser.add_argument("--backend", default="vectorized", metavar="{" + ",".join(current) + "}",
                        choices=current + sorted(_RETIRED_NAMES["backend"]))
    parser.add_argument("--executor", default="serial", choices=["serial", "threads"],
                        help="where the vectorized kernel runs: in the calling thread, "
                             "or in row bands on the shared thread pool")
    parser.add_argument("--layout", default="flat1d", choices=["flat1d", "pointer3d"])
    parser.add_argument("--rows-per-chunk", type=int, default=None)
    parser.add_argument("--edge", default="leading", choices=["leading", "trailing"])
    parser.add_argument("--difference-mode", default="signed", choices=["signed", "rectified"])
    parser.add_argument("--cutoff", type=float, default=0.0)
    parser.add_argument("--streaming", action="store_true",
                        help="stream row chunks from disk instead of loading the cube")
    # two flags, not one optional-argument flag: `--cache ROOT` with nargs="?"
    # would greedily swallow a following positional input file as the root
    parser.add_argument("--cache", action="store_true",
                        help="serve fingerprint-identical requests from the result "
                             "cache (root: $REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--cache-root", default=None, metavar="ROOT",
                        help="result-cache root directory (implies --cache)")


def _cache_from_args(args: argparse.Namespace):
    """The ``cache=`` session argument the shared CLI flags select."""
    if args.cache_root is not None:
        return args.cache_root
    return bool(args.cache)


def _config_from_args(args: argparse.Namespace) -> ReconstructionConfig:
    """Build a :class:`ReconstructionConfig` from the shared CLI flags."""
    return ReconstructionConfig(
        grid=DepthGrid.from_range(args.depth_start, args.depth_stop, args.depth_bins),
        backend=args.backend,
        executor=args.executor,
        layout=args.layout,
        rows_per_chunk=args.rows_per_chunk,
        wire_edge=WireEdge.LEADING if args.edge == "leading" else WireEdge.TRAILING,
        difference_mode=DifferenceMode(args.difference_mode),
        intensity_cutoff=args.cutoff,
        streaming=args.streaming,
    )


def _one_line_errors(main: Callable[..., int]) -> Callable[..., int]:
    """Report the library's typed user errors as one line and exit code 2.

    ``OSError`` (a missing or malformed input — ``H5LiteError`` is one — or
    an output path in a missing directory) and ``ValidationError`` (a bad
    argument) are the caller's to fix, so they print as ``error: …`` on
    stderr — like argparse's own usage errors — instead of a traceback.
    """

    @functools.wraps(main)
    def wrapper(argv: Optional[Sequence[str]] = None) -> int:
        try:
            return main(argv)
        except (OSError, ValidationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    return wrapper


# --------------------------------------------------------------------------- #
@_one_line_errors
def main_generate(argv: Optional[Sequence[str]] = None) -> int:
    """Generate a synthetic wire-scan data set."""
    parser = argparse.ArgumentParser(
        prog="repro-generate", description="Generate a synthetic wire-scan data set (h5lite)."
    )
    parser.add_argument("output", help="output .h5lite file path")
    parser.add_argument("--kind", choices=["grains", "benchmark"], default="grains")
    parser.add_argument("--material", default="Cu")
    parser.add_argument("--grains", type=int, default=3)
    parser.add_argument("--rows", type=int, default=32)
    parser.add_argument("--cols", type=int, default=32)
    parser.add_argument("--positions", type=int, default=101)
    parser.add_argument("--size-label", default="2.1G", help="paper size label for --kind benchmark")
    parser.add_argument("--pixel-fraction", type=float, default=1.0)
    parser.add_argument("--noise", action="store_true")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    configure_logging()

    from repro.io.image_stack import save_wire_scan
    from repro.synthetic.workloads import make_benchmark_workload, make_grain_sample_stack

    if args.kind == "grains":
        stack, _source, sample = make_grain_sample_stack(
            material=args.material,
            n_grains=args.grains,
            n_rows=args.rows,
            n_cols=args.cols,
            n_positions=args.positions,
            seed=args.seed,
            noise=args.noise,
        )
        boundaries = ", ".join(f"{b:.1f}" for b in sample.true_grain_boundaries())
        print(f"generated grain sample stack {stack.shape}; grain boundaries at {boundaries} um")
    else:
        workload = make_benchmark_workload(
            args.size_label, pixel_fraction=args.pixel_fraction, noise=args.noise, seed=args.seed
        )
        stack = workload.stack
        print(workload.describe())

    save_wire_scan(args.output, stack)
    print(f"wrote {args.output} ({stack.nbytes / 1e6:.2f} MB of image data)")
    return 0


# --------------------------------------------------------------------------- #
@_one_line_errors
def main_reconstruct(argv: Optional[Sequence[str]] = None) -> int:
    """Reconstruct a wire-scan file."""
    parser = argparse.ArgumentParser(
        prog="repro-reconstruct", description="Depth-reconstruct a wire-scan h5lite file."
    )
    parser.add_argument("input", help="input wire-scan .h5lite file")
    parser.add_argument("-o", "--output", help="output depth-resolved .h5lite file")
    parser.add_argument("--text", help="optional text output of depth profiles")
    parser.add_argument("--provenance",
                        help="write the run's JSON provenance record to this path")
    _add_reconstruction_args(parser)
    args = parser.parse_args(argv)
    configure_logging()

    config = _config_from_args(args)
    run = session(config=config).run(
        args.input, output_path=args.output, text_path=args.text,
        cache=_cache_from_args(args),
    )
    if run.cache_stats is not None and run.cache_stats.hit:
        print(f"cache hit ({run.cache_stats.key[:12]}…, verified digest "
              f"{run.cache_stats.digest[:12]}…)")
    print(run.report.summary())
    integrated = run.result.integrated_profile()
    peak_bin = int(np.argmax(integrated))
    print(
        f"integrated depth profile peaks at {run.result.grid.index_to_depth(peak_bin):.2f} um "
        f"({integrated[peak_bin]:.3g} intensity)"
    )
    if args.provenance:
        with open(args.provenance, "w", encoding="utf-8") as fh:
            fh.write(run.to_json())
        print(f"wrote provenance record to {args.provenance}")
    return 0


# --------------------------------------------------------------------------- #
@_one_line_errors
def main_batch(argv: Optional[Sequence[str]] = None) -> int:
    """Reconstruct a batch of wire-scan files on a worker pool."""
    parser = argparse.ArgumentParser(
        prog="repro-batch",
        description="Depth-reconstruct many wire-scan h5lite files concurrently.",
    )
    parser.add_argument("inputs", nargs="+",
                        help="input wire-scan .h5lite files, globs or directories")
    parser.add_argument("-d", "--output-dir",
                        help="directory for per-file depth-resolved outputs (<stem>_depth.h5lite)")
    parser.add_argument("-j", "--max-workers", type=int, default=None,
                        help="concurrent reconstructions (default: min(4, n_files))")
    _add_reconstruction_args(parser)
    args = parser.parse_args(argv)
    configure_logging()

    from repro.perf.reporting import format_batch_table

    config = _config_from_args(args)
    batch = session(config=config).run_many(
        list(args.inputs),
        max_workers=args.max_workers,
        output_dir=args.output_dir,
        keep_results=False,
        cache=_cache_from_args(args),
    )
    print(format_batch_table(batch))
    return 0 if batch.n_failed == 0 else 1


# --------------------------------------------------------------------------- #
@_one_line_errors
def main_backends(argv: Optional[Sequence[str]] = None) -> int:
    """Introspect the backend registry."""
    parser = argparse.ArgumentParser(
        prog="repro-backends",
        description="List registered reconstruction backends and their capabilities.",
    )
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the registry as JSON instead of a table")
    args = parser.parse_args(argv)

    from repro.perf.reporting import format_backend_table

    infos = backends()
    if args.as_json:
        print(json.dumps([info.to_dict() for info in infos], indent=2, sort_keys=True))
    else:
        print(format_backend_table(infos))
    return 0


# --------------------------------------------------------------------------- #
def _parse_op_spec(token: str):
    """Parse a CLI op token: ``name`` or ``name:{"param": value}``."""
    if ":" not in token:
        return token
    name, _, raw = token.partition(":")
    try:
        params = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"invalid JSON parameters for op {name!r}: {exc}") from None
    if not isinstance(params, dict):
        raise SystemExit(f"op {name!r} parameters must be a JSON object, got {raw!r}")
    return (name, params)


def _analyze_inputs(input_token: str):
    """``(paths, is_batch)`` for the analyze CLI's input token.

    A directory or a glob is a batch (every matching ``.h5lite``); a plain
    path is the historical single-file mode.
    """
    import glob as globmod

    if os.path.isdir(input_token):
        paths = sorted(
            os.path.join(input_token, name)
            for name in os.listdir(input_token)
            if name.endswith(".h5lite")
        )
        if not paths:
            raise SystemExit(f"no .h5lite files in directory {input_token!r}")
        return paths, True
    if globmod.has_magic(input_token):
        paths = sorted(globmod.glob(input_token))
        if not paths:
            raise SystemExit(f"glob {input_token!r} matched no files")
        return paths, True
    return [input_token], False


@_one_line_errors
def main_analyze(argv: Optional[Sequence[str]] = None) -> int:
    """Apply analysis ops to saved depth-resolved run files."""
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Run named analysis ops on saved depth-resolved .h5lite files "
                    "(a file, a glob or a directory) and emit the JSON analysis "
                    "record.",
    )
    parser.add_argument("input", nargs="?",
                        help="a depth-resolved .h5lite file (as written by RunResult.save "
                             "or repro-reconstruct -o), a glob, or a directory of runs")
    parser.add_argument("ops", nargs="*",
                        help="op names, optionally parameterized as "
                             "name:'{\"param\": value}' (see --list)")
    parser.add_argument("--list", action="store_true", dest="list_ops",
                        help="list the registered analysis ops and exit")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="with --list, emit the op registry as JSON")
    parser.add_argument("-o", "--output",
                        help="write the JSON analysis record here instead of stdout")
    # intermixed: `repro-analyze run.h5lite -o out.json peaks` parses like
    # `repro-analyze -o out.json run.h5lite peaks`
    args = parser.parse_intermixed_args(argv)
    configure_logging()

    from repro.core.ops import analysis, ops as list_ops

    if args.list_ops:
        infos = list_ops()
        if args.as_json:
            print(json.dumps([info.to_dict() for info in infos], indent=2, sort_keys=True))
        else:
            from repro.perf.reporting import format_ops_table

            print(format_ops_table(infos))
        return 0
    if not args.input:
        parser.error("an input file is required (or --list)")
    if not args.ops:
        parser.error("at least one op name is required (see --list)")

    analyzer = analysis(*[_parse_op_spec(token) for token in args.ops])

    paths, is_batch = _analyze_inputs(args.input)
    if is_batch:
        from repro.core.pipeline import BatchItem
        from repro.core.session import BatchRunResult

        # each item analyses (and error-isolates) from its saved file
        batch = BatchRunResult(
            items=[BatchItem(input_path=path, ok=True, output_path=path) for path in paths],
            wall_time=0.0,
            max_workers=0,
            source={"kind": "analyze-batch", "n_items": len(paths)},
        )
        outcome = analyzer.apply(batch)
        failures = outcome.failed
    else:
        outcome = analyzer.apply(paths[0])
        failures = []

    document = outcome.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(document)
        print(f"wrote analysis record ({len(paths)} input(s)) to {args.output}")
    else:
        print(document)
    if failures:
        from repro.perf.reporting import format_analysis_failures

        print(format_analysis_failures(failures), file=sys.stderr)
        print(f"repro-analyze: {len(failures)} of {len(paths)} item(s) failed",
              file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------- #
def _format_cache_stats(stats: dict) -> str:
    """Human rendering of :meth:`~repro.core.cache.ResultCache.stats`."""
    lines = [
        f"cache root: {stats['root']}",
        f"  run entries:      {stats['n_runs']}",
        f"  analysis memos:   {stats['n_analyses']}",
        f"  total size:       {stats['total_bytes'] / 1e6:.2f} MB",
    ]
    if stats["oldest_unix"] is not None:
        import datetime

        def _when(ts: float) -> str:
            return datetime.datetime.fromtimestamp(ts).isoformat(sep=" ", timespec="seconds")

        lines.append(f"  oldest entry:     {_when(stats['oldest_unix'])}")
        lines.append(f"  newest entry:     {_when(stats['newest_unix'])}")
    return "\n".join(lines)


@_one_line_errors
def main_cache(argv: Optional[Sequence[str]] = None) -> int:
    """Administer the content-addressed result cache."""
    parser = argparse.ArgumentParser(
        prog="repro-cache",
        description="Inspect and maintain the content-addressed result cache "
                    "(default root: $REPRO_CACHE_DIR or ~/.cache/repro).",
    )
    # shared flags parse on either side of the subcommand (`repro-cache
    # stats --json` and `repro-cache --json stats`): they are declared on the
    # main parser *and* on a parent for the subparsers, with SUPPRESS
    # defaults so a subparser's default can never clobber a value that was
    # given before the subcommand
    def _add_common(target: argparse.ArgumentParser) -> None:
        target.add_argument("--root", default=argparse.SUPPRESS,
                            help="cache root directory (overrides REPRO_CACHE_DIR)")
        target.add_argument("--json", action="store_true", dest="as_json",
                            default=argparse.SUPPRESS,
                            help="emit the command's outcome as JSON")

    _add_common(parser)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stats", parents=[common],
                   help="show entry counts, total size and age range")
    prune = sub.add_parser("prune", parents=[common],
                           help="delete old entries (oldest first)")
    prune.add_argument("--max-bytes", type=int, default=None,
                       help="evict oldest entries until the total fits this many bytes")
    prune.add_argument("--older-than", type=float, default=None, metavar="DAYS",
                       help="delete entries last written more than DAYS days ago")
    sub.add_parser("clear", parents=[common], help="delete every cache entry")
    sub.add_parser("verify", parents=[common],
                   help="load and digest-check every entry; delete the unverifiable")

    args = parser.parse_args(argv)
    args.root = getattr(args, "root", None)
    args.as_json = getattr(args, "as_json", False)
    configure_logging()

    from repro.core.cache import ResultCache

    cache = ResultCache(args.root)
    if args.command == "stats":
        stats = cache.stats()
        print(json.dumps(stats, indent=2, sort_keys=True) if args.as_json
              else _format_cache_stats(stats))
        return 0
    if args.command == "prune":
        if args.max_bytes is None and args.older_than is None:
            prune.error("prune requires --max-bytes and/or --older-than")
        outcome = cache.prune(
            max_bytes=args.max_bytes,
            older_than_s=None if args.older_than is None else args.older_than * 86400.0,
        )
        print(json.dumps(outcome, indent=2, sort_keys=True) if args.as_json
              else f"pruned {outcome['removed']} entr(ies), "
                   f"freed {outcome['freed_bytes'] / 1e6:.2f} MB")
        return 0
    if args.command == "clear":
        outcome = cache.clear()
        print(json.dumps(outcome, indent=2, sort_keys=True) if args.as_json
              else f"cleared {outcome['removed']} entr(ies), "
                   f"freed {outcome['freed_bytes'] / 1e6:.2f} MB")
        return 0
    # verify
    outcome = cache.verify()
    if args.as_json:
        print(json.dumps(outcome, indent=2, sort_keys=True))
    else:
        print(f"verified {outcome['checked']} entr(ies), "
              f"repaired (deleted) {outcome['n_repaired']}")
        for path in outcome["repaired"]:
            print(f"  repaired {path}")
    return 0 if outcome["n_repaired"] == 0 else 1


# --------------------------------------------------------------------------- #
@_one_line_errors
def main_benchmark(argv: Optional[Sequence[str]] = None) -> int:
    """Run the paper's figure sweeps."""
    parser = argparse.ArgumentParser(
        prog="repro-benchmark", description="Run the paper-figure benchmark sweeps."
    )
    parser.add_argument(
        "figure", choices=["fig4", "fig8", "fig9", "headline"], help="which paper artifact to regenerate"
    )
    parser.add_argument("--scale", type=float, default=None, help="byte-scale factor relative to the paper sizes")
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args(argv)
    configure_logging()

    from repro.perf.reporting import format_figure_report
    from repro.perf.metrics import summarize_ratio_range
    from repro.perf.sweep import run_backend_sweep
    from repro.synthetic.workloads import DEFAULT_BENCH_SCALE, make_benchmark_workload

    scale = args.scale if args.scale is not None else DEFAULT_BENCH_SCALE

    if args.figure == "fig4":
        workload = make_benchmark_workload("5.2G", scale=scale)
        records = []
        for fraction in (0.25, 0.5, 1.0):
            w = make_benchmark_workload("5.2G", pixel_fraction=fraction, scale=scale)
            w.label = f"{int(fraction * 100)}%"
            for layout in ("pointer3d", "flat1d"):
                recs = run_backend_sweep([w], ["gpusim"], config_overrides={"gpusim": {"layout": layout}},
                                         repeats=args.repeats)
                for r in recs:
                    r.backend = layout
                records.extend(recs)
        print(format_figure_report("Fig. 4: 1-D vs 3-D array layout (GPU-sim)", records,
                                   x_key="workload", variant_key="backend"))
        return 0

    if args.figure in ("fig8", "headline"):
        workloads = [make_benchmark_workload(label, scale=scale) for label in ("2.1G", "2.7G", "3.6G", "5.2G")]
        records = run_backend_sweep(workloads, ["cpu_reference", "gpusim"], repeats=args.repeats)
        print(format_figure_report("Fig. 8: CPU vs GPU across data-set sizes", records))
        if args.figure == "headline":
            by_workload = {}
            for r in records:
                by_workload.setdefault(r.workload, {})[r.backend] = r.wall_time
            pairs = [(v["gpusim"], v["cpu_reference"]) for v in by_workload.values()]
            summary = summarize_ratio_range(pairs)
            print(
                f"GPU/CPU time ratio: min {summary['min']:.2f}, max {summary['max']:.2f} "
                f"(paper reports 0.25-0.30)"
            )
        return 0

    # fig9
    workloads = []
    for fraction in (0.25, 0.5, 1.0):
        w = make_benchmark_workload("5.2G", pixel_fraction=fraction, scale=scale)
        w.label = f"{int(fraction * 100)}%"
        workloads.append(w)
    records = run_backend_sweep(workloads, ["cpu_reference", "gpusim"], repeats=args.repeats)
    print(format_figure_report("Fig. 9: CPU vs GPU across pixel percentages", records))
    return 0


# --------------------------------------------------------------------------- #
@_one_line_errors
def main_serve(argv: Optional[Sequence[str]] = None) -> int:
    """Run the reconstruction-serving daemon."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve reconstructions over HTTP: an asyncio job daemon "
                    "with a bounded fair priority queue, cache-first admission "
                    "(identical in-flight requests collapse onto one "
                    "computation), per-job timeouts, graceful SIGTERM drain "
                    "and a JSON /metrics endpoint.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: loopback only)")
    parser.add_argument("--port", type=int, default=8750,
                        help="listening port (0 picks a free port)")
    parser.add_argument("-j", "--workers", type=int, default=None,
                        help="concurrent computations (default: CPU-derived, >= 2)")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="admission-queue capacity; beyond it submissions "
                             "get 429 + Retry-After")
    parser.add_argument("--job-timeout", type=float, default=300.0, metavar="SECONDS",
                        help="default per-job wall-clock budget")
    parser.add_argument("--drain-timeout", type=float, default=30.0, metavar="SECONDS",
                        help="budget for finishing work after SIGTERM")
    parser.add_argument("--retry-after", type=float, default=1.0, metavar="SECONDS",
                        help="Retry-After floor on queue-full rejections")
    parser.add_argument("--cache-root", default=None, metavar="ROOT",
                        help="result-cache root (default: $REPRO_CACHE_DIR or "
                             "~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable cache-first admission (every job computes)")
    args = parser.parse_args(argv)
    configure_logging()

    from repro.serve.app import ServeSettings, default_workers, run_server

    cache: object = True
    if args.no_cache:
        cache = False
    elif args.cache_root is not None:
        cache = args.cache_root
    try:
        settings = ServeSettings(
            host=args.host,
            port=args.port,
            workers=args.workers if args.workers is not None else default_workers(),
            queue_depth=args.queue_depth,
            job_timeout_s=args.job_timeout,
            drain_timeout_s=args.drain_timeout,
            retry_after_s=args.retry_after,
            cache=cache,
        )
    except ValidationError as exc:
        parser.error(str(exc))
    return run_server(settings)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_reconstruct())
