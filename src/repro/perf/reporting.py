"""Rendering benchmark results as paper-style tables.

Each of the paper's figures is a grouped bar chart: an x-axis category
(data-set size or pixel percentage) with one bar per variant (CPU vs GPU, or
1-D vs 3-D layout).  ``format_series_table`` prints the same information as a
fixed-width text table, which is what the ``repro-benchmark`` CLI and the
figure benchmarks under ``benchmarks/`` print.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.perf.sweep import SweepRecord

__all__ = [
    "format_series_table",
    "format_figure_report",
    "format_batch_table",
    "format_backend_table",
    "format_ops_table",
    "format_analysis_failures",
    "records_to_series",
]


def records_to_series(
    records: Iterable[SweepRecord],
    x_key: str = "workload",
    variant_key: str = "backend",
) -> Dict[str, Dict[str, float]]:
    """Pivot sweep records into ``{x_value: {variant: wall_time}}``."""
    series: Dict[str, Dict[str, float]] = {}
    for record in records:
        row = record.as_dict()
        x_value = str(row[x_key])
        variant = str(row[variant_key])
        series.setdefault(x_value, {})[variant] = float(row["wall_time"])
    return series


def format_series_table(
    series: Dict[str, Dict[str, float]],
    x_label: str,
    variants: Optional[Sequence[str]] = None,
    value_label: str = "time (s)",
) -> str:
    """Format ``{x: {variant: value}}`` as a fixed-width table, each value
    to three decimals."""
    if variants is None:
        seen: List[str] = []
        for row in series.values():
            for name in row:
                if name not in seen:
                    seen.append(name)
        variants = seen
    header = f"{x_label:<16s}" + "".join(f"{v:>14s}" for v in variants)
    lines = [f"[{value_label}]", header, "-" * len(header)]
    for x_value, row in series.items():
        cells = []
        for variant in variants:
            if variant in row:
                cells.append(f"{row[variant]:10.3f}".rjust(14))
            else:
                cells.append(f"{'-':>14s}")
        lines.append(f"{x_value:<16s}" + "".join(cells))
    return "\n".join(lines)


def format_batch_table(batch) -> str:
    """Fixed-width per-file table for a :class:`repro.core.pipeline.BatchReport`.

    One row per scheduled file with its status, wall time and (for successes)
    the reconstruction accounting; the footer aggregates batch throughput.
    """
    header = f"{'file':<40s}{'status':>8s}{'wall (s)':>12s}{'chunks':>8s}{'active':>12s}"
    lines = [header, "-" * len(header)]
    for item in batch.items:
        name = item.input_path
        if len(name) > 38:
            name = "..." + name[-35:]
        if item.ok and item.report is not None:
            status = "hit" if getattr(item, "cached", False) else "ok"
            lines.append(
                f"{name:<40s}{status:>8s}{item.wall_time:>12.4f}"
                f"{item.report.n_chunks:>8d}{item.report.n_active_pixels:>12d}"
            )
        else:
            lines.append(f"{name:<40s}{'FAIL':>8s}{item.wall_time:>12.4f}{'-':>8s}{'-':>12s}")
            lines.append(f"    error: {item.error}")
    lines.append("-" * len(header))
    footer = (
        f"{batch.n_ok}/{batch.n_files} ok in {batch.wall_time:.4f}s wall "
        f"({batch.max_workers} worker(s), {batch.throughput_files_per_second:.2f} files/s)"
    )
    n_cached = getattr(batch, "n_cached", 0)
    if n_cached:
        footer += f", {n_cached} cached"
    lines.append(footer)
    return "\n".join(lines)


def format_backend_table(infos) -> str:
    """Fixed-width backend table for the ``repro-backends`` CLI.

    One row per :class:`~repro.core.registry.BackendInfo` with its defining
    module and description.
    """
    header = f"{'backend':<16s}{'module':<36s}description"
    lines = [header, "-" * max(len(header), 72)]
    for info in infos:
        lines.append(f"{info.name:<16s}{info.module:<36s}{info.description}")
    lines.append("-" * max(len(header), 72))
    lines.append(f"{len(infos)} backend(s) registered")
    return "\n".join(lines)


def format_ops_table(infos) -> str:
    """Fixed-width table for the ``repro-analyze --list`` CLI.

    One row per :class:`~repro.core.ops.OpInfo` with its keyword parameters
    (and defaults) and description.
    """
    rendered = [
        ", ".join(f"{key}={value!r}" for key, value in info.parameters().items()) or "-"
        for info in infos
    ]
    name_width = max([20] + [len(info.name) + 2 for info in infos])
    params_width = max([12] + [len(params) for params in rendered])
    header = f"{'op':<{name_width}s}{'parameters':<{params_width}s}  description"
    lines = [header, "-" * max(len(header), 72)]
    for info, params in zip(infos, rendered):
        lines.append(
            f"{info.name:<{name_width}s}{params:<{params_width}s}  {info.description}"
        )
    lines.append("-" * max(len(header), 72))
    lines.append(f"{len(infos)} op(s) registered")
    return "\n".join(lines)


def format_analysis_failures(items) -> str:
    """Fixed-width per-item error table for a failed batch analysis.

    *items* are the ``failed`` entries of a
    :class:`~repro.core.ops.BatchAnalysisResult` — anything with an
    ``input_path`` and an ``error``.  ``repro-analyze`` prints this on stderr
    before exiting nonzero.
    """
    header = f"{'input':<44s}error"
    lines = [header, "-" * max(len(header), 72)]
    for item in items:
        name = item.input_path
        if len(name) > 42:
            name = "..." + name[-39:]
        lines.append(f"{name:<44s}{item.error or '-'}")
    lines.append("-" * max(len(header), 72))
    return "\n".join(lines)


def format_figure_report(
    title: str,
    records: Iterable[SweepRecord],
    x_key: str = "workload",
    variant_key: str = "backend",
    extra_lines: Optional[Sequence[str]] = None,
) -> str:
    """Full text report of the records' wall times for one reproduced figure."""
    records = list(records)
    series = records_to_series(records, x_key=x_key, variant_key=variant_key)
    lines = ["=" * 72, title, "=" * 72]
    lines.append(format_series_table(series, x_label=x_key, value_label="wall_time"))
    if extra_lines:
        lines.append("")
        lines.extend(extra_lines)
    return "\n".join(lines)
