"""Shared helpers for the benchmark suite (imported by every bench module)."""

from __future__ import annotations

import os
import time
from collections import defaultdict

from repro.core.backends import get_backend
from repro.core.config import ReconstructionConfig
from repro.synthetic.workloads import DEFAULT_BENCH_SCALE


def bench_scale() -> float:
    """Byte-scale factor used for all generated workloads.

    Override with the ``REPRO_BENCH_SCALE`` environment variable to run the
    sweeps on larger cubes (e.g. ``REPRO_BENCH_SCALE=0.001`` for ~5 MB).
    """
    return float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_BENCH_SCALE))


class SeriesCollector:
    """Accumulates (x, variant) -> seconds measurements and renders a table."""

    def __init__(self, title: str, x_label: str = "dataset"):
        self.title = title
        self.x_label = x_label
        self.series = defaultdict(dict)

    def add(self, x_value: str, variant: str, seconds: float) -> None:
        """Record one measurement."""
        self.series[str(x_value)][str(variant)] = float(seconds)

    def report(self, extra_lines=()) -> str:
        """Render the paper-style series table plus optional footer lines."""
        from repro.perf.reporting import format_series_table

        lines = ["", "=" * 72, self.title, "=" * 72,
                 format_series_table(dict(self.series), x_label=self.x_label)]
        lines.extend(extra_lines)
        return "\n".join(lines)


def run_and_time(workload, backend_name: str, **config_overrides) -> float:
    """Reconstruct a workload once and return the wall-clock seconds."""
    config = ReconstructionConfig(grid=workload.grid, backend=backend_name, **config_overrides)
    backend = get_backend(backend_name)
    start = time.perf_counter()
    backend.reconstruct(workload.stack, config)
    return time.perf_counter() - start
