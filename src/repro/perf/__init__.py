"""Paper-figure sweeps and paper-style reporting.

``repro-benchmark`` and the ``benchmarks/`` figure sweeps are built from
these modules (the end-to-end and per-layer benchmark lives in
``perfbench/`` and uses none of them):

* :mod:`repro.perf.sweep` — runs a reconstruction configuration over a grid
  of workloads/backends and collects :class:`~repro.perf.sweep.SweepRecord`
  rows;
* :mod:`repro.perf.reporting` — renders the rows' wall times as the same
  series the paper's figures show (one column per variant, one row per
  x-axis point), and :mod:`repro.perf.metrics` computes the candidate /
  baseline time ratios (the "25 %–30 % of the CPU time" headline);
* :mod:`repro.perf.modelruns` — evaluates the analytic device/host models at
  the paper's full data-set sizes (Fig. 9 on the largest, 5.2 GB) so
  measured laptop-scale trends can be put side by side with paper-scale
  predictions.
"""

from repro.perf.sweep import SweepRecord, run_backend_sweep
from repro.perf.metrics import time_ratio, summarize_ratio_range
from repro.perf.reporting import format_series_table, format_figure_report
from repro.perf.modelruns import paper_scale_prediction, predict_figure8, predict_figure9

__all__ = [
    "SweepRecord",
    "run_backend_sweep",
    "time_ratio",
    "summarize_ratio_range",
    "format_series_table",
    "format_figure_report",
    "paper_scale_prediction",
    "predict_figure8",
    "predict_figure9",
]
