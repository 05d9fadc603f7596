"""Experiment E6 — host-parallel scaling of the executors.

The paper's argument is that depth reconstruction is embarrassingly parallel
across detector pixels; the ``threaded`` backend and the ``threads`` executor
strategy are the host-parallel ablation points for that claim.  The suite
(BENCH_6) measures a serial / threads × worker-count matrix (median + IQR,
BLAS pinned) with the honesty gate: a parallel executor may become the
recommended default only with ≥ 2× speedup over serial at 4 workers —
otherwise the default stays serial and the artifact must record why.

The run emits the repository's perf-trajectory artifact (``BENCH_6.json`` by
default; override with ``REPRO_BENCH6_OUT`` and the workload with
``REPRO_PARALLEL_BENCH_SIZE``).  CI runs it on a small workload and uploads
the artifact; ``repro-bench`` is the CLI twin.
"""

import os

import numpy as np
import pytest

from _bench_utils import SeriesCollector
from repro.core.config import ReconstructionConfig
from repro.perf.parallel import (
    SCALING_GATE_SPEEDUP,
    format_executor_report,
    run_executor_scaling,
    write_bench_record,
)

executor_collector = SeriesCollector("Executor scaling: wall seconds", x_label="workers")


def _bench_size_label() -> str:
    """Workload label: REPRO_PARALLEL_BENCH_SIZE overrides the medium default."""
    return os.environ.get("REPRO_PARALLEL_BENCH_SIZE", "24MB")


# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def executor_record():
    """One BENCH_6 executor-scaling run shared by the assertions below."""
    record = run_executor_scaling(
        size_label=_bench_size_label(),
        workers=(1, 2, 4),
        repeats=5,
    )
    for row in record["matrix"]:
        executor_collector.add(str(row["n_workers"]), row["executor"], row["median_s"])
    path = write_bench_record(record, os.environ.get("REPRO_BENCH6_OUT"))
    print(format_executor_report(record))
    print(f"wrote {path}")
    return record


def test_executor_gate_honest(executor_record):
    """The 2×-at-4-workers gate passes OR the serial fallback is recorded.

    The gate is a measurement, not a defect: a machine that cannot show the
    speedup keeps the serial default, but then the artifact must say so —
    a failed gate with no recorded reason fails CI.
    """
    gate = executor_record["gate"]
    if executor_record["checks"]["two_x_at_4_workers"]:
        assert gate["speedup"] >= SCALING_GATE_SPEEDUP
        assert executor_record["default_executor"] == "threads"
    else:
        assert executor_record["default_executor"] == "serial"
        reason = executor_record["serial_fallback_reason"]
        assert reason, "gate failed but no serial_fallback_reason recorded"
        assert f"{gate['speedup']:.2f}x" in reason  # the measured curve is in the reason
    assert executor_record["checks"]["fallback_reason_recorded"]


def test_matrix_covers_all_executors(executor_record):
    """The record carries the full strategy × worker matrix with IQR stats."""
    cells = {(row["executor"], row["n_workers"]) for row in executor_record["matrix"]}
    assert ("serial", 1) in cells
    for n in (1, 2, 4):
        assert ("threads", n) in cells
    for row in executor_record["matrix"]:
        assert row["iqr_s"] >= 0.0
        assert len(row["samples_s"]) == executor_record["repeats"]


def test_threaded_executor_smoke(executor_record):
    """Threaded-executor smoke: chunked run, bitwise-identical to serial."""
    from repro.core.engine import StackChunkSource, execute, make_strategy_executor
    from repro.synthetic.workloads import make_benchmark_workload

    workload = make_benchmark_workload("0.5MB", seed=7)
    serial = ReconstructionConfig(grid=workload.grid, backend="vectorized")
    threaded = ReconstructionConfig(
        grid=workload.grid, backend="vectorized", executor="threads", n_workers=2
    )
    ref, _ = execute(
        StackChunkSource(workload.stack), serial, make_strategy_executor(serial)
    )
    got, report = execute(
        StackChunkSource(workload.stack), threaded, make_strategy_executor(threaded)
    )
    assert report.backend == "threaded"
    assert np.array_equal(ref.data, got.data)


def test_executor_scaling_report(executor_record):
    print(executor_collector.report([
        "",
        "serial is the 1-worker engine loop; threads runs the same fused",
        "kernel behind the executor-strategy dispatch (BLAS pinned to 1).",
    ]))
