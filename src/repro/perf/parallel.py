"""Executor-scaling measurement harness (the ``BENCH_6.json`` emitter).

One question about the host-parallel layer, answered with wall-clock
measurements on a synthetic workload: a serial / threads × worker-count
matrix (median + IQR) with the honesty gate for recommending a parallel
default.

:func:`run_executor_scaling` produces one JSON-safe record;
:func:`write_bench_record` persists it as ``BENCH_<issue>.json`` — the
repository's perf-trajectory artifact, regenerated by ``repro-bench`` and
the CI parallel-scaling smoke job.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence

from repro.core.config import ReconstructionConfig
from repro.core.engine import StackChunkSource, execute, make_strategy_executor
from repro.core.workerpool import pin_blas_threads, shutdown_shared_thread_pool
from repro.perf.timer import time_stats
from repro.utils.logging import get_logger
from repro.utils.version import package_version

__all__ = [
    "EXECUTOR_BENCH_ISSUE",
    "EXECUTOR_BENCH_FILENAME",
    "SCALING_GATE_SPEEDUP",
    "run_executor_scaling",
    "write_bench_record",
    "format_executor_report",
]

_LOG = get_logger(__name__)

#: Issue number of the executor-scaling artifact (fused kernels + executor
#: strategies + auto-tuning).
EXECUTOR_BENCH_ISSUE = 6

#: Executor-scaling artifact file name.
EXECUTOR_BENCH_FILENAME = f"BENCH_{EXECUTOR_BENCH_ISSUE}.json"

#: The honesty gate: a parallel executor may become a recommended default
#: only if it shows at least this speedup over serial at 4 workers on the
#: reference workload.  Machines that cannot show it keep the serial default
#: and the artifact records why.
SCALING_GATE_SPEEDUP = 2.0

#: The "medium" synthetic workload: large enough that per-dispatch overhead
#: is small next to the kernel, small enough for CI (≈ 24 MB image cube).
DEFAULT_SIZE_LABEL = "24MB"

#: Default active-pixel fraction (the paper's Fig. 9 knob).  Dispatch cost
#: scales with *bytes* while kernel cost scales with *active elements*;
#: 25 % active pixels keeps the kernel realistic without letting compute
#: noise drown the dispatch signal.
DEFAULT_PIXEL_FRACTION = 0.25


# --------------------------------------------------------------------------- #
def measure_executor_matrix(
    workload,
    workers: Sequence[int] = (1, 2, 4),
    repeats: int = 3,
    warmup: int = 1,
) -> List[Dict]:
    """Median+IQR seconds per (executor strategy, worker count), warm pools.

    ``serial`` is the 1-worker baseline; ``threads`` runs the same engine
    loop at each worker count.  The warm-up iteration inside
    :func:`~repro.perf.timer.time_stats` absorbs pool spawns, so the samples
    measure steady-state dispatch + kernel time.
    """
    source = StackChunkSource(workload.stack)
    cells = [("serial", 1)]
    cells += [("threads", int(n)) for n in workers]

    rows: List[Dict] = []
    for executor_name, n_workers in cells:
        config = ReconstructionConfig(
            grid=workload.grid,
            backend="vectorized",
            executor=executor_name,
            n_workers=n_workers,
        )

        def _run() -> None:
            execute(source, config, make_strategy_executor(config))

        stats = time_stats(_run, repeats=repeats, warmup=warmup)
        rows.append(
            {
                "executor": executor_name,
                "n_workers": n_workers,
                "median_s": stats["median_s"],
                "iqr_s": stats["iqr_s"],
                "min_s": stats["min_s"],
                "samples_s": stats["samples_s"],
            }
        )
        _LOG.info(
            "executor-scaling: %s x%d: median %.4fs (IQR %.4fs)",
            executor_name, n_workers, stats["median_s"], stats["iqr_s"],
        )
    shutdown_shared_thread_pool()
    return rows


def _gate_speedup(matrix: List[Dict], at_workers: int = 4) -> Dict:
    """Serial-vs-best-parallel speedup at *at_workers* from a matrix."""
    serial = [row for row in matrix if row["executor"] == "serial"]
    parallel = [
        row for row in matrix
        if row["executor"] != "serial" and row["n_workers"] == at_workers
    ]
    if not serial or not parallel:
        return {"at_workers": at_workers, "speedup": 0.0, "best_executor": None}
    serial_s = min(row["median_s"] for row in serial)
    best = min(parallel, key=lambda row: row["median_s"])
    speedup = serial_s / best["median_s"] if best["median_s"] > 0 else 0.0
    return {
        "at_workers": at_workers,
        "speedup": speedup,
        "best_executor": best["executor"],
        "serial_median_s": serial_s,
        "best_parallel_median_s": best["median_s"],
    }


def run_executor_scaling(
    size_label: str = DEFAULT_SIZE_LABEL,
    workers: Sequence[int] = (1, 2, 4),
    repeats: int = 3,
    pixel_fraction: float = DEFAULT_PIXEL_FRACTION,
    seed: int = 0,
) -> Dict:
    """Run the executor-scaling suite and return the ``BENCH_6`` record.

    Two measurements on the reference workload, with BLAS/OpenMP pinned to
    one thread so library-internal threading cannot masquerade as (or fight
    with) our own parallelism:

    * a serial / threads × worker-count matrix (median + IQR);
    * the auto-tuner's decision for this (machine, workload) pair.

    The ``two_x_at_4_workers`` check is the honesty gate: the recommended
    default becomes a parallel executor only if it is at least
    :data:`SCALING_GATE_SPEEDUP` × faster than serial at 4 workers.  When the
    machine cannot show that, ``default_executor`` stays ``"serial"`` and
    ``serial_fallback_reason`` records the measured curve — CI fails the
    artifact if the gate fails *and* the reason is missing.
    """
    from repro.perf.autotune import tune
    from repro.synthetic.workloads import make_benchmark_workload

    pinned_from = pin_blas_threads(1)
    cpu_count = os.cpu_count() or 1

    workload = make_benchmark_workload(size_label, pixel_fraction=pixel_fraction, seed=seed)
    _LOG.info("executor-scaling workload: %s", workload.describe())

    matrix = measure_executor_matrix(workload, workers=workers, repeats=repeats)
    gate = _gate_speedup(matrix, at_workers=max(workers))

    n_positions, n_rows, n_cols = workload.stack.shape
    decision = tune(n_positions, n_rows, n_cols, workload.grid.n_bins, force=True)

    gate_passed = gate["speedup"] >= SCALING_GATE_SPEEDUP
    if gate_passed:
        default_executor = gate["best_executor"]
        serial_fallback_reason = None
    else:
        default_executor = "serial"
        serial_fallback_reason = (
            f"best parallel speedup at {gate['at_workers']} workers was "
            f"{gate['speedup']:.2f}x (gate requires {SCALING_GATE_SPEEDUP:.1f}x) "
            f"on a {cpu_count}-CPU host; parallel dispatch cannot pay for "
            f"itself here, so the default executor stays serial"
        )

    checks = {
        # the honesty gate for flipping the default away from serial
        "two_x_at_4_workers": gate_passed,
        # a failed gate without a recorded reason is a silent lie — CI
        # enforces this pair
        "fallback_reason_recorded": gate_passed or bool(serial_fallback_reason),
    }
    return {
        "benchmark": "executor_scaling",
        "issue": EXECUTOR_BENCH_ISSUE,
        "repro_version": package_version(),
        "created_unix": time.time(),
        "machine": {
            "cpu_count": cpu_count,
            "blas_pinned_to": 1,
            "blas_env_previous": {k: v for k, v in pinned_from.items() if v is not None},
        },
        "workload": {
            "size_label": size_label,
            "shape": list(workload.stack.shape),
            "nbytes": int(workload.stack.nbytes),
            "n_depth_bins": int(workload.grid.n_bins),
            "pixel_fraction": float(pixel_fraction),
        },
        "repeats": int(repeats),
        "matrix": matrix,
        "gate": gate,
        "default_executor": default_executor,
        "serial_fallback_reason": serial_fallback_reason,
        "autotune": decision.to_dict(),
        "checks": checks,
    }


def format_executor_report(record: Dict) -> str:
    """Render the BENCH_6 record as a series table plus the verdict lines."""
    from repro.perf.reporting import format_series_table

    series: Dict[str, Dict[str, float]] = {}
    for row in record["matrix"]:
        series.setdefault(str(row["n_workers"]), {})[row["executor"]] = row["median_s"]
    lines = [
        f"executor scaling — workload {record['workload']['size_label']} "
        f"({record['workload']['nbytes'] / 1e6:.1f} MB cube), "
        f"median of {record['repeats']} (BLAS pinned to 1 thread)",
        format_series_table(series, x_label="workers"),
        f"gate: {record['gate']['speedup']:.2f}x at {record['gate']['at_workers']} workers "
        f"(needs {SCALING_GATE_SPEEDUP:.1f}x) -> default executor: {record['default_executor']}",
    ]
    if record.get("serial_fallback_reason"):
        lines.append(f"fallback: {record['serial_fallback_reason']}")
    for name, passed in record["checks"].items():
        lines.append(f"check {name}: {'PASS' if passed else 'FAIL'}")
    return "\n".join(lines)


def write_bench_record(record: Dict, path: Optional[str] = None) -> str:
    """Write *record* as the ``BENCH_<issue>.json`` artifact; returns the path.

    The default file name follows the record's own ``issue`` field.
    """
    if path is None:
        path = f"BENCH_{record.get('issue', EXECUTOR_BENCH_ISSUE)}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _LOG.info("wrote %s", path)
    return str(path)

