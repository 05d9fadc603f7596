"""Parameter sweeps over workloads and backends."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.config import ReconstructionConfig
from repro.core.backends import get_backend
from repro.core.result import ReconstructionReport
from repro.synthetic.workloads import BenchmarkWorkload
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError

__all__ = ["SweepRecord", "run_backend_sweep"]

_LOG = get_logger(__name__)


@dataclass
class SweepRecord:
    """One (workload, backend) measurement."""

    workload: str
    backend: str
    pixel_fraction: float
    data_bytes: int
    n_elements: int
    wall_time: float
    simulated_time: float
    transfer_time: float
    compute_time: float
    layout: Optional[str] = None
    extra: Dict = field(default_factory=dict)

    def as_dict(self) -> Dict:
        """Flat dictionary form (for CSV-like dumps)."""
        row = {
            "workload": self.workload,
            "backend": self.backend,
            "pixel_fraction": self.pixel_fraction,
            "data_bytes": self.data_bytes,
            "n_elements": self.n_elements,
            "wall_time": self.wall_time,
            "simulated_time": self.simulated_time,
            "transfer_time": self.transfer_time,
            "compute_time": self.compute_time,
            "layout": self.layout,
        }
        row.update(self.extra)
        return row


def run_backend_sweep(
    workloads: Sequence[BenchmarkWorkload],
    backends: Iterable[str],
    config_overrides: Optional[Dict[str, Dict]] = None,
    repeats: int = 1,
) -> List[SweepRecord]:
    """Run every backend on every workload and collect timing records.

    Parameters
    ----------
    workloads:
        The generated benchmark workloads.
    backends:
        Backend names to run.  Each run uses the default configuration on
        the workload's own grid, plus that backend's *config_overrides*.
    config_overrides:
        Optional per-backend configuration overrides, e.g.
        ``{"gpusim": {"layout": "pointer3d"}}``.
    repeats:
        Number of repetitions; the fastest wall time is kept (the modelled
        device time is deterministic, so repetition only affects wall time).
    """
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    config_overrides = config_overrides or {}
    records: List[SweepRecord] = []

    for workload in workloads:
        for backend_name in backends:
            overrides = dict(config_overrides.get(backend_name, {}))
            config = ReconstructionConfig(grid=workload.grid, backend=backend_name, **overrides)

            backend = get_backend(backend_name)
            best_wall = float("inf")
            report: ReconstructionReport | None = None
            for _ in range(repeats):
                start = time.perf_counter()
                _, report = backend.reconstruct(workload.stack, config)
                best_wall = min(best_wall, time.perf_counter() - start)

            assert report is not None
            record = SweepRecord(
                workload=workload.label,
                backend=backend_name,
                pixel_fraction=workload.pixel_fraction,
                data_bytes=workload.actual_bytes,
                n_elements=workload.n_elements,
                wall_time=best_wall,
                simulated_time=report.simulated_device_time,
                transfer_time=report.transfer_time,
                compute_time=report.compute_time,
                layout=report.layout,
                extra={"n_chunks": report.n_chunks, "n_kernel_launches": report.n_kernel_launches},
            )
            _LOG.info(
                "sweep: %s / %s -> %.3f s wall",
                workload.label,
                backend_name,
                best_wall,
            )
            records.append(record)
    return records
