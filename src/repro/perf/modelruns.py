"""Paper-scale predictions from the analytic performance models.

The measured benchmarks run on cubes thousands of times smaller than the
paper's 2.1–5.2 GB data sets.  To compare against the paper's absolute
numbers, this module evaluates the analytic host/device models (calibrated
per element on the measured runs, or with their documented defaults) at the
paper's full problem sizes and produces the Fig. 8 / Fig. 9 series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.kernels import KERNEL_BYTES_PER_THREAD, KERNEL_FLOPS_PER_THREAD
from repro.cudasim.device import TESLA_M2070, DeviceProperties
from repro.cudasim.perfmodel import HostPerformanceModel, PerformanceModel
from repro.synthetic.workloads import PAPER_DATASET_SIZES_GB

__all__ = ["PaperScalePrediction", "paper_scale_prediction", "predict_figure8", "predict_figure9"]

#: Paper-reported total times in seconds (read off Fig. 8).
PAPER_FIG8_CPU_SECONDS = {"2.1G": 1138.0, "2.7G": 1397.0, "3.6G": 2181.0, "5.2G": 4286.0}
PAPER_FIG8_GPU_SECONDS = {"2.1G": 488.0, "2.7G": 505.0, "3.6G": 633.0, "5.2G": 1172.0}
#: Paper-reported total times in seconds (read off Fig. 9, 5.2 G data set).
PAPER_FIG9_CPU_SECONDS = {"25%": 1316.0, "50%": 2342.0, "100%": 4286.0}
PAPER_FIG9_GPU_SECONDS = {"25%": 503.0, "50%": 707.0, "100%": 1172.0}

#: Effective byte rate of the non-ported host portion (HDF5 reading, image
#: preprocessing, result writing).  Both versions pay this cost — the paper
#: explicitly keeps everything except the per-pixel reconstruction on the
#: CPU — and it is what keeps the GPU version's total time from collapsing
#: to the transfer+kernel time alone.
_SERIAL_HOST_BYTES_PER_SECOND = 8.0e6

#: Per-element scalar reconstruction cost of the original CPU program,
#: calibrated so the modelled CPU totals land in the range Fig. 8 reports.
_CPU_SECONDS_PER_ELEMENT = 3.5e-6

#: Wire positions of a paper-scale scan.
_PAPER_N_POSITIONS = 401


@dataclass(frozen=True)
class PaperScalePrediction:
    """Modelled end-to-end times for one paper-scale data set."""

    label: str
    data_bytes: float
    n_elements: float
    cpu_seconds: float
    gpu_seconds: float

    @property
    def gpu_over_cpu(self) -> float:
        """GPU time as a fraction of CPU time."""
        return self.gpu_seconds / self.cpu_seconds


def _elements_for_bytes(data_bytes: float) -> float:
    """Number of (pixel, step) elements in a paper-scale cube of *data_bytes* bytes."""
    total_elements = data_bytes / 8.0
    pixels = total_elements / _PAPER_N_POSITIONS
    return pixels * (_PAPER_N_POSITIONS - 1)


def paper_scale_prediction(
    label: str,
    data_bytes: float,
    pixel_fraction: float = 1.0,
    host_model: Optional[HostPerformanceModel] = None,
    device: DeviceProperties = TESLA_M2070,
    device_model: Optional[PerformanceModel] = None,
    serial_seconds: Optional[float] = None,
) -> PaperScalePrediction:
    """Predict CPU and GPU end-to-end times for one paper-scale data set.

    The model composes three parts:

    * a serial host portion (file I/O and setup) common to both versions;
    * the reconstruction itself: per-element scalar cost on the CPU,
      roofline kernel time on the GPU;
    * for the GPU, the host↔device transfers of the full input cube and the
      depth-resolved output over PCIe.
    """
    host_model = host_model or HostPerformanceModel(time_per_element=_CPU_SECONDS_PER_ELEMENT)
    device_model = device_model or device.performance_model()

    n_elements = _elements_for_bytes(data_bytes) * pixel_fraction
    cpu_reconstruction = host_model.total_time(int(n_elements))
    if serial_seconds is None:
        serial_seconds = data_bytes / _SERIAL_HOST_BYTES_PER_SECOND
    cpu_total = serial_seconds + cpu_reconstruction

    output_bytes = 0.25 * data_bytes  # depth-resolved cube is smaller than the scan cube
    kernel_seconds = device_model.kernel_time(
        n_threads=int(n_elements),
        flops_per_thread=KERNEL_FLOPS_PER_THREAD,
        bytes_per_thread=KERNEL_BYTES_PER_THREAD,
    )
    transfer_seconds = device_model.transfer_time(data_bytes * pixel_fraction + output_bytes, n_transfers=64)
    gpu_total = serial_seconds + kernel_seconds + transfer_seconds

    return PaperScalePrediction(
        label=label,
        data_bytes=data_bytes,
        n_elements=n_elements,
        cpu_seconds=cpu_total,
        gpu_seconds=gpu_total,
    )


def predict_figure8(**kwargs) -> Dict[str, PaperScalePrediction]:
    """Modelled Fig. 8 series: CPU vs GPU time for the four data-set sizes."""
    return {
        label: paper_scale_prediction(label, size_gb * 1024**3, **kwargs)
        for label, size_gb in PAPER_DATASET_SIZES_GB.items()
    }


def predict_figure9(**kwargs) -> Dict[str, PaperScalePrediction]:
    """Modelled Fig. 9 series: CPU vs GPU time vs pixel percentage on the
    largest (5.2 GB) data set."""
    label = "5.2G"
    data_bytes = PAPER_DATASET_SIZES_GB[label] * 1024**3
    out: Dict[str, PaperScalePrediction] = {}
    for percentage in (25, 50, 100):
        out[f"{percentage}%"] = paper_scale_prediction(
            label, data_bytes, pixel_fraction=percentage / 100.0, **kwargs
        )
    return out
