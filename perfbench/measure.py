"""Statistics, output digests, memory and machine readings for the benchmark.

Everything here is pure bookkeeping: no function touches the program under
test except :func:`result_digest`, which reads a finished result cube.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

#: Calibration-loop median on the reference host (a quiet 2-CPU VM).  Time
#: metrics are reported at the reference speed: scaled by this value over the
#: run's own calibration median, so a uniformly slower host -- hypervisor
#: steal, a slower CPU -- reads the same, while a slower program does not.
REFERENCE_CALIBRATION_S = 0.004

#: Candidate tail percentiles, lowest first (see :func:`tail_percentile`).
TAIL_PERCENTILES = (90.0, 99.0, 99.9)

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def tail_percentile(values: Sequence[float]) -> Optional[Dict]:
    """The highest tail percentile with >= 10 samples beyond it.

    Returns ``{"pct", "value", "n", "beyond"}`` or ``None`` when even the
    90th percentile would rest on fewer than ten samples.
    """
    n = len(values)
    best = None
    for pct in TAIL_PERCENTILES:
        beyond = int(n * (100.0 - pct) / 100.0 + 1e-9)
        if beyond >= MIN_SAMPLES_BEYOND:
            best = (pct, beyond)
    if best is None:
        return None
    pct, beyond = best
    return {"pct": pct, "value": percentile(values, pct), "n": n, "beyond": beyond}


def timing(values: Sequence[float]) -> Dict:
    """Median, quartile spread and sample count of a list of timings."""
    return {"p50": median(values), "iqr_share": iqr_share(values), "n": len(values)}


def result_digest(stack) -> str:
    """``DepthResolvedStack.content_digest()`` without copying the cube.

    ``content_digest`` hashes ``data.tobytes()``, a full copy of the output
    cube that would show up in the peak-RSS metric; hashing the C-contiguous
    buffer in place gives the same digest.
    """
    data = stack.data
    digest = hashlib.sha256()
    digest.update(data if data.flags.c_contiguous else data.copy(order="C"))
    grid = stack.grid
    digest.update(f"|grid={grid.start!r},{grid.step!r},{grid.n_bins}".encode("utf-8"))
    return digest.hexdigest()


class Stopwatch:
    """Accumulates the time spent inside ``with watch:`` blocks."""

    def __init__(self):
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed += time.perf_counter() - self._start


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of *pid* (default: this process), in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM line in {path}")


def reset_peak_rss(pid: Optional[int] = None) -> None:
    """Restart *pid*'s ``VmHWM`` at its current RSS (Linux ``clear_refs``).

    Where the kernel refuses, the peak simply keeps counting from process
    start, which can only read higher.
    """
    try:
        with open(f"/proc/{pid if pid is not None else 'self'}/clear_refs", "w",
                  encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass


def release_freed_memory() -> None:
    """Collect garbage and return freed heap pages to the OS.

    Run between samples (outside the clock), so each sample starts from its
    live memory only: neither a collection pause nor the previous sample's
    freed-but-kept pages land in the next sample's time or peak RSS.
    """
    import ctypes
    import gc

    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: the pages stay mapped
        pass


class Calibration:
    """A fixed single-thread NumPy loop timed beside the workload.

    One :meth:`sample` runs between consecutive workload samples (on serve,
    in the sweeper's think time), so its median is the host's speed and its
    spread the host's noise floor while the workload ran: a record whose
    calibration spread is wide comes from a noisy host, not necessarily from
    a regression.
    """

    def __init__(self, size: int = 100_000, repeats: int = 4):
        import numpy as np

        self._data = np.random.default_rng(0).random(size)
        self._repeats = repeats
        self.samples: List[float] = []

    def sample(self) -> None:
        import numpy as np

        start = time.perf_counter()
        for _ in range(self._repeats):
            np.sort(self._data)
        self.samples.append(time.perf_counter() - start)

    def speed(self) -> float:
        """Host speed relative to the reference: multiply times by it."""
        return REFERENCE_CALIBRATION_S / median(self.samples)

    def summary(self) -> Dict:
        return {"loop": f"{self._repeats} x np.sort({self._data.size} float64)",
                "reference_p50": REFERENCE_CALIBRATION_S,
                **timing(self.samples or [0.0])}


def at_reference_speed(raw: float, unit: str, speed: float, **extra) -> Dict:
    """One end-to-end metric: *raw* rescaled to the reference host speed
    (times multiplied, rates divided), with the raw reading kept beside it."""
    if unit == "s":
        value = raw * speed
    elif unit == "1/s":
        value = raw / speed
    else:
        value = raw
    return {"value": value, "unit": unit, "raw": raw, **extra}


def cpu_times() -> List[int]:
    """The host-wide ``cpu`` line of ``/proc/stat`` (jiffies per state)."""
    with open("/proc/stat", "r", encoding="ascii") as fh:
        return [int(field) for field in fh.readline().split()[1:]]


def host_share(before: List[int], after: List[int]) -> Dict:
    """Busy and stolen shares of host CPU time between two :func:`cpu_times`."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta) or 1
    idle = delta[3] + delta[4]
    steal = delta[7] if len(delta) > 7 else 0
    return {"busy": (total - idle - steal) / total, "steal": steal / total}


def machine_block(calibration: Calibration, host: Optional[Dict] = None) -> Dict:
    """Host description, the calibration loop's noise floor and, when given,
    the host-wide CPU shares over the run (steal shows a noisy neighbour)."""
    import numpy as np

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "calibration": calibration.summary(),
        "host_cpu": host,
    }
