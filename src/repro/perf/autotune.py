"""Throughput-driven auto-tuning of the executor strategy.

``Session.configure(workers="auto")`` (or ``executor="auto"``) needs a
worker count and an executor strategy that actually help on *this* machine —
guessing wrong makes parallelism a slowdown.  Instead of guessing, the tuner
runs a small throughput microprobe on first use:

1. reconstruct a synthetic point-source chunk serially with the fused
   kernel, establishing the single-thread element throughput;
2. re-run it with row bands fanned out to the shared thread pool at a few
   candidate widths, establishing the measured thread speedup.

The resulting :class:`TuningDecision` — strategy, worker count and *why* —
is cached as JSON per (machine fingerprint, workload shape bucket) under
``<cache root>/autotune/`` (the same root the
:class:`~repro.core.cache.ResultCache` uses, so ``REPRO_CACHE_DIR`` governs
both), and later runs skip the probe entirely.

The tuner is deliberately conservative: threads are chosen only when the
probe shows at least :data:`MIN_PARALLEL_SPEEDUP` over serial, and a
single-CPU host short-circuits to serial without probing — there is no
parallel speedup to find, and the decision records that reason honestly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.chunking import plan_worker_bands
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError

__all__ = [
    "MIN_PARALLEL_SPEEDUP",
    "TUNE_FORMAT_VERSION",
    "TuningDecision",
    "machine_fingerprint",
    "workload_signature",
    "decision_path",
    "load_decision",
    "store_decision",
    "run_throughput_probe",
    "tune",
    "resolve_auto_config",
]

_LOG = get_logger(__name__)

#: On-disk decision format; bumping it orphans (never mis-serves) old entries.
TUNE_FORMAT_VERSION = 2

#: Minimum measured speedup over serial before a parallel strategy is chosen.
#: Below this the win is noise-sized and not worth the dispatch machinery.
MIN_PARALLEL_SPEEDUP = 1.15

#: Probe workload dimensions: big enough that the fused kernel dominates the
#: timing, small enough that a cold probe stays well under a second per arm.
_PROBE_ROWS = 32
_PROBE_COLS = 32
_PROBE_POSITIONS = 41
_PROBE_BINS = 32


@dataclass(frozen=True)
class TuningDecision:
    """What the tuner decided for one (machine, workload-shape) pair."""

    #: chosen strategy: ``serial`` or ``threads``
    executor: str
    #: chosen worker count (1 for serial)
    n_workers: int
    #: human-readable justification (recorded even when the answer is serial)
    reason: str
    #: machine fingerprint the decision is valid for
    machine: Dict = field(default_factory=dict)
    #: workload shape bucket the decision is valid for
    workload: Dict = field(default_factory=dict)
    #: raw probe measurements (empty when the probe was skipped)
    probe: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """JSON-safe snapshot (inverted by :meth:`from_dict`)."""
        data = asdict(self)
        data["format_version"] = TUNE_FORMAT_VERSION
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "TuningDecision":
        """Rebuild a decision from a :meth:`to_dict` snapshot."""
        data = dict(data)
        if data.pop("format_version", None) != TUNE_FORMAT_VERSION:
            raise ValidationError("tuning decision from an incompatible format version")
        return cls(
            executor=str(data["executor"]),
            n_workers=int(data["n_workers"]),
            reason=str(data["reason"]),
            machine=dict(data.get("machine") or {}),
            workload=dict(data.get("workload") or {}),
            probe=dict(data.get("probe") or {}),
        )


def machine_fingerprint() -> Dict:
    """What the decision depends on about the host (JSON-safe)."""
    return {
        "platform": platform.system(),
        "machine": platform.machine(),
        "cpu_count": int(os.cpu_count() or 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def workload_signature(
    n_positions: int, n_rows: int, n_cols: int, n_bins: int
) -> Dict:
    """Shape bucket a workload falls into (JSON-safe).

    Element counts are bucketed by powers of two: the right worker count
    depends on the order of magnitude of the work, not its exact shape, and
    bucketing lets every similarly-sized run share one cached decision.
    """
    elements = max(1, (int(n_positions) - 1) * int(n_rows) * int(n_cols))
    return {
        "elements_log2": int(math.floor(math.log2(elements))),
        "n_bins_log2": int(math.floor(math.log2(max(1, int(n_bins))))),
    }


# --------------------------------------------------------------------------- #
# the decision cache
def _autotune_root(root: Optional[str] = None) -> str:
    """The directory tuning decisions live in (inside the result-cache root)."""
    from repro.core.cache import default_cache_root

    return os.path.join(root if root else default_cache_root(), "autotune")


def decision_path(
    machine: Dict, workload: Dict, root: Optional[str] = None
) -> str:
    """Deterministic JSON path for one (machine, workload) decision."""
    payload = json.dumps(
        {"format": TUNE_FORMAT_VERSION, "machine": machine, "workload": workload},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]
    return os.path.join(_autotune_root(root), f"tune_{digest}.json")


def load_decision(
    machine: Dict, workload: Dict, root: Optional[str] = None
) -> Optional[TuningDecision]:
    """The cached decision for (machine, workload), or ``None``.

    A corrupt or incompatible file is treated as a miss (and removed), never
    an error — the tuner can always re-probe.
    """
    path = decision_path(machine, workload, root)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return TuningDecision.from_dict(json.load(handle))
    except FileNotFoundError:
        return None
    except (ValueError, KeyError, TypeError, ValidationError):
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - cleanup best-effort
            pass
        return None


def store_decision(decision: TuningDecision, root: Optional[str] = None) -> str:
    """Persist *decision*; returns the path written (atomic via rename)."""
    path = decision_path(decision.machine, decision.workload, root)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(decision.to_dict(), handle, indent=2, sort_keys=True)
    os.replace(tmp, path)
    return path


# --------------------------------------------------------------------------- #
# the microprobe
def _probe_context():
    """A synthetic kernel context the probe reconstructs repeatedly."""
    from repro.core.backends.base import build_kernel_context
    from repro.core.depth_grid import DepthGrid
    from repro.core.config import ReconstructionConfig
    from repro.synthetic.workloads import make_point_source_stack

    stack, _source = make_point_source_stack(
        n_rows=_PROBE_ROWS, n_cols=_PROBE_COLS, n_positions=_PROBE_POSITIONS
    )
    grid = DepthGrid.from_range(0.0, 100.0, _PROBE_BINS)
    return build_kernel_context(stack, ReconstructionConfig(grid=grid))


def _time_serial(ctx, repeats: int) -> float:
    """Best-of-*repeats* serial fused-kernel time over the probe chunk."""
    from repro.core.kernels import depth_resolve_chunk_fused

    out = np.zeros((ctx.grid.n_bins, ctx.n_rows, ctx.n_cols), dtype=np.float64)
    best = math.inf
    for _ in range(repeats):
        out[...] = 0.0
        start = time.perf_counter()
        depth_resolve_chunk_fused(ctx, out)
        best = min(best, time.perf_counter() - start)
    return best


def _time_threaded(ctx, n_workers: int, repeats: int) -> float:
    """Best-of-*repeats* thread-pool time over the same probe chunk."""
    from repro.core.backends.threaded import _reconstruct_band
    from repro.core.workerpool import shared_thread_pool

    pool = shared_thread_pool(n_workers)
    # bands sized for the probe itself (no element floor): the probe wants
    # to see raw thread scaling
    bands = plan_worker_bands(
        ctx.n_rows, ctx.n_cols, ctx.n_steps, n_workers, min_elements_per_dispatch=1
    )
    out = np.zeros((ctx.grid.n_bins, ctx.n_rows, ctx.n_cols), dtype=np.float64)
    best = math.inf
    for _ in range(repeats):
        out[...] = 0.0
        start = time.perf_counter()
        futures = [pool.submit(_reconstruct_band, ctx, b0, b1, out) for b0, b1 in bands]
        for future in futures:
            future.result()
        best = min(best, time.perf_counter() - start)
    return best


def run_throughput_probe(
    candidate_workers: Optional[List[int]] = None, repeats: int = 3
) -> Dict:
    """Measure serial vs threaded throughput on the synthetic probe chunk.

    Returns a JSON-safe record: serial time and per-width threaded times
    and speedups.
    """
    cpu = int(os.cpu_count() or 1)
    if candidate_workers is None:
        candidate_workers = sorted({2, min(4, cpu), cpu} - {0, 1})
    ctx = _probe_context()
    elements = ctx.n_steps * ctx.n_rows * ctx.n_cols

    serial_s = _time_serial(ctx, repeats)
    threaded: Dict[str, float] = {}
    speedups: Dict[str, float] = {}
    for workers in candidate_workers:
        t = _time_threaded(ctx, int(workers), repeats)
        threaded[str(workers)] = t
        speedups[str(workers)] = serial_s / t if t > 0 else 0.0
    return {
        "probe_elements": int(elements),
        "repeats": int(repeats),
        "serial_s": float(serial_s),
        "threaded_s": threaded,
        "thread_speedup": speedups,
    }


# --------------------------------------------------------------------------- #
# the tuner
def tune(
    n_positions: int,
    n_rows: int,
    n_cols: int,
    n_bins: int,
    root: Optional[str] = None,
) -> TuningDecision:
    """The tuning decision for a workload of this shape on this machine.

    Served from the decision cache when available; a fresh probe is run —
    and its decision stored — otherwise.  Single-CPU hosts skip the probe:
    the decision is serial by construction, with the reason recorded.
    """
    machine = machine_fingerprint()
    workload = workload_signature(n_positions, n_rows, n_cols, n_bins)
    cached = load_decision(machine, workload, root)
    if cached is not None:
        _LOG.debug("autotune: cached decision %s x%d", cached.executor, cached.n_workers)
        return cached

    cpu = machine["cpu_count"]
    if cpu <= 1:
        decision = TuningDecision(
            executor="serial",
            n_workers=1,
            reason=(
                "single-CPU host: no parallel speedup is available, every "
                "dispatch is pure overhead"
            ),
            machine=machine,
            workload=workload,
        )
        store_decision(decision, root)
        return decision

    probe = run_throughput_probe()
    best_workers, best_speedup = 1, 1.0
    for workers, speedup in probe["thread_speedup"].items():
        if speedup > best_speedup:
            best_workers, best_speedup = int(workers), float(speedup)

    if best_speedup >= MIN_PARALLEL_SPEEDUP:
        decision = TuningDecision(
            executor="threads",
            n_workers=best_workers,
            reason=(
                f"threads won the probe: {best_speedup:.2f}x over serial at "
                f"{best_workers} workers (threshold {MIN_PARALLEL_SPEEDUP}x)"
            ),
            machine=machine,
            workload=workload,
            probe=probe,
        )
    else:
        decision = TuningDecision(
            executor="serial",
            n_workers=1,
            reason=(
                f"no parallel strategy beat serial by {MIN_PARALLEL_SPEEDUP}x "
                f"in the probe (best: {best_speedup:.2f}x at {best_workers} "
                "threads); defaulting to serial"
            ),
            machine=machine,
            workload=workload,
            probe=probe,
        )
    store_decision(decision, root)
    _LOG.info("autotune: %s", decision.reason)
    return decision


def resolve_auto_config(
    config,
    n_positions: int,
    n_rows: int,
    n_cols: int,
    root: Optional[str] = None,
) -> Tuple["object", Optional[TuningDecision]]:
    """Replace ``auto`` markers in *config* with tuned concrete values.

    Returns ``(resolved config, decision)``; a config with no ``auto``
    markers is returned unchanged with ``decision=None``.  The session calls
    this before handing the config to the engine, so executors only ever see
    concrete worker counts.
    """
    from repro.core.config import AUTO

    wants_auto = config.executor == AUTO or config.n_workers == AUTO
    if not wants_auto:
        return config, None
    decision = tune(n_positions, n_rows, n_cols, config.grid.n_bins, root=root)
    overrides: Dict = {}
    if config.executor == AUTO:
        overrides["executor"] = decision.executor
    if config.n_workers == AUTO:
        overrides["n_workers"] = decision.n_workers
    return config.with_overrides(**overrides), decision
