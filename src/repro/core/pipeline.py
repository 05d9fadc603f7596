"""Cross-file batch scheduling and the batch result data model.

Two things live here:

* the **batch scheduler** the session's ``run_many`` delegates to:
  :func:`plan_batch_concurrency` gates how many *whole reconstructions* may
  overlap by the same memory-budget logic the streaming engine applies to
  row chunks (a batch of huge in-memory cubes is serialised, a batch of
  streamed files overlaps freely because each holds only one chunk slab),
  and :func:`run_batch_jobs` runs the items on a thread pool with order
  preserved.  Threads suffice on the host side because NumPy kernels and
  file I/O release the GIL, and the ``threads`` executor's row bands run on
  the one persistent :func:`~repro.core.workerpool.shared_thread_pool` all
  items reuse;
* the batch *data model* (:class:`BatchItem`, :class:`BatchReport`) — the
  session's :class:`~repro.core.session.BatchRunResult` extends
  :class:`BatchReport`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.core.config import ReconstructionConfig
from repro.core.result import DepthResolvedStack, ReconstructionReport
from repro.utils.logging import get_logger

__all__ = [
    "BatchItem",
    "BatchReport",
    "BATCH_MEMORY_BUDGET_BYTES",
    "estimate_source_resident_bytes",
    "plan_batch_concurrency",
    "run_batch_jobs",
]

_LOG = get_logger(__name__)

#: Default host-memory budget for concurrently resident batch items.  Four
#: streaming chunk slabs: a streamed batch overlaps up to four files, while
#: in-memory cubes large enough to matter get their concurrency clamped.
BATCH_MEMORY_BUDGET_BYTES = 4 * 256 * 1024 * 1024


# --------------------------------------------------------------------------- #
# memory-gated cross-file scheduling
def estimate_source_resident_bytes(source, config: ReconstructionConfig) -> Optional[int]:
    """Peak host bytes one batch item keeps resident while reconstructing.

    For a file source this is a header-only probe (geometry, never images):
    the input term is the full cube when the item will be loaded in memory,
    or one streaming chunk slab (:data:`~repro.core.engine.STREAMING_CHUNK_BYTES`,
    the same budget the engine plans row chunks with) when ``config.streaming``
    is set; the output term is the full depth-resolved cube, which exists
    either way; background subtraction briefly doubles the input slab.
    Returns ``None`` when the item's dimensions cannot be probed cheaply —
    an unreadable file surfaces as that *item's* failure at run time, never
    as a scheduling error.
    """
    from repro.core.source import FileSource, StackSource

    streaming_input = False
    if isinstance(source, StackSource):
        n_positions, n_rows, n_cols = source.stack.shape
    elif isinstance(source, FileSource):
        try:
            from repro.io.image_stack import read_wire_scan_geometry

            scan, detector, _beam, _metadata = read_wire_scan_geometry(source.path)
        except Exception:
            return None
        n_rows, n_cols = detector.shape
        n_positions = scan.n_points
        streaming_input = bool(config.streaming)
    else:
        return None

    from repro.core.engine import STREAMING_CHUNK_BYTES

    float_bytes = 8
    cube = n_positions * n_rows * n_cols * float_bytes
    input_bytes = min(cube, STREAMING_CHUNK_BYTES) if streaming_input else cube
    if config.subtract_background:
        input_bytes *= 2  # the background-subtracted slab copy
    output_bytes = config.grid.n_bins * n_rows * n_cols * float_bytes
    return int(input_bytes + output_bytes)


def plan_batch_concurrency(
    sources: Sequence,
    config: ReconstructionConfig,
    requested_workers: int,
    memory_budget: Optional[int] = None,
) -> int:
    """Concurrent whole-file reconstructions the memory budget admits.

    The gate mirrors the streaming engine's logic one level up: instead of
    bounding rows per chunk under a device budget, it bounds *items in
    flight* under a host budget, using the worst (largest) per-item resident
    set.  Never below one — a single over-budget item still runs, exactly
    like a single over-budget row still gets a chunk.
    """
    requested = max(1, int(requested_workers))
    if requested == 1:
        return 1  # already serial: skip the per-item header probes
    if memory_budget is None:
        memory_budget = BATCH_MEMORY_BUDGET_BYTES
    if int(memory_budget) < 1:
        return 1
    estimates = [estimate_source_resident_bytes(source, config) for source in sources]
    known = [bytes_ for bytes_ in estimates if bytes_]
    if not known:
        return requested
    admitted = max(1, int(memory_budget) // max(known))
    if admitted < requested:
        _LOG.info(
            "batch: memory budget %d B admits %d concurrent item(s) "
            "(worst item ~%d B), clamping from %d",
            memory_budget, admitted, max(known), requested,
        )
    return min(requested, admitted)


def run_batch_jobs(
    jobs: Sequence,
    run_one: Callable,
    max_workers: int,
) -> List["BatchItem"]:
    """Run *run_one* over *jobs* on a thread pool, preserving input order.

    ``max_workers == 1`` runs inline (no pool start-up for serial batches).
    *run_one* owns per-item error isolation; this function only schedules.
    """
    if max_workers <= 1:
        return [run_one(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=max_workers) as threads:
        return list(threads.map(run_one, jobs))


# --------------------------------------------------------------------------- #
# batch data model (BatchRunResult extends BatchReport)
@dataclass
class BatchItem:
    """Outcome of one item in a batch run."""

    input_path: str
    ok: bool
    wall_time: float = 0.0
    output_path: Optional[str] = None
    report: Optional[ReconstructionReport] = None
    error: Optional[str] = None
    result: Optional[DepthResolvedStack] = None
    #: the full provenance-carrying RunResult (kept when keep_results=True,
    #: so BatchRunResult.save_all can persist complete run records)
    run: Optional[object] = None
    #: True when this item was served from the result cache instead of
    #: reconstructed (incremental run_many) — its wall_time is service
    #: time (load + optional output write), not reconstruction time
    cached: bool = False


@dataclass
class BatchReport:
    """Aggregated outcome of a batch run."""

    items: List[BatchItem] = field(default_factory=list)
    wall_time: float = 0.0
    max_workers: int = 1
    backend: str = ""
    streaming: bool = False

    # ------------------------------------------------------------------ #
    @property
    def n_files(self) -> int:
        """Number of scheduled items."""
        return len(self.items)

    @property
    def n_ok(self) -> int:
        """Number of items reconstructed successfully."""
        return sum(1 for item in self.items if item.ok)

    @property
    def n_failed(self) -> int:
        """Number of items that raised."""
        return self.n_files - self.n_ok

    @property
    def n_cached(self) -> int:
        """Number of items served from the result cache (not reconstructed)."""
        return sum(1 for item in self.items if item.cached)

    @property
    def n_computed(self) -> int:
        """Number of successful items that were actually reconstructed."""
        return sum(1 for item in self.items if item.ok and not item.cached)

    @property
    def succeeded(self) -> List[BatchItem]:
        """The successful items, in input order."""
        return [item for item in self.items if item.ok]

    @property
    def failed(self) -> List[BatchItem]:
        """The failed items, in input order."""
        return [item for item in self.items if not item.ok]

    @property
    def total_file_seconds(self) -> float:
        """Sum of per-item wall times (> ``wall_time`` when the pool overlaps)."""
        return sum(item.wall_time for item in self.items)

    @property
    def throughput_files_per_second(self) -> float:
        """Completed items per second of batch wall time."""
        if self.wall_time <= 0:
            return 0.0
        return self.n_ok / self.wall_time

    def summary(self) -> str:
        """Human-readable multi-line batch summary."""
        mode = "streaming" if self.streaming else "in-memory"
        header = (
            f"batch: {self.n_ok}/{self.n_files} file(s) ok, backend={self.backend} ({mode}), "
            f"{self.max_workers} worker(s)"
        )
        if self.n_cached:
            header += f", {self.n_cached} cached"
        lines = [
            header,
            f"  wall={self.wall_time:.4f}s file-seconds={self.total_file_seconds:.4f}s "
            f"throughput={self.throughput_files_per_second:.2f} files/s",
        ]
        for item in self.items:
            if item.ok:
                tag = "hit " if item.cached else "ok  "
                lines.append(f"  {tag} {item.input_path} ({item.wall_time:.4f}s)")
            else:
                lines.append(f"  FAIL {item.input_path}: {item.error}")
        return "\n".join(lines)
