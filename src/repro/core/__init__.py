"""Core depth-reconstruction library (the paper's primary contribution).

The public entry point is the fluent :func:`~repro.core.session.session`
builder (``repro.session(grid=...).on("gpusim").run(repro.open(x))``), which
turns anything :func:`~repro.core.source.open` understands — a
:class:`~repro.core.stack.WireScanStack`, a file, a glob, an
ndarray+geometry — into a :class:`~repro.core.result.DepthResolvedStack`
wrapped in a provenance-carrying :class:`~repro.core.session.RunResult`.
The results side mirrors it: :meth:`RunResult.save` persists the stack with
its full run record, :func:`~repro.core.session.load` reconstructs it
losslessly, and named analysis ops (:mod:`repro.core.ops`) chain into
immutable pipelines via :func:`~repro.core.ops.analysis`.  Backends plug in
through :mod:`repro.core.registry`, analysis ops through
:func:`~repro.core.ops.register_op`.  The lower-level pieces — depth
mapping (pixel to depth; depth-bin index conversions are
:class:`~repro.core.depth_grid.DepthGrid` methods), trapezoid response,
array layouts, row-chunk planning and the execution engine, whose plan owns
each run's output cube — are exposed for tests, benchmarks and users who
want to compose them differently.
"""

from repro.core.depth_grid import DepthGrid
from repro.core.stack import WireScanStack
from repro.core.result import DepthResolvedStack, ReconstructionReport
from repro.core.config import ReconstructionConfig, DifferenceMode
from repro.core.depth_mapping import pixel_yz_to_depth
from repro.core.trapezoid import (
    trapezoid_from_depths,
    trapezoid_height,
    trapezoid_area,
    trapezoid_bin_overlaps,
)
from repro.core.layouts import Flat1DLayout, Pointer3DLayout, get_layout
from repro.core.chunking import ChunkPlan, plan_row_chunks
from repro.core.engine import (
    ChunkExecutor,
    ChunkSource,
    ExecutionPlan,
    StackChunkSource,
    build_execution_plan,
    execute,
    execute_backend,
)
from repro.core.registry import (
    BackendInfo,
    available_backends,
    backends,
    get_backend,
    register_backend,
    register_backend_info,
    unregister_backend,
)
from repro.core.cache import (
    CacheStats,
    ResultCache,
    compute_cache_key,
    default_cache_root,
)
from repro.core.source import BatchSource, FileSource, Source, StackSource, open
from repro.core.session import BatchRunResult, RunResult, Session, load, session
from repro.core.analysis import (
    find_profile_peaks,
    detect_grain_boundaries,
    depth_resolution_estimate,
)
# NOTE: the ops module's `analysis` and `ops` callables are deliberately NOT
# imported here — binding them on this package would shadow the
# repro.core.analysis and repro.core.ops submodules.  They are re-exported at
# the top level as repro.analysis / repro.ops, where no submodule collides.
from repro.core.ops import (
    AnalysisPipeline,
    AnalysisResult,
    BatchAnalysisResult,
    OpInfo,
    available_ops,
    register_op,
    register_op_info,
    unregister_op,
)

__all__ = [
    "DepthGrid",
    "WireScanStack",
    "DepthResolvedStack",
    "ReconstructionReport",
    "ReconstructionConfig",
    "DifferenceMode",
    "pixel_yz_to_depth",
    "trapezoid_from_depths",
    "trapezoid_height",
    "trapezoid_area",
    "trapezoid_bin_overlaps",
    "Flat1DLayout",
    "Pointer3DLayout",
    "get_layout",
    "ChunkPlan",
    "plan_row_chunks",
    "ChunkExecutor",
    "ChunkSource",
    "ExecutionPlan",
    "StackChunkSource",
    "build_execution_plan",
    "execute",
    "execute_backend",
    "BackendInfo",
    "available_backends",
    "backends",
    "get_backend",
    "register_backend",
    "register_backend_info",
    "unregister_backend",
    "Source",
    "StackSource",
    "FileSource",
    "BatchSource",
    "ResultCache",
    "CacheStats",
    "compute_cache_key",
    "default_cache_root",
    # "open" is public API (repro.core.open) but deliberately absent from
    # __all__ so star-imports never shadow the builtin open
    "Session",
    "RunResult",
    "BatchRunResult",
    "session",
    "load",
    "find_profile_peaks",
    "detect_grain_boundaries",
    "depth_resolution_estimate",
    "AnalysisPipeline",
    "AnalysisResult",
    "BatchAnalysisResult",
    "OpInfo",
    "available_ops",
    "register_op",
    "register_op_info",
    "unregister_op",
]
