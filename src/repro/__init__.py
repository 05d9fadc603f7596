"""repro — Laue wire-scan depth reconstruction with a simulated CUDA device.

A reproduction of *"Accelerating the Depth Reconstruction Algorithm with
CUDA/GPU"* (Yue, Schwarz, Tischler; CLUSTER 2015): the differential-aperture
(wire-scan) depth-reconstruction algorithm used at APS sector 34-ID,
re-implemented in Python with

* a clean reference implementation and a vectorised implementation of the
  reconstruction (``repro.core``);
* a software model of the CUDA execution environment the paper ports the
  algorithm to (``repro.cudasim``);
* the experiment geometry, a minimal crystallography layer and a synthetic
  wire-scan forward model that replaces the unavailable beamline data
  (``repro.geometry``, ``repro.crystallography``, ``repro.synthetic``);
* an HDF5-like container format and the file pipeline (``repro.io``);
* a benchmark harness that regenerates the paper's figures
  (``repro.perf`` + the ``benchmarks/`` directory).

Quick start::

    import repro
    from repro.synthetic import make_grain_sample_stack

    stack, source, sample = make_grain_sample_stack()
    run = (repro.session(grid=repro.DepthGrid.from_range(0, 120, 60))
                .on("gpusim")
                .run(repro.open(stack)))
    print(run.report.summary())
    print(run.to_json())  # provenance: config, plan, timings, source

    run.save("depth.h5lite")              # stack + full run record in one file
    same = repro.load("depth.h5lite")     # lossless RunResult round-trip
    print(repro.analysis("peaks", "fwhm").apply(same).to_json())

``repro.open`` normalizes any input (stack, ``.h5lite`` path, glob,
directory, ndarray+geometry) and ``repro.session`` is the immutable fluent
builder.  The results side is symmetric: ``repro.load`` reconstructs saved
runs with their provenance, ``repro.analysis`` chains named analysis ops
into immutable pipelines, and ``repro.ops()`` / ``repro.backends()``
introspect the op and backend registries.
"""

from repro import core, cudasim, geometry, io, synthetic, utils
from repro.core import (
    AnalysisPipeline,
    AnalysisResult,
    BackendInfo,
    BatchAnalysisResult,
    BatchRunResult,
    CacheStats,
    DepthGrid,
    DepthResolvedStack,
    OpInfo,
    ReconstructionConfig,
    ResultCache,
    RunResult,
    Session,
    Source,
    WireScanStack,
    available_backends,
    available_ops,
    backends,
    load,
    open,
    register_backend,
    register_op,
    session,
    unregister_backend,
    unregister_op,
)

# imported from the ops module directly (not via repro.core) so the
# repro.core.analysis and repro.core.ops submodules stay reachable as
# attributes; at this level no submodule name collides
from repro.core.ops import analysis, ops

# the one version definition lives in repro._version (setup.py parses that
# file textually); this is a re-export, never a second definition
from repro._version import __version__


def __getattr__(name):
    # repro.serve is loaded lazily: the serving daemon is optional machinery
    # and `import repro` must stay light for library users
    if name == "serve":
        import importlib

        module = importlib.import_module("repro.serve")
        globals()["serve"] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

# NOTE: repro.open is public API but deliberately absent from __all__, so
# `from repro import *` never shadows the builtin open (gzip-style).
__all__ = [
    "core",
    "cudasim",
    "geometry",
    "io",
    "synthetic",
    "utils",
    "serve",
    "session",
    "Session",
    "Source",
    "RunResult",
    "BatchRunResult",
    "ResultCache",
    "CacheStats",
    "load",
    "analysis",
    "AnalysisPipeline",
    "AnalysisResult",
    "BatchAnalysisResult",
    "ops",
    "available_ops",
    "register_op",
    "unregister_op",
    "OpInfo",
    "backends",
    "available_backends",
    "register_backend",
    "unregister_backend",
    "BackendInfo",
    "DepthGrid",
    "DepthResolvedStack",
    "ReconstructionConfig",
    "WireScanStack",
    "__version__",
]
