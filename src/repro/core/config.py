"""Reconstruction configuration."""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Union

from repro.core.depth_grid import DepthGrid
from repro.geometry.wire import WireEdge
from repro.utils.validation import ValidationError, ensure_non_negative

__all__ = ["DifferenceMode", "ReconstructionConfig", "EXECUTOR_CHOICES", "AUTO"]

#: Sentinel accepted by ``n_workers`` and ``executor`` for auto-tuned values.
AUTO = "auto"

#: Executor strategies for the host-parallel hot path: how the vectorised
#: compute is dispatched.  ``serial`` runs in the calling thread; ``threads``
#: fans row bands out to the shared thread pool (the fused kernels release
#: the GIL inside their ufunc loops); ``auto`` lets the auto-tuner pick from
#: a cached throughput probe.
EXECUTOR_CHOICES = ("serial", "threads", AUTO)

#: Retired names still accepted, per field: ``{field: {old: current fields}}``.
#: Saved provenance records, cache entries and serve submissions all rebuild
#: configs through the constructor, so mapping here (with a warning) keeps
#: records that name a retired backend or executor loadable.  The retired
#: ``threaded`` (and before it ``multiprocess``) backend ran the vectorized
#: kernel on the thread pool whatever ``executor`` said, so it sets both;
#: ``executor`` comes first, so a record naming both retired names warns twice.
_RETIRED_NAMES = {
    "executor": {"processes": {"executor": "threads"}},
    "backend": dict.fromkeys(
        ("threaded", "multiprocess"), {"backend": "vectorized", "executor": "threads"}
    ),
}


class DifferenceMode(enum.Enum):
    """How adjacent-image differences are turned into depth contributions.

    ``SIGNED``
        Use the raw difference ``I[i] - I[i+1]`` (paper-faithful).  Correct
        when the scan geometry is such that only the selected wire edge
        crosses a pixel's line of sight during the scan.
    ``RECTIFIED``
        Clamp the difference at zero (occlusion events only for the leading
        edge, release events only for the trailing edge).  Robust when both
        edges cross during the scan, at the price of discarding half of the
        counting statistics.
    """

    SIGNED = "signed"
    RECTIFIED = "rectified"


@dataclass(frozen=True)
class ReconstructionConfig:
    """Parameters of a depth reconstruction run.

    Parameters
    ----------
    grid:
        Depth grid to reconstruct onto.
    wire_edge:
        Which wire edge the analysis uses (leading by default).
    difference_mode:
        See :class:`DifferenceMode`.
    intensity_cutoff:
        Differences with ``|dI|`` below this value are skipped (the
        ``d_cutoff`` parameter of the paper's kernel); pixels whose every
        step falls below the cutoff cost no reconstruction work, which is
        what the paper's "pixel percentage" experiments vary.
    backend:
        Execution backend name: what computes (``cpu_reference``,
        ``vectorized``, ``gpusim``, or a registered plugin).  The retired
        ``threaded`` and ``multiprocess`` resolve to ``vectorized`` with
        ``executor="threads"``, with a :class:`DeprecationWarning`.
    layout:
        Device array layout for the gpusim backend (``flat1d`` or
        ``pointer3d``) — the Fig. 4 design choice.
    rows_per_chunk:
        Number of detector rows streamed to the device per chunk.  ``None``
        lets the chunk planner pick the largest chunk that fits device
        memory (the paper uses a fixed small number of rows).
    device_memory_limit:
        Optional override (bytes) of the simulated device memory, used to
        scale the 6 GB constraint down to laptop-sized problems.
    n_workers:
        Worker count for the ``threads`` executor.  The string ``"auto"``
        asks the auto-tuner for a calibrated count (resolved by the session
        before execution; an unresolved ``"auto"`` runs one worker in line).
    executor:
        Where the vectorized backend's kernel runs: ``serial`` (in the
        calling thread, the default), ``threads`` (row bands on the shared
        GIL-releasing thread pool) or ``auto`` (pick from the cached
        throughput probe of :mod:`repro.perf.autotune`).  The retired
        ``processes`` resolves to ``threads`` with a
        :class:`DeprecationWarning`.
    subtract_background:
        If true, a constant per-image background (the median of the whole
        image) is subtracted before distribution.  The levels are computed
        once per run over the full stack, so every chunking subtracts the
        same background.
    streaming:
        If true, :meth:`repro.core.session.Session.run` streams a file
        source's row chunks straight from disk through the engine instead
        of loading the image cube into host memory first — the out-of-core
        mode for data sets larger than RAM.
    """

    grid: DepthGrid
    wire_edge: WireEdge = WireEdge.LEADING
    difference_mode: DifferenceMode = DifferenceMode.SIGNED
    intensity_cutoff: float = 0.0
    backend: str = "vectorized"
    layout: str = "flat1d"
    rows_per_chunk: Optional[int] = None
    device_memory_limit: Optional[int] = None
    n_workers: Union[int, str] = 2
    executor: str = "serial"
    subtract_background: bool = False
    streaming: bool = False

    def __post_init__(self):
        for name, renames in _RETIRED_NAMES.items():
            old = getattr(self, name)
            if isinstance(old, str) and old in renames:
                current = renames[old]
                spelled = ", ".join(f"{field}={value!r}" for field, value in current.items())
                warnings.warn(
                    f"{name}={old!r} is retired; using {spelled}",
                    DeprecationWarning,
                    stacklevel=3,
                )
                for field, value in current.items():
                    object.__setattr__(self, field, value)
        if not isinstance(self.grid, DepthGrid):
            raise ValidationError("grid must be a DepthGrid instance")
        if not isinstance(self.wire_edge, WireEdge):
            raise ValidationError("wire_edge must be a WireEdge")
        if not isinstance(self.difference_mode, DifferenceMode):
            raise ValidationError("difference_mode must be a DifferenceMode")
        ensure_non_negative(self.intensity_cutoff, "intensity_cutoff")
        if self.layout not in ("flat1d", "pointer3d"):
            raise ValidationError(f"layout must be 'flat1d' or 'pointer3d', got {self.layout!r}")
        if self.rows_per_chunk is not None and int(self.rows_per_chunk) < 1:
            raise ValidationError("rows_per_chunk must be >= 1 when given")
        if self.device_memory_limit is not None and int(self.device_memory_limit) < 1:
            raise ValidationError("device_memory_limit must be positive when given")
        if isinstance(self.n_workers, str):
            if self.n_workers != AUTO:
                raise ValidationError(
                    f"n_workers must be an int >= 1 or 'auto', got {self.n_workers!r}"
                )
        elif int(self.n_workers) < 1:
            raise ValidationError("n_workers must be >= 1")
        if self.executor not in EXECUTOR_CHOICES:
            raise ValidationError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTOR_CHOICES}"
            )
        # fail fast on backend typos (with a did-you-mean suggestion) instead
        # of erroring deep inside reconstruct(); the registry is the single
        # source of truth for what names exist
        from repro.core.registry import backend_info

        info = backend_info(self.backend)
        if self.streaming and not info.supports_streaming:
            raise ValidationError(
                f"backend {self.backend!r} does not support streaming "
                "(supports_streaming=False in its registration)"
            )

    # ------------------------------------------------------------------ #
    def with_backend(self, backend: str, **overrides) -> "ReconstructionConfig":
        """Return a copy of this config with a different backend (and overrides)."""
        return replace(self, backend=backend, **overrides)

    def with_overrides(self, **overrides) -> "ReconstructionConfig":
        """Return a copy with arbitrary fields replaced."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """JSON-safe snapshot of every field (run provenance, CLI round-trips).

        Enums are stored by value/name string; the grid is expanded into its
        ``start``/``step``/``n_bins`` primitives.  :meth:`from_dict` inverts
        this exactly.
        """
        return {
            "grid": {"start": self.grid.start, "step": self.grid.step, "n_bins": self.grid.n_bins},
            "wire_edge": self.wire_edge.name.lower(),
            "difference_mode": self.difference_mode.value,
            "intensity_cutoff": float(self.intensity_cutoff),
            "backend": self.backend,
            "layout": self.layout,
            "rows_per_chunk": self.rows_per_chunk,
            "device_memory_limit": self.device_memory_limit,
            "n_workers": self.n_workers if isinstance(self.n_workers, str) else int(self.n_workers),
            "executor": self.executor,
            "subtract_background": bool(self.subtract_background),
            "streaming": bool(self.streaming),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ReconstructionConfig":
        """Rebuild a config from a :meth:`to_dict` snapshot.

        Unknown keys are rejected (a provenance file from a newer version
        should fail loudly, not half-apply), and the full constructor
        validation — including the registry backend check — runs as usual.
        """
        data = dict(data)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationError(f"unknown config field(s): {unknown}; known: {sorted(known)}")
        if "grid" not in data:
            raise ValidationError("config dict requires a 'grid' entry")
        grid = data["grid"]
        if isinstance(grid, dict):
            data["grid"] = DepthGrid(**grid)
        wire_edge = data.get("wire_edge")
        if isinstance(wire_edge, str):
            try:
                data["wire_edge"] = WireEdge[wire_edge.upper()]
            except KeyError:
                raise ValidationError(
                    f"unknown wire_edge {wire_edge!r}; expected one of "
                    f"{[e.name.lower() for e in WireEdge]}"
                ) from None
        mode = data.get("difference_mode")
        if isinstance(mode, str):
            try:
                data["difference_mode"] = DifferenceMode(mode)
            except ValueError:
                raise ValidationError(
                    f"unknown difference_mode {mode!r}; expected one of "
                    f"{[m.value for m in DifferenceMode]}"
                ) from None
        return cls(**data)
