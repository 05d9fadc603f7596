"""Reconstruction configuration."""

from __future__ import annotations

import enum
import sys
import warnings
from dataclasses import InitVar, dataclass, fields, replace
from typing import Dict, Optional

from repro.core.depth_grid import DepthGrid
from repro.geometry.wire import WireEdge
from repro.utils.validation import ValidationError, _is_count, ensure_non_negative

__all__ = ["DifferenceMode", "ReconstructionConfig", "EXECUTOR_CHOICES"]

#: Executor strategies for the host-parallel hot path: how the vectorised
#: compute is dispatched.  ``serial`` runs in the calling thread; ``threads``
#: fans row bands out to the shared thread pool (the fused kernels release
#: the GIL inside their ufunc loops).
EXECUTOR_CHOICES = ("serial", "threads")

#: Retired names still accepted, per field: ``{field: {old: current fields}}``.
#: Saved provenance records, cache entries and serve submissions all rebuild
#: configs through the constructor, so mapping here (with a warning) keeps
#: records that name a retired backend, executor or worker count loadable.
#: The retired ``threaded`` (and before it ``multiprocess``) backend ran the
#: vectorized kernel on the thread pool whatever ``executor`` said, so it
#: sets both; ``executor`` comes first, so a record naming both retired names
#: warns twice.  The retired auto-tuner's ``"auto"`` maps to what an
#: unresolved ``"auto"`` ran: serial, one worker.
_RETIRED_NAMES = {
    "executor": {"processes": {"executor": "threads"}, "auto": {"executor": "serial"}},
    "n_workers": {"auto": {"n_workers": 1}},
    "backend": dict.fromkeys(
        ("threaded", "multiprocess"), {"backend": "vectorized", "executor": "threads"}
    ),
}


def _caller_stacklevel() -> int:
    """The ``warnings.warn`` stack level, counted from this function's caller,
    of the first frame outside ``repro`` and ``dataclasses``: the line of a
    script or ``python -c`` that named a retired name through the session,
    ``from_dict`` or ``dataclasses.replace``, where the default filters show
    the warning."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__", "").split(".")[0] in (
        "repro", "dataclasses"
    ):
        frame, level = frame.f_back, level + 1
    return level


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
        Number of detector rows (an integer >= 1) streamed to the device per
        chunk.  ``None`` lets the chunk planner pick the largest chunk that
        fits device memory (the paper uses a fixed small number of rows).
    device_memory_limit:
        Optional override (bytes, an integer >= 1) of the simulated device
        memory, used to scale the 6 GB constraint down to laptop-sized
        problems.
    n_workers:
        Worker count (an integer >= 1) for the ``threads`` executor.  The retired
        ``"auto"`` resolves to ``1`` with a :class:`DeprecationWarning`.
    executor:
        Where the vectorized backend's kernel runs: ``serial`` (in the
        calling thread, the default) or ``threads`` (row bands on the shared
        GIL-releasing thread pool).  The retired ``processes`` resolves to
        ``threads`` and ``auto`` to ``serial``, each with a
        :class:`DeprecationWarning`.
    subtract_background:
        If true, a constant per-image background (the median of the whole
        image) is subtracted before distribution.  The levels are computed
        once per run over the full stack, so every chunking subtracts the
        same background.
    streaming:
        Retired: every file run streams its scan from disk, one window of
        rows at a time.  The name is still accepted, so scripts and saved
        records that set it keep working, and ignored with a
        :class:`DeprecationWarning`; it is not a field.
    """

    grid: DepthGrid
    wire_edge: WireEdge = WireEdge.LEADING
    difference_mode: DifferenceMode = DifferenceMode.SIGNED
    intensity_cutoff: float = 0.0
    backend: str = "vectorized"
    layout: str = "flat1d"
    rows_per_chunk: Optional[int] = None
    device_memory_limit: Optional[int] = None
    n_workers: int = 2
    executor: str = "serial"
    subtract_background: bool = False
    streaming: InitVar[Optional[bool]] = None

    def __post_init__(self, streaming):
        if streaming is not None:
            warnings.warn(
                f"streaming={streaming!r} is retired and ignored: every file run streams",
                DeprecationWarning,
                stacklevel=_caller_stacklevel(),
            )
        for name, renames in _RETIRED_NAMES.items():
            old = getattr(self, name)
            if isinstance(old, str) and old in renames:
                current = renames[old]
                spelled = ", ".join(f"{field}={value!r}" for field, value in current.items())
                warnings.warn(
                    f"{name}={old!r} is retired; using {spelled}",
                    DeprecationWarning,
                    stacklevel=_caller_stacklevel(),
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
        for name in ("rows_per_chunk", "device_memory_limit", "n_workers"):
            value = getattr(self, name)
            if value is None and name != "n_workers":
                continue
            if not _is_count(value):
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.executor not in EXECUTOR_CHOICES:
            raise ValidationError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTOR_CHOICES}"
            )
        # fail fast on backend typos (with a did-you-mean suggestion) instead
        # of erroring deep inside reconstruct(); the registry is the single
        # source of truth for what names exist
        from repro.core.registry import backend_info

        backend_info(self.backend)

    # ------------------------------------------------------------------ #
    def with_backend(self, backend: str, **overrides) -> "ReconstructionConfig":
        """Return a copy of this config with a different backend (and overrides)."""
        return self.with_overrides(backend=backend, **overrides)

    def with_overrides(self, **overrides) -> "ReconstructionConfig":
        """Return a copy with arbitrary fields replaced.

        A name that is not a field raises :class:`ValidationError`, as in
        :meth:`from_dict`.
        """
        _reject_unknown_fields(overrides)
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
            "n_workers": int(self.n_workers),
            "executor": self.executor,
            "subtract_background": bool(self.subtract_background),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ReconstructionConfig":
        """Rebuild a config from a :meth:`to_dict` snapshot.

        Unknown keys are rejected (a provenance file from a newer version
        should fail loudly, not half-apply), and the full constructor
        validation — including the registry backend check — runs as usual.
        A record that names the retired ``streaming`` loads with a
        :class:`DeprecationWarning`, into the config it names without it.
        """
        data = dict(data)
        _reject_unknown_fields(data)
        if "grid" not in data:
            raise ValidationError("config dict requires a 'grid' entry")
        grid = data["grid"]
        if isinstance(grid, dict):
            try:
                data["grid"] = DepthGrid(**grid)
            except TypeError:
                raise ValidationError(
                    f"config 'grid' entry must hold exactly start, step and n_bins, got {grid!r}"
                ) from None
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


def _reject_unknown_fields(names) -> None:
    """Raise :class:`ValidationError` naming every entry of *names* that is
    not a :class:`ReconstructionConfig` field (the retired ``streaming``
    passes: the constructor ignores it with a warning)."""
    known = {f.name for f in fields(ReconstructionConfig)}
    unknown = sorted(set(names) - known - {"streaming"})
    if unknown:
        raise ValidationError(f"unknown config field(s): {unknown}; known: {sorted(known)}")
