"""The analysis-ops registry and the composable analysis pipeline.

The results-side counterpart of the backend registry: post-reconstruction
analyses register as named **ops** and chain into immutable, reusable
pipelines (kedro's named-node shape) instead of living as orphaned free
functions::

    import repro

    pipeline = repro.analysis("peaks", "fwhm")          # immutable, reusable
    outcome = pipeline.apply(run)                       # a RunResult ...
    outcome = pipeline.apply(run.result)                # ... a bare stack ...
    outcome = pipeline.apply("depth.h5lite")            # ... or a saved file
    batch_outcome = pipeline.apply(batch)               # fan-out, per-item errors
    print(outcome["fwhm"], outcome.to_json())

An op is a function taking a
:class:`~repro.core.result.DepthResolvedStack` first and keyword parameters
after, returning a JSON-serialisable value.  Out-of-tree ops register
exactly like backends::

    from repro.core.ops import register_op

    @register_op("layer_count", description="number of resolved layers")
    def layer_count(result, min_relative_height=0.1):
        ...

and resolve everywhere built-ins do: ``repro.analysis()``,
``RunResult.analyze()``, ``Session.run(analyze=...)`` and the
``repro-analyze`` CLI.  Every outcome is an :class:`AnalysisResult` whose
provenance chains the run's provenance with the applied op sequence, so a
figure traced back from a JSON document names both the reconstruction and
the analysis that produced it.
"""

from __future__ import annotations

import dataclasses
import difflib
import inspect
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.analysis import (
    depth_resolution_estimate,
    detect_grain_boundaries,
    find_profile_peaks,
    profile_fwhm,
)
from repro.core.result import DepthResolvedStack
from repro.io.h5lite import H5LiteError, json_normalize
from repro.utils.validation import ValidationError
from repro.utils.version import package_version

__all__ = [
    "OpInfo",
    "register_op",
    "register_op_info",
    "unregister_op",
    "op_info",
    "available_ops",
    "ops",
    "AnalysisStep",
    "AnalysisPipeline",
    "AnalysisResult",
    "BatchAnalysisItem",
    "BatchAnalysisResult",
    "analysis",
    "as_pipeline",
]

_OPS: Dict[str, "OpInfo"] = {}


# --------------------------------------------------------------------------- #
# registry (mirrors repro.core.registry for backends)
@dataclass(frozen=True)
class OpInfo:
    """Registry entry: an analysis op plus its description.

    Parameters
    ----------
    name:
        Registry name the op resolves under (pipeline step names).
    func:
        ``func(result: DepthResolvedStack, **params) -> JSON-safe value``.
    description:
        One-line human description for the ``repro-analyze --list`` CLI.
    """

    name: str
    func: Callable
    description: str = ""

    @property
    def module(self) -> str:
        """Module the op is defined in (provenance/CLI)."""
        return getattr(self.func, "__module__", "?")

    def parameters(self) -> Dict[str, object]:
        """The op's keyword parameters and their defaults.

        The first parameter (the stack) is omitted; parameters without a
        default are reported as the string ``"<required>"`` (distinct from a
        genuine ``None`` default); ``*args``/``**kwargs`` catch-alls are
        omitted.
        """
        params = {}
        items = list(inspect.signature(self.func).parameters.items())[1:]
        for name, parameter in items:
            if parameter.kind in (
                inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD
            ):
                continue
            if parameter.default is inspect.Parameter.empty:
                params[name] = "<required>"
            else:
                params[name] = parameter.default
        return params

    def to_dict(self) -> Dict:
        """JSON-safe summary (the ``repro-analyze --list --json`` payload)."""
        return {
            "name": self.name,
            "module": self.module,
            "description": self.description,
            "parameters": self.parameters(),
        }


def register_op_info(info: OpInfo, replace: bool = False) -> OpInfo:
    """Add a fully-built :class:`OpInfo` to the registry.

    Duplicate names are rejected unless ``replace=True`` — silently
    shadowing an existing op would quietly change every pipeline using it.
    """
    if not info.name:
        raise ValidationError("op registration requires a non-empty name")
    if not callable(info.func):
        raise ValidationError(f"op {info.name!r} must be callable")
    if not replace and info.name in _OPS:
        raise ValidationError(
            f"op {info.name!r} is already registered (by {_OPS[info.name].module}); "
            "pass replace=True to override"
        )
    _OPS[info.name] = info
    return info


def register_op(name=None, *, description: str = "", replace: bool = False):
    """Function decorator registering an analysis op under *name*.

    Two forms are accepted::

        @register_op("myop", description="...")
        def myop(result, threshold=0.5): ...

        @register_op            # the function's own name is used
        def myop(result): ...
    """

    def decorate(func, op_name):
        about = description
        if not about and func.__doc__:
            about = func.__doc__.strip().splitlines()[0]
        register_op_info(
            OpInfo(name=op_name, func=func, description=about), replace=replace
        )
        return func

    if callable(name):  # bare @register_op on a function
        func = name
        return decorate(func, func.__name__)
    return lambda func: decorate(func, name or func.__name__)


def unregister_op(name: str) -> OpInfo:
    """Remove an op from the registry, returning its entry.

    Intended for plugin teardown and tests; re-register the returned info
    with :func:`register_op_info` to restore it.
    """
    info = _OPS.pop(name, None)
    if info is None:
        raise ValidationError(f"cannot unregister unknown op {name!r}")
    return info


def op_info(name: str) -> OpInfo:
    """Look up an op's registry entry, failing fast with a suggestion."""
    try:
        return _OPS[str(name)]
    except KeyError:
        known = sorted(_OPS)
        message = f"unknown analysis op {name!r}; available: {known}"
        close = difflib.get_close_matches(str(name), known, n=1)
        if close:
            message += f" — did you mean {close[0]!r}?"
        raise ValidationError(message) from None


def available_ops() -> List[str]:
    """Names of all registered ops, sorted."""
    return sorted(_OPS)


def ops(name: Optional[str] = None):
    """Introspect the op registry.

    With no argument, return every :class:`OpInfo` sorted by name (the
    ``repro.ops()`` public API); with a name, return that single entry.
    """
    if name is not None:
        return op_info(name)
    return [_OPS[key] for key in sorted(_OPS)]


# --------------------------------------------------------------------------- #
# analysis outcomes
def _json_value(value):
    """Normalize an op's return value into strict JSON types, fail-fast."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    elif isinstance(value, (list, tuple)):
        value = [
            dataclasses.asdict(item) if dataclasses.is_dataclass(item) and not isinstance(item, type) else item
            for item in value
        ]
    return json_normalize(value)


@dataclass
class AnalysisResult:
    """The outcome of one pipeline applied to one depth-resolved result.

    ``results`` holds one record per pipeline step —
    ``{"op", "params", "value"}`` in application order — and ``run`` is the
    provenance of the reconstruction the stack came from (``None`` for bare
    stacks).  The whole object is JSON-serialisable via :meth:`to_json`;
    ``outcome["peaks"]`` returns the value of the first step with that op
    name.
    """

    results: List[Dict] = field(default_factory=list)
    run: Optional[Dict] = None

    # ------------------------------------------------------------------ #
    def op_names(self) -> List[str]:
        """Applied op names, in order."""
        return [record["op"] for record in self.results]

    @property
    def values(self) -> Dict[str, object]:
        """Mapping of op name to value (first occurrence wins on repeats)."""
        out: Dict[str, object] = {}
        for record in self.results:
            out.setdefault(record["op"], record["value"])
        return out

    def __getitem__(self, op_name: str):
        for record in self.results:
            if record["op"] == op_name:
                return record["value"]
        raise KeyError(f"op {op_name!r} is not part of this analysis; ran {self.op_names()}")

    def __contains__(self, op_name: str) -> bool:
        return any(record["op"] == op_name for record in self.results)

    # ------------------------------------------------------------------ #
    def provenance(self) -> Dict:
        """Chained provenance: the run's record plus the applied op sequence."""
        return {
            "repro_version": package_version(),
            "ops": [
                {"op": record["op"], "params": record["params"]} for record in self.results
            ],
            "run": self.run,
        }

    def to_dict(self) -> Dict:
        """JSON-safe record of the analysis (provenance plus every value)."""
        return {"provenance": self.provenance(), "results": list(self.results)}

    def to_json(self, indent: int = 2) -> str:
        """The analysis record as a JSON document (deterministic key order)."""
        import json

        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        """Human-readable one-line-per-op summary."""
        lines = []
        for record in self.results:
            value = record["value"]
            shown = f"{len(value)} item(s)" if isinstance(value, list) else value
            lines.append(f"{record['op']}: {shown}")
        return "\n".join(lines)


@dataclass
class BatchAnalysisItem:
    """Outcome of one batch item's analysis."""

    input_path: str
    ok: bool
    analysis: Optional[AnalysisResult] = None
    error: Optional[str] = None

    def to_dict(self) -> Dict:
        """JSON-safe record of this item."""
        return {
            "input_path": self.input_path,
            "ok": self.ok,
            "analysis": None if self.analysis is None else self.analysis.to_dict(),
            "error": self.error,
        }


@dataclass
class BatchAnalysisResult:
    """A pipeline fanned out over a batch, with per-item error capture."""

    items: List[BatchAnalysisItem] = field(default_factory=list)
    pipeline: List[Dict] = field(default_factory=list)

    @property
    def n_ok(self) -> int:
        """Items analysed successfully."""
        return sum(1 for item in self.items if item.ok)

    @property
    def n_failed(self) -> int:
        """Items whose run or analysis failed."""
        return len(self.items) - self.n_ok

    @property
    def succeeded(self) -> List[BatchAnalysisItem]:
        """The successful items, in input order."""
        return [item for item in self.items if item.ok]

    @property
    def failed(self) -> List[BatchAnalysisItem]:
        """The failed items, in input order."""
        return [item for item in self.items if not item.ok]

    def to_dict(self) -> Dict:
        """JSON-safe record of the whole batch analysis."""
        return {
            "provenance": {"repro_version": package_version(), "ops": list(self.pipeline)},
            "n_ok": self.n_ok,
            "n_failed": self.n_failed,
            "items": [item.to_dict() for item in self.items],
        }

    def to_json(self, indent: int = 2) -> str:
        """The batch analysis record as a JSON document."""
        import json

        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


# --------------------------------------------------------------------------- #
# the pipeline
@dataclass(frozen=True)
class AnalysisStep:
    """One named op plus its bound parameters (immutable)."""

    op: str
    params: Tuple[Tuple[str, object], ...] = ()

    @property
    def params_dict(self) -> Dict[str, object]:
        """The bound parameters as a plain dict."""
        return dict(self.params)

    def to_dict(self) -> Dict:
        """JSON-safe record of this step."""
        return {"op": self.op, "params": self.params_dict}

    def describe(self) -> str:
        """Short ``op(param=value, ...)`` rendering."""
        if not self.params:
            return self.op
        rendered = ", ".join(f"{key}={value!r}" for key, value in self.params)
        return f"{self.op}({rendered})"


class AnalysisPipeline:
    """An immutable chain of named analysis ops.

    Build with :func:`repro.analysis` (or :meth:`then`, which returns a
    **new** pipeline — pipelines fork and reuse freely, like sessions) and
    apply to a :class:`~repro.core.session.RunResult`, a bare
    :class:`~repro.core.result.DepthResolvedStack`, a
    :class:`~repro.core.session.BatchRunResult` (fan-out with per-item error
    capture) or a saved ``.h5lite`` run file.

    Every step is validated at construction time: unknown op names fail
    with a did-you-mean suggestion and unknown parameters fail against the
    op's signature — long before any data is touched.
    """

    __slots__ = ("_steps",)

    def __init__(self, steps: Tuple[AnalysisStep, ...] = ()):
        steps = tuple(steps)
        for step in steps:
            info = op_info(step.op)
            try:
                inspect.signature(info.func).bind(None, **step.params_dict)
            except TypeError as exc:
                raise ValidationError(
                    f"op {step.op!r} rejects parameters {sorted(step.params_dict)}: {exc}"
                ) from None
        self._steps = steps

    # ------------------------------------------------------------------ #
    @property
    def steps(self) -> Tuple[AnalysisStep, ...]:
        """The pipeline's steps, in application order."""
        return self._steps

    def then(self, op: str, **params) -> "AnalysisPipeline":
        """A new pipeline with *op* (and its parameters) appended.

        Parameters are normalized to plain JSON types immediately (NumPy
        scalars become Python numbers), so the recorded provenance and
        :meth:`AnalysisResult.to_json` can never trip over a parameter
        after the analysis already ran.
        """
        try:
            params = json_normalize(params)
        except H5LiteError as exc:
            raise ValidationError(f"op {op!r} parameters must be JSON-serialisable: {exc}") from None
        step = AnalysisStep(op=str(op), params=tuple(sorted(params.items())))
        return AnalysisPipeline(self._steps + (step,))

    def op_sequence(self) -> List[Dict]:
        """JSON-safe op sequence (the pipeline's provenance contribution)."""
        return [step.to_dict() for step in self._steps]

    def signature(self) -> str:
        """Stable SHA-256 of the op sequence (ops, order and parameters).

        Two pipelines share a signature exactly when they would produce the
        same analysis on the same stack; the result cache combines it with
        the run key to memoize :class:`AnalysisResult` records.  Parameters
        were JSON-normalized at :meth:`then` time, so the canonical dump
        below is deterministic.
        """
        import hashlib
        import json

        canonical = json.dumps(
            self.op_sequence(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return hashlib.sha256(canonical).hexdigest()

    def describe(self) -> str:
        """Human-readable ``op → op → op`` chain."""
        return " → ".join(step.describe() for step in self._steps) or "<empty>"

    def __len__(self) -> int:
        return len(self._steps)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AnalysisPipeline({self.describe()})"

    # ------------------------------------------------------------------ #
    def apply(self, target):
        """Apply the pipeline to *target* and return the outcome.

        *target* may be a :class:`~repro.core.session.RunResult`, a
        :class:`~repro.core.result.DepthResolvedStack`, a
        :class:`~repro.core.session.BatchRunResult` or the path of a saved
        run file.  Batches return a :class:`BatchAnalysisResult` (per-item
        error capture); everything else returns an :class:`AnalysisResult`
        whose provenance chains the run's record with the op sequence.
        """
        from repro.core.session import BatchRunResult, RunResult

        if isinstance(target, BatchRunResult):
            return self._apply_batch(target)
        if isinstance(target, RunResult):
            return self._apply_stack(target.result, run=target.provenance())
        if isinstance(target, DepthResolvedStack):
            return self._apply_stack(target, run=None)
        if isinstance(target, (str, os.PathLike)):
            from repro.io.image_stack import load_run_payload

            stack, record = load_run_payload(target)
            if record is not None:
                # same shape as RunResult.provenance(): the full report stays
                # in the file, the provenance chain carries the summary
                record = {key: value for key, value in record.items() if key != "report"}
            return self._apply_stack(stack, run=record)
        raise ValidationError(
            "analysis pipelines apply to a RunResult, a DepthResolvedStack, a "
            f"BatchRunResult or a saved run file path, got {type(target).__name__}"
        )

    def _apply_stack(self, stack: DepthResolvedStack, run: Optional[Dict]) -> AnalysisResult:
        if not self._steps:
            raise ValidationError(
                "empty analysis pipeline; add ops with repro.analysis('peaks', ...) "
                "or .then('peaks')"
            )
        results: List[Dict] = [
            {
                "op": step.op,
                "params": step.params_dict,
                "value": _json_value(op_info(step.op).func(stack, **step.params_dict)),
            }
            for step in self._steps
        ]
        return AnalysisResult(results=results, run=run)

    def _apply_batch(self, batch) -> BatchAnalysisResult:
        items: List[BatchAnalysisItem] = []
        for item in batch.items:
            if not item.ok:
                items.append(BatchAnalysisItem(
                    input_path=item.input_path, ok=False,
                    error=f"reconstruction failed: {item.error}",
                ))
                continue
            if item.run is not None:
                target = item.run
            elif item.result is not None:
                target = item.result
            elif item.output_path is not None:
                target = item.output_path
            else:
                items.append(BatchAnalysisItem(
                    input_path=item.input_path, ok=False,
                    error="no result available (batch ran with keep_results=False "
                          "and no output_dir)",
                ))
                continue
            try:
                outcome = self.apply(target)
            except Exception as exc:  # per-item isolation: record, don't abort
                items.append(BatchAnalysisItem(
                    input_path=item.input_path, ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                ))
                continue
            items.append(BatchAnalysisItem(
                input_path=item.input_path, ok=True, analysis=outcome,
            ))
        return BatchAnalysisResult(items=items, pipeline=self.op_sequence())


def analysis(*specs) -> AnalysisPipeline:
    """Build an :class:`AnalysisPipeline` from op specs.

    Each spec is an op name, an ``(op_name, params_dict)`` pair or a
    ``{"op": ..., "params": {...}}`` dict::

        repro.analysis("peaks", "fwhm")
        repro.analysis(("peaks", {"min_relative_height": 0.2}), "depth_resolution")
        repro.analysis().then("peaks", min_separation_bins=4)
    """
    pipeline = AnalysisPipeline()
    for spec in specs:
        if isinstance(spec, str):
            pipeline = pipeline.then(spec)
        elif isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[1], dict):
            pipeline = pipeline.then(str(spec[0]), **spec[1])
        elif isinstance(spec, dict) and "op" in spec:
            pipeline = pipeline.then(str(spec["op"]), **(spec.get("params") or {}))
        else:
            raise ValidationError(
                f"invalid op spec {spec!r}; expected a name, (name, params) or "
                "{'op': name, 'params': {...}}"
            )
    return pipeline


def as_pipeline(value) -> AnalysisPipeline:
    """Coerce *value* into an :class:`AnalysisPipeline`.

    Accepts a prebuilt pipeline, a single op spec or a sequence of op specs
    (the ``Session.run(analyze=...)`` argument).
    """
    if isinstance(value, AnalysisPipeline):
        return value
    if isinstance(value, str) or (
        isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], dict)
    ) or (isinstance(value, dict) and "op" in value):
        return analysis(value)
    if isinstance(value, (list, tuple)):
        return analysis(*value)
    raise ValidationError(
        f"cannot build an analysis pipeline from {type(value).__name__}; "
        "pass op names, (name, params) specs or an AnalysisPipeline"
    )


# --------------------------------------------------------------------------- #
# built-in ops (the former orphaned free functions, now first-class)
@register_op("peaks", description="local maxima of the integrated depth profile")
def _op_peaks(result: DepthResolvedStack, min_relative_height: float = 0.1,
              min_separation_bins: int = 2) -> List[Dict]:
    peaks = find_profile_peaks(
        result.integrated_profile(), result.grid,
        min_relative_height=min_relative_height,
        min_separation_bins=min_separation_bins,
    )
    return [dataclasses.asdict(peak) for peak in peaks]


@register_op("fwhm", description="FWHM of the brightest integrated-profile peak")
def _op_fwhm(result: DepthResolvedStack) -> Optional[float]:
    profile = result.integrated_profile()
    if profile.size == 0 or profile.max() <= 0:
        return None
    return profile_fwhm(profile, result.grid, int(np.argmax(profile)))


@register_op("grain_boundaries", description="grain-boundary depths from the integrated profile")
def _op_grain_boundaries(result: DepthResolvedStack, min_relative_change: float = 0.2,
                         smooth_bins: int = 3) -> List[float]:
    return detect_grain_boundaries(
        result, min_relative_change=min_relative_change, smooth_bins=smooth_bins
    ).tolist()


@register_op("depth_resolution", description="median per-pixel FWHM (resolution figure of merit)")
def _op_depth_resolution(result: DepthResolvedStack, min_signal_fraction: float = 0.1) -> float:
    return float(depth_resolution_estimate(result, min_signal_fraction=min_signal_fraction))


@register_op("total_intensity", description="sum of all depth-resolved intensity")
def _op_total_intensity(result: DepthResolvedStack) -> float:
    return float(result.total_intensity())


@register_op("integrated_profile", description="depth-bin centres and detector-integrated intensity")
def _op_integrated_profile(result: DepthResolvedStack) -> Dict[str, List[float]]:
    return {
        "depth_um": result.grid.centers.tolist(),
        "intensity": result.integrated_profile().tolist(),
    }
