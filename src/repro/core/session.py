"""The fluent front door: ``repro.session(...)`` → :class:`Session` → :class:`RunResult`.

The one way to run a reconstruction — of an in-memory stack, of a file
(always streamed from disk) or of a batch::

    import repro

    run = (repro.session(grid=repro.DepthGrid.from_range(0, 120, 60))
                .on("gpusim", layout="pointer3d")
                .stream(rows_per_chunk=4)
                .run(repro.open("scan.h5lite")))
    print(run.report.summary())
    print(run.to_json())          # provenance: config, plan, timings, source

A :class:`Session` is an immutable builder over a
:class:`~repro.core.config.ReconstructionConfig`: every fluent method
(:meth:`Session.on`, :meth:`Session.stream`, ...) returns a *new* session, so
sessions can be shared and forked freely.  :meth:`Session.run` executes one
source through the shared engine and returns a :class:`RunResult` that always
carries the result cube, the report and a JSON-serializable provenance
record; :meth:`Session.run_many` is the batch scheduler (worker pool,
per-item error isolation, aggregated :class:`BatchRunResult`).

Any input :func:`repro.open` understands is accepted wherever a source is
expected — in-memory stacks, files, globs, directories, ndarray+geometry.

The results side is symmetric: :meth:`RunResult.save` writes the stack
*plus* the full run record into one h5lite file, :func:`load` reconstructs
the :class:`RunResult` losslessly, and :meth:`RunResult.analyze` /
``Session.run(analyze=...)`` chain the named analysis ops of
:mod:`repro.core.ops` onto fresh or reloaded results.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cache import CacheStats, ResultCache, compute_cache_key, resolve_cache
from repro.core.config import ReconstructionConfig, _caller_stacklevel
from repro.core.depth_grid import DepthGrid
from repro.core.engine import execute_backend
from repro.core.pipeline import BatchItem, BatchReport
from repro.core.registry import get_backend
from repro.core.result import DepthResolvedStack, ReconstructionReport
from repro.core.source import FileSource, InvalidSource, Source, open as open_source
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError
from repro.utils.version import package_version

__all__ = ["RunResult", "BatchRunResult", "Session", "session", "load"]

_LOG = get_logger(__name__)


# --------------------------------------------------------------------------- #
# run results
@dataclass
class RunResult:
    """Everything one :meth:`Session.run` produced.

    Always carries the report next to the result (the old
    ``reconstruct(return_report=False)`` shape silently dropped it) plus a
    provenance record — config snapshot, plan summary, timings and source
    identity — serializable with :meth:`to_json`.
    """

    result: DepthResolvedStack
    report: ReconstructionReport
    config: ReconstructionConfig
    source: Dict = field(default_factory=dict)
    created_unix: float = 0.0
    output_path: Optional[str] = None
    text_path: Optional[str] = None
    profile_pixels: Optional[List[List[int]]] = None
    analysis: Optional["object"] = None  # AnalysisResult of the last analyze()
    #: cache provenance of the run (None when no cache was consulted); a hit
    #: records the entry path, stored-at time and the digest re-verified
    #: before serving.  Deliberately NOT part of provenance(): a hit must be
    #: provenance-identical to the recompute it replaced.
    cache_stats: Optional[CacheStats] = None

    # ------------------------------------------------------------------ #
    @property
    def data(self):
        """The depth-resolved intensity cube ``(n_bins, n_rows, n_cols)``."""
        return self.result.data

    @property
    def wall_time(self) -> float:
        """Reconstruction wall time in seconds."""
        return self.report.wall_time

    @property
    def plan_summary(self) -> Optional[str]:
        """The engine's chunk-plan note for this run, if present."""
        return next((note for note in self.report.notes if note.startswith("plan[")), None)

    # ------------------------------------------------------------------ #
    def provenance(self) -> Dict:
        """JSON-safe record of what ran, on what, and how long it took."""
        return {
            "repro_version": package_version(),
            "created_unix": self.created_unix,
            "backend": self.report.backend,
            "config": self.config.to_dict(),
            "source": dict(self.source),
            "plan": self.plan_summary,
            "timings": {
                "wall_time": self.report.wall_time,
                "compute_time": self.report.compute_time,
                "transfer_time": self.report.transfer_time,
                "simulated_device_time": self.report.simulated_device_time,
            },
            "counters": {
                "n_chunks": self.report.n_chunks,
                "n_kernel_launches": self.report.n_kernel_launches,
                "n_threads_launched": self.report.n_threads_launched,
                "n_active_pixels": self.report.n_active_pixels,
                "n_steps": self.report.n_steps,
            },
            "notes": list(self.report.notes),
            "outputs": {
                "output_path": self.output_path,
                "text_path": self.text_path,
                "profile_pixels": self.profile_pixels,
            },
        }

    def to_dict(self) -> Dict:
        """Alias of :meth:`provenance` (the serializable view of the run)."""
        return self.provenance()

    def to_json(self, indent: int = 2) -> str:
        """The provenance record as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        """Human-readable run summary (report plus source identity)."""
        return f"source: {self.source}\n{self.report.summary()}"

    # ------------------------------------------------------------------ #
    def _run_record(self) -> Dict:
        """The provenance record plus the full report — everything a file
        needs to reconstruct this run (:func:`load` inverts it)."""
        record = self.provenance()
        record["report"] = self.report.to_dict()
        return record

    def save(self, output_path) -> "RunResult":
        """Write the depth-resolved stack *and* the full run record to an h5lite file.

        The provenance record (config snapshot, report, timings, source
        identity, output paths) is embedded as a JSON attribute next to the
        stack, so ``repro.load(run.save(path).output_path)`` reconstructs a
        lossless :class:`RunResult` — no provenance is dropped.
        """
        from repro.io.image_stack import save_depth_resolved

        # record the destination first so the embedded record round-trips it,
        # but roll back on a failed write — provenance must never claim an
        # output file that does not exist
        previous = self.output_path
        self.output_path = str(output_path)
        try:
            save_depth_resolved(output_path, self.result, run_record=self._run_record())
        except BaseException:
            self.output_path = previous
            raise
        _LOG.info("wrote depth-resolved stack + run record to %s", output_path)
        return self

    def write_profiles(self, text_path, pixels: Optional[Sequence[Tuple[int, int]]] = None) -> "RunResult":
        """Write per-pixel depth profiles as text (default: the brightest pixel).

        The selected pixels are recorded in the provenance ``outputs`` block,
        so a later :meth:`save` (or provenance export) keeps the full record
        of what was written where.
        """
        from repro.io.text_output import write_depth_profiles

        if pixels is None:
            totals = self.result.data.sum(axis=0)
            row, col = divmod(int(totals.argmax()), self.result.n_cols)
            pixels = [(row, col)]
        pixels = [[int(r), int(c)] for r, c in pixels]
        write_depth_profiles(text_path, self.result, pixels)
        self.text_path = str(text_path)
        self.profile_pixels = pixels
        _LOG.info("wrote %d depth profile(s) to %s", len(pixels), text_path)
        return self

    def analyze(self, *ops, **single_op_params) -> "object":
        """Run named analysis ops on this result (see :mod:`repro.core.ops`).

        ``run.analyze("peaks", "fwhm")`` chains the named ops into an
        immutable pipeline, applies it, keeps the outcome on
        :attr:`analysis` and returns it.  Keyword arguments parameterize a
        *single* op: ``run.analyze("peaks", min_relative_height=0.2)``; for
        per-op parameters build the pipeline explicitly with
        :func:`repro.analysis`.  A prebuilt
        :class:`~repro.core.ops.AnalysisPipeline` is applied as-is:
        ``run.analyze(repro.analysis(...))``.
        """
        from repro.core.ops import AnalysisPipeline, analysis

        if len(ops) == 1 and isinstance(ops[0], AnalysisPipeline):
            if single_op_params:
                raise ValidationError(
                    "keyword parameters do not combine with a prebuilt "
                    "pipeline; bind parameters on its steps instead"
                )
            self.analysis = self._apply_analysis(ops[0])
            return self.analysis
        if single_op_params and len(ops) != 1:
            raise ValidationError(
                "keyword parameters require exactly one op; build a pipeline "
                "with repro.analysis(...).then(op, **params) for per-op parameters"
            )
        if single_op_params:
            pipeline = analysis((ops[0], single_op_params))
        else:
            pipeline = analysis(*ops)
        self.analysis = self._apply_analysis(pipeline)
        return self.analysis

    # ------------------------------------------------------------------ #
    def bind_cache(self, cache: ResultCache) -> "RunResult":
        """Remember the cache this run went through (analysis memoization).

        Called by :class:`~repro.core.cache.ResultCache` on every hit and
        store; subsequent :meth:`analyze` calls memoize their outcome per
        (run key, pipeline signature) in the same cache root.
        """
        self._bound_cache = cache
        return self

    def _apply_analysis(self, pipeline):
        """Apply an analysis pipeline, memoized when cache-bound.

        The whole outcome is memoized per (run key, pipeline signature) in
        the cache this run went through.
        """
        cache = getattr(self, "_bound_cache", None)
        if cache is not None and self.cache_stats is not None:
            return cache.analyze(self, pipeline)
        return pipeline.apply(self)


def load(path) -> RunResult:
    """Reconstruct a :class:`RunResult` from a file written by :meth:`RunResult.save`.

    The inverse of ``run.save(path)``: the depth-resolved stack is read back
    bitwise-identical and the embedded run record rebuilds the config, the
    report and the provenance, so ``repro.load(run.save(p).output_path)`` is
    a lossless round-trip.  Raises :class:`~repro.utils.validation.ValidationError`
    for depth-resolved files without a run record (written by bare
    :func:`~repro.io.image_stack.save_depth_resolved`) — read those with
    :func:`~repro.io.image_stack.load_depth_resolved`.
    """
    from repro.io.image_stack import load_run_payload

    stack, record = load_run_payload(path)
    if record is None:
        raise ValidationError(
            f"{path} holds a depth-resolved stack but no run record; it was not "
            "written by RunResult.save() — load the bare stack with "
            "repro.io.image_stack.load_depth_resolved() instead"
        )
    return _run_result_from_record(stack, record, path)


def _run_result_from_record(stack: DepthResolvedStack, record: Dict, path) -> RunResult:
    """Rebuild a :class:`RunResult` from a loaded stack + run record."""
    try:
        config = ReconstructionConfig.from_dict(record["config"])
        report = ReconstructionReport.from_dict(record["report"])
    except KeyError as exc:
        raise ValidationError(f"run record in {path} is missing the {exc} block") from None
    outputs = record.get("outputs") or {}
    return RunResult(
        result=stack,
        report=report,
        config=config,
        source=dict(record.get("source") or {}),
        created_unix=float(record.get("created_unix", 0.0)),
        # the file it was just read from, not the recorded destination: a
        # copied/moved file must not claim an output path that may be gone
        output_path=str(path),
        text_path=outputs.get("text_path"),
        profile_pixels=outputs.get("profile_pixels"),
    )


@dataclass
class BatchRunResult(BatchReport):
    """A :class:`~repro.core.pipeline.BatchReport` plus run provenance.

    Everything the old batch scheduler reported (items, throughput,
    ``summary()``) is inherited unchanged; on top of it the batch carries the
    config snapshot and source identity, serializable with :meth:`to_json`.
    """

    config: Optional[ReconstructionConfig] = None
    source: Dict = field(default_factory=dict)
    #: the BatchAnalysisResult of the last :meth:`analyze` /
    #: ``run_many(analyze=...)``
    analysis: Optional[object] = None

    def analyze(self, *specs) -> "object":
        """Fan an analysis pipeline out over this batch and return the outcome.

        The specs build a linear pipeline exactly like
        :meth:`RunResult.analyze` (or pass a prebuilt
        :class:`~repro.core.ops.AnalysisPipeline`); it is applied item-wise
        with per-item error capture.  The outcome is kept on
        :attr:`analysis` and returned.
        """
        from repro.core.ops import AnalysisPipeline, analysis as build_analysis

        if len(specs) == 1 and isinstance(specs[0], AnalysisPipeline):
            self.analysis = specs[0].apply(self)
        else:
            self.analysis = build_analysis(*specs).apply(self)
        return self.analysis

    def to_dict(self) -> Dict:
        """JSON-safe record of the batch run."""
        return {
            "repro_version": package_version(),
            "backend": self.backend,
            "config": None if self.config is None else self.config.to_dict(),
            "source": dict(self.source),
            "max_workers": self.max_workers,
            "wall_time": self.wall_time,
            "n_files": self.n_files,
            "n_ok": self.n_ok,
            "n_failed": self.n_failed,
            "n_cached": self.n_cached,
            "throughput_files_per_second": self.throughput_files_per_second,
            "analysis": None if self.analysis is None else self.analysis.to_dict(),
            "items": [
                {
                    "input_path": item.input_path,
                    "ok": item.ok,
                    "cached": item.cached,
                    "wall_time": item.wall_time,
                    "output_path": item.output_path,
                    "error": item.error,
                }
                for item in self.items
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        """The batch provenance record as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # ------------------------------------------------------------------ #
    def save_all(self, output_dir) -> List[str]:
        """Save every successful item's run (stack + record) into *output_dir*.

        Uses the same ``<stem>_depth.h5lite`` naming (with collision
        suffixes) as ``run_many(output_dir=...)``; each file embeds its
        item's full run record, so :meth:`load_dir` round-trips the batch.
        Requires the batch to have been run with ``keep_results=True``.
        """
        runs = [item.run for item in self.succeeded]
        if any(run is None for run in runs):
            raise ValidationError(
                "save_all() needs the per-item results; re-run the batch with "
                "keep_results=True (or pass output_dir= to run_many directly)"
            )
        os.makedirs(output_dir, exist_ok=True)
        stems = [
            os.path.splitext(os.path.basename(item.input_path))[0]
            for item in self.succeeded
        ]
        paths = _output_names(stems, str(output_dir))
        for item, run, path in zip(self.succeeded, runs, paths):
            run.save(path)
            item.output_path = run.output_path
        _LOG.info("saved %d run(s) to %s", len(paths), output_dir)
        return paths

    @classmethod
    def load_dir(cls, directory) -> "BatchRunResult":
        """Reconstruct a batch from the run files saved in *directory*.

        Every ``.h5lite`` file in the directory carrying a depth-resolved
        run record becomes one item.  Healthy files of *other* repro formats
        (e.g. wire-scan inputs sitting alongside) and record-less legacy
        depth-resolved files are skipped; a file that fails to load —
        corrupt, truncated, or with a malformed record — is captured as a
        failed item, mirroring ``run_many``'s per-item error isolation.
        The batch config is the items' shared config when they agree,
        ``None`` otherwise.
        """
        from repro.io.h5lite import H5LiteError
        from repro.io.image_stack import UnrecognizedFormatError, load_run_payload

        directory = str(directory)
        if not os.path.isdir(directory):
            raise ValidationError(f"load_dir() needs a directory, got {directory!r}")
        paths = sorted(
            os.path.join(directory, name)
            for name in os.listdir(directory)
            if name.endswith(".h5lite")
        )
        items: List[BatchItem] = []
        configs: List[ReconstructionConfig] = []
        backends: List[str] = []
        for path in paths:
            try:
                stack, record = load_run_payload(path)
                if record is None:
                    # a bare depth-resolved stack (pre-redesign output or
                    # save_depth_resolved without a record) is not a run
                    # file: skip it like any other foreign format
                    continue
                run = _run_result_from_record(stack, record, path)
            except UnrecognizedFormatError:
                continue  # healthy h5lite of another format: not ours
            except (H5LiteError, ValidationError, OSError) as exc:
                items.append(BatchItem(
                    input_path=path, ok=False, error=f"{type(exc).__name__}: {exc}",
                ))
                continue
            items.append(BatchItem(
                input_path=path,
                ok=True,
                wall_time=run.report.wall_time,
                output_path=path,
                report=run.report,
                result=run.result,
                run=run,
            ))
            configs.append(run.config)
            backends.append(run.report.backend)
        shared_config = configs[0] if configs and all(c == configs[0] for c in configs) else None
        return cls(
            items=items,
            wall_time=0.0,
            max_workers=0,
            backend=backends[0] if backends and all(b == backends[0] for b in backends) else "",
            config=shared_config,
            source={"kind": "batch-dir", "directory": directory, "n_items": len(items)},
        )


def _analyze_batch(outcome: BatchRunResult, analyze) -> BatchRunResult:
    """Run the ``run_many(analyze=...)`` spec on a finished batch, if any."""
    if analyze is not None:
        from repro.core.ops import as_pipeline

        outcome.analyze(as_pipeline(analyze))
    return outcome


# --------------------------------------------------------------------------- #
# the fluent builder
def _output_names(stems: Sequence[str], output_dir: str) -> List[str]:
    """One ``<stem>_depth.h5lite`` per item; colliding names get a numeric suffix.

    Items from different directories may share a stem — without
    disambiguation their outputs would silently overwrite each other.  Every
    generated name is reserved, so a suffixed name can never collide with a
    later item whose stem happens to end in ``_<n>``.
    """
    used: set = set()
    out: List[str] = []
    for stem in stems:
        name = f"{stem}_depth.h5lite"
        suffix = 1
        while name in used:
            name = f"{stem}_{suffix}_depth.h5lite"
            suffix += 1
        used.add(name)
        out.append(os.path.join(output_dir, name))
    return out


def _item_path(source: Source) -> str:
    """The per-item identifier batch tables key on (path for files)."""
    if isinstance(source, FileSource):
        return source.path
    return source.label()


@dataclass(frozen=True)
class Session:
    """An immutable, fluent reconstruction front door.

    Build one with :func:`repro.session`, refine it with the fluent methods
    (each returns a **new** session) and execute with :meth:`run` /
    :meth:`run_many`::

        sess = repro.session(grid=grid).on("gpusim", layout="pointer3d").stream(4)
        run = sess.run(stack_or_path)
    """

    config: ReconstructionConfig
    #: session-level result cache (None: uncached); set with :meth:`cached`
    cache: Optional[ResultCache] = None

    # ------------------------------------------------------------------ #
    @property
    def grid(self) -> DepthGrid:
        """The depth grid of this session."""
        return self.config.grid

    @property
    def backend_name(self) -> str:
        """Name of the configured backend."""
        return self.config.backend

    def _with_config(self, config: ReconstructionConfig) -> "Session":
        """A session with a new config and everything else (cache) kept."""
        return Session(config=config, cache=self.cache)

    def on(self, backend: str, **overrides) -> "Session":
        """A session running on a different backend (plus config overrides)."""
        return self._with_config(self.config.with_backend(backend, **overrides))

    def stream(self, rows_per_chunk: Optional[int] = None) -> "Session":
        """A session reading file sources in windows of *rows_per_chunk* rows.

        Every file run streams its scan from disk; without *rows_per_chunk*
        there is nothing to set, and the session comes back unchanged with a
        :class:`DeprecationWarning`.
        """
        if rows_per_chunk is None:
            warnings.warn(
                "Session.stream() without rows_per_chunk is retired: every file run "
                "streams; the session is unchanged",
                DeprecationWarning,
                stacklevel=_caller_stacklevel(),
            )
            return self
        return self._with_config(self.config.with_overrides(rows_per_chunk=rows_per_chunk))

    def in_memory(self) -> "Session":
        """Retired: every file run streams its scan from disk.  Returns this
        session unchanged, with a :class:`DeprecationWarning`."""
        warnings.warn(
            "Session.in_memory() is retired: every file run streams; the session is unchanged",
            DeprecationWarning,
            stacklevel=_caller_stacklevel(),
        )
        return self

    def configure(self, **overrides) -> "Session":
        """A session with arbitrary config fields replaced.

        A name that is not a config field raises
        :class:`~repro.utils.validation.ValidationError`.
        """
        return self._with_config(self.config.with_overrides(**overrides))

    def cached(self, cache=True) -> "Session":
        """A session whose runs consult a content-addressed result cache.

        ``cache`` accepts ``True`` (the default root: ``REPRO_CACHE_DIR`` or
        ``~/.cache/repro``), a cache-root path, a prebuilt
        :class:`~repro.core.cache.ResultCache`, or ``False`` to return an
        uncached session again.  Every :meth:`run` / :meth:`run_many` on the
        returned session checks the cache before scheduling and stores fresh
        results after computing them; a per-call ``cache=`` argument still
        overrides.
        """
        return Session(config=self.config, cache=resolve_cache(cache))

    # ------------------------------------------------------------------ #
    def cache_key(self, src) -> Optional[str]:
        """The content-addressed key a cached run of *src* would use.

        ``None`` when the source cannot promise a stable identity (and so
        bypasses the cache).  This is the admission probe of the serving
        layer: ``repro-serve`` keys its single-flight table and cache-first
        admission on exactly the key :meth:`run` would compute, without
        triggering the run itself.  Fingerprinting is cheap by contract
        (file sources never read the image cube).
        """
        source = open_source(src)
        if source.is_batch:
            raise ValidationError(
                "Session.cache_key() takes a single source, not a batch; "
                "batches fingerprint per item"
            )
        fingerprint = source.fingerprint()
        if fingerprint is None:
            return None
        return compute_cache_key(fingerprint, self.config)

    def run(
        self,
        src,
        *,
        output_path=None,
        text_path=None,
        text_pixels: Optional[Sequence[Tuple[int, int]]] = None,
        analyze=None,
        cache=None,
    ) -> RunResult:
        """Reconstruct one source and return the :class:`RunResult`.

        *src* is anything :func:`repro.open` accepts (except a batch — use
        :meth:`run_many`).  ``output_path`` / ``text_path`` optionally write
        the h5lite result and text depth profiles, exactly like the old file
        pipeline did.  ``analyze`` runs named analysis ops (an op name, a
        sequence of names/specs, or a prebuilt
        :class:`~repro.core.ops.AnalysisPipeline`) on the fresh result; the
        outcome lands on :attr:`RunResult.analysis`.  Text profiles are
        written before the h5lite save so the embedded run record carries
        every output path.

        ``cache`` overrides the session-level cache for this run (``True``,
        ``False``, a root path or a :class:`~repro.core.cache.ResultCache` —
        see :meth:`cached`).  With a cache active, a fingerprint-identical
        earlier result is served bitwise-identical instead of recomputed
        (``run.cache_stats`` records the hit) and fresh results are stored;
        requested outputs and analyses are produced either way.
        """
        source = open_source(src)
        if source.is_batch:
            raise ValidationError(
                f"Session.run() reconstructs a single source, got {source.label()}; "
                "use Session.run_many() for batches"
            )
        active_cache = resolve_cache(cache, self.cache)
        key: Optional[str] = None
        if active_cache is not None:
            fingerprint = source.fingerprint()
            if fingerprint is not None:
                key = compute_cache_key(fingerprint, self.config)
                hit = active_cache.get(key)
                if hit is not None:
                    _LOG.debug("session: cache hit %s for %s", key[:12], source.label())
                    return self._finish_run(
                        hit, output_path, text_path, text_pixels, analyze
                    )
        run = self._run_cold(source)
        if key is not None:
            active_cache.put(key, run)
        return self._finish_run(run, output_path, text_path, text_pixels, analyze)

    def _run_cold(self, source: Source) -> RunResult:
        """One uncached reconstruction of an already-opened single source."""
        created = time.time()
        chunk_source = source.chunk_source(self.config)
        _LOG.debug("session: %s via %s", chunk_source.describe(), self.config.backend)
        result, report = execute_backend(chunk_source, self.config)
        accounting_note = getattr(chunk_source, "accounting_note", None)
        if accounting_note is not None:
            report.notes.append(accounting_note())
        return RunResult(
            result=result,
            report=report,
            config=self.config,
            source=source.identity(),
            created_unix=created,
        )

    @staticmethod
    def _finish_run(run: RunResult, output_path, text_path, text_pixels, analyze) -> RunResult:
        """Write the requested outputs / analysis; shared by hits and colds.

        Output writing comes *after* any cache store, so cache entries never
        embed a caller's output paths — a hit serves the reconstruction, the
        session serves this request's side effects.
        """
        if text_path is not None:
            run.write_profiles(text_path, pixels=text_pixels)
        if output_path is not None:
            run.save(output_path)
        if analyze is not None:
            from repro.core.ops import as_pipeline

            run.analysis = run._apply_analysis(as_pipeline(analyze))
        return run

    def run_many(
        self,
        srcs,
        *,
        max_workers: Optional[int] = None,
        output_dir: Optional[str] = None,
        keep_results: bool = True,
        memory_budget: Optional[int] = None,
        cache=None,
        analyze=None,
    ) -> BatchRunResult:
        """Reconstruct a batch of sources with overlapping whole-file runs.

        Items are scheduled onto ``max_workers`` threads (default: up to 4,
        never more than the number of items), additionally gated by the
        host-memory budget: concurrency is clamped so the concurrently
        resident working sets (probed per item from file headers — see
        :func:`~repro.core.pipeline.plan_batch_concurrency`) fit
        *memory_budget*, the batch-level twin of the engine's bounded
        windows.  A failure in one item is isolated: it is recorded on
        that item's :class:`~repro.core.pipeline.BatchItem` and the rest of
        the batch continues.

        Parameters
        ----------
        srcs:
            Anything :func:`repro.open` accepts — a list of paths/stacks, a
            glob, a directory, or a single source (a batch of one).
        max_workers:
            Concurrent reconstructions.  Thread-based: NumPy kernels and file
            I/O release the GIL for long stretches, and the ``threads``
            executor's row bands run on the persistent
            :func:`~repro.core.workerpool.shared_thread_pool`, which every
            item reuses — a batch pays pool start-up once, not once per
            file.
        output_dir:
            When given, each item's depth-resolved result is written to
            ``<output_dir>/<stem>_depth.h5lite`` (the directory is created).
        keep_results:
            Keep each item's :class:`~repro.core.result.DepthResolvedStack`
            on its batch item.  Disable for very large batches where only
            the reports (or the written output files) are wanted.
        memory_budget:
            Host bytes the concurrently resident items may occupy
            (default :data:`~repro.core.pipeline.BATCH_MEMORY_BUDGET_BYTES`).
        cache:
            Per-call override of the session-level result cache (``True``,
            ``False``, a root path or a
            :class:`~repro.core.cache.ResultCache` — see :meth:`cached`).
            With a cache active the batch is **incremental**: every item's
            fingerprint is probed first, cached items are served without
            reconstruction (their :class:`~repro.core.pipeline.BatchItem`
            has ``cached=True``), and only the changed/unseen items are
            scheduled — worker count and the memory-budget gate are planned
            over the recomputed items alone.
        analyze:
            Analysis to fan out over the finished batch — op specs or a
            prebuilt :class:`~repro.core.ops.AnalysisPipeline`, as for
            :meth:`run`.  The :class:`~repro.core.ops.BatchAnalysisResult`
            lands on :attr:`BatchRunResult.analysis`.
        """
        if isinstance(srcs, (list, tuple)):
            # per-entry isolation: an entry that cannot even be normalized
            # (bad glob, empty directory, unsupported type) becomes a failed
            # item, and the rest of the batch still runs
            sources: List[Source] = []
            for entry in srcs:
                try:
                    sources.extend(open_source(entry).items())
                except ValidationError as exc:
                    sources.append(InvalidSource(entry, exc))
        else:
            sources = open_source(srcs).items()
        identity = {
            "kind": "batch", "n_items": len(sources),
            "items": [source.identity() for source in sources],
        }
        if not sources:
            empty = BatchRunResult(
                items=[], wall_time=0.0, max_workers=0,
                backend=self.config.backend, config=self.config, source=identity,
            )
            return _analyze_batch(empty, analyze)
        from repro.core.pipeline import plan_batch_concurrency, run_batch_jobs

        batch_start = time.perf_counter()
        output_paths: List[Optional[str]] = [None] * len(sources)
        if output_dir is not None:
            os.makedirs(output_dir, exist_ok=True)
            output_paths = _output_names([source.label() for source in sources], output_dir)

        # incremental recompute: probe every fingerprintable item against the
        # cache up front, so only the changed/unseen items reach the scheduler.
        # Keys are kept so a recomputed item stores its result without
        # fingerprinting (and probing) the same source a second time.
        active_cache = resolve_cache(cache, self.cache)
        hit_items: Dict[int, BatchItem] = {}
        keys: List[Optional[str]] = [None] * len(sources)
        if active_cache is not None:
            for index, source in enumerate(sources):
                fingerprint = source.fingerprint()
                if fingerprint is None:
                    continue
                keys[index] = compute_cache_key(fingerprint, self.config)
                hit = active_cache.get(keys[index])
                if hit is None:
                    continue
                hit_items[index] = self._serve_batch_hit(
                    hit, source, output_paths[index], keep_results
                )

        pending = [index for index in range(len(sources)) if index not in hit_items]

        # worker count and the memory-budget gate are planned over the items
        # that will actually reconstruct — cached hits occupy no slot
        if pending:
            if max_workers is None:
                max_workers = min(4, len(pending))
            max_workers = max(1, min(int(max_workers), len(pending)))
            max_workers = plan_batch_concurrency(
                [sources[index] for index in pending], self.config,
                max_workers, memory_budget=memory_budget,
            )
        else:
            max_workers = 0

        from concurrent.futures import CancelledError

        def run_one(job: Tuple[Source, Optional[str], Optional[str]]) -> BatchItem:
            source, item_output, key = job
            start = time.perf_counter()
            try:
                # cache=False: the up-front probe already established the miss
                # and computed the key — recompute cold and store it directly,
                # instead of fingerprinting the same source a second time
                outcome = self.run(source, output_path=item_output, cache=False)
                if key is not None:
                    active_cache.put(key, outcome)
            # per-item isolation: record, don't abort.  CancelledError is a
            # BaseException since 3.8 and can surface from a pool future that
            # was cancelled out from under the run — still one item's failure
            except (Exception, CancelledError) as exc:
                wall = time.perf_counter() - start
                _LOG.warning("batch: %s failed after %.3fs: %s", _item_path(source), wall, exc)
                return BatchItem(
                    input_path=_item_path(source),
                    ok=False,
                    wall_time=wall,
                    output_path=item_output,
                    error=f"{type(exc).__name__}: {exc}",
                )
            wall = time.perf_counter() - start
            return BatchItem(
                input_path=_item_path(source),
                ok=True,
                wall_time=wall,
                output_path=outcome.output_path,
                report=outcome.report,
                result=outcome.result if keep_results else None,
                run=outcome if keep_results else None,
            )

        jobs = [(sources[index], output_paths[index], keys[index]) for index in pending]
        computed = run_batch_jobs(jobs, run_one, max_workers) if jobs else []
        by_index = dict(zip(pending, computed))
        items = [
            hit_items[index] if index in hit_items else by_index[index]
            for index in range(len(sources))
        ]
        wall = time.perf_counter() - batch_start

        outcome = BatchRunResult(
            items=items,
            wall_time=wall,
            max_workers=max_workers,
            backend=self.config.backend,
            config=self.config,
            source=identity,
        )
        _LOG.info("batch finished: %s", outcome.summary().splitlines()[0])
        return _analyze_batch(outcome, analyze)

    def _serve_batch_hit(
        self,
        run: RunResult,
        source: Source,
        item_output: Optional[str],
        keep_results: bool,
    ) -> BatchItem:
        """One batch item served from the cache (output still written).

        A failing output write is that *item's* failure, mirroring the
        per-item isolation of the recompute path.
        """
        start = time.perf_counter()
        try:
            if item_output is not None:
                run.save(item_output)
        except Exception as exc:
            wall = time.perf_counter() - start
            _LOG.warning(
                "batch: cached %s failed to write its output after %.3fs: %s",
                _item_path(source), wall, exc,
            )
            return BatchItem(
                input_path=_item_path(source),
                ok=False,
                wall_time=wall,
                output_path=item_output,
                error=f"{type(exc).__name__}: {exc}",
                cached=True,
            )
        return BatchItem(
            input_path=_item_path(source),
            ok=True,
            wall_time=time.perf_counter() - start,
            output_path=run.output_path,
            report=run.report,
            result=run.result if keep_results else None,
            run=run if keep_results else None,
            cached=True,
        )

    # ------------------------------------------------------------------ #
    def compare(self, src, backends) -> Dict[str, RunResult]:
        """Run several backends on the same source and collect their runs.

        Returns a mapping ``backend name -> RunResult``; useful for
        correctness cross-checks and for the benchmark harness.

        Every backend name is validated (and each backend instantiated)
        *before* any reconstruction runs, so a typo in the last name cannot
        waste the runs before it.  Each backend runs on the source as
        opened, exactly as :meth:`run` would, so a file keeps its identity
        in each run's record and a cached session serves and stores the
        same entries :meth:`run` does.  Each report's own plan note records
        the chunking it ran; with ``config.rows_per_chunk`` fixed, every
        backend runs that exact chunking.
        """
        source = open_source(src)
        if source.is_batch:
            raise ValidationError("Session.compare() takes a single source, not a batch")
        names = [str(name) for name in backends]
        for name in names:
            get_backend(name)  # validates (with did-you-mean) up front
        return {name: self.on(name).run(source) for name in names}


def session(
    config: Optional[ReconstructionConfig] = None,
    grid: Optional[DepthGrid] = None,
    **overrides,
) -> Session:
    """Build a :class:`Session` — the one front door to the reconstruction.

    Parameters
    ----------
    config:
        Full reconstruction configuration.  Alternatively pass ``grid`` and
        keyword overrides and a default configuration is built.
    grid:
        Depth grid (required when *config* is not given).
    **overrides:
        Any :class:`~repro.core.config.ReconstructionConfig` field, applied
        on top of the defaults when *config* is not given; any other name
        raises :class:`~repro.utils.validation.ValidationError`.
    """
    if config is None:
        if grid is None:
            raise ValidationError(
                "either a ReconstructionConfig or a DepthGrid (grid=...) must be provided"
            )
        config = ReconstructionConfig(grid=grid).with_overrides(**overrides)
    elif overrides or grid is not None:
        raise ValidationError("pass either a full config or grid+overrides, not both")
    return Session(config=config)
