"""The ``dense-scan`` and ``sparse-stream`` workloads: cold ``Session.run`` samples.

A closed loop in the benchmark process alternates cold runs on the default
serial executor with the same call under ``executor="threads",
n_workers=2``, rotating over the corpus files.  Runs are sized by sample
count (derived from ``--seconds``), so every run covers each file and each
execution order equally often.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import corpus
import measure
from spans import Tracer, engine_metrics, run_layers, traced_run

CONFIGS = ("serial", "threads")


@dataclass(frozen=True)
class ScanWorkload:
    """How one scan workload runs its corpus."""

    intensity_cutoff: float
    #: rows per streamed window; ``None`` loads each file into memory
    rows_per_chunk: Optional[int]
    #: serial+threads sample pairs per second of ``--seconds`` (2-CPU host)
    pairs_per_second: float


WORKLOADS: Dict[str, ScanWorkload] = {
    "dense-scan": ScanWorkload(intensity_cutoff=0.0, rows_per_chunk=None, pairs_per_second=0.6),
    "sparse-stream": ScanWorkload(intensity_cutoff=1.0, rows_per_chunk=4, pairs_per_second=1.0),
}


def make_sessions(workload: ScanWorkload) -> Dict[str, object]:
    """Fresh serial and threads x2 sessions for *workload*."""
    import repro

    lo, hi = corpus.DEPTH_RANGE
    base = repro.session(grid=repro.DepthGrid.from_range(lo, hi, corpus.N_DEPTH_BINS),
                         intensity_cutoff=workload.intensity_cutoff)
    if workload.rows_per_chunk is not None:
        base = base.stream(rows_per_chunk=workload.rows_per_chunk)
    return {"serial": base, "threads": base.configure(executor="threads", n_workers=2)}


def schedule(seed: int, n_files: int, n_pairs: int) -> List[Tuple[int, Tuple[str, str]]]:
    """``(file index, config order)`` per sample pair; a function of *seed* only.

    Files rotate from a seeded offset; every full rotation flips which
    config runs first, so both orders see every file.
    """
    offset = random.Random(seed).randrange(n_files)
    return [
        ((offset + i) % n_files, CONFIGS if (i // n_files) % 2 == 0 else CONFIGS[::-1])
        for i in range(n_pairs)
    ]


def n_pairs_for(workload: ScanWorkload, seconds: float, n_files: int) -> int:
    """Sample pairs for a run of about *seconds*, a whole number of rotations."""
    return n_files * max(1, round(seconds * workload.pairs_per_second / n_files))


class ScanRun:
    """One run of a scan workload: set-up, timed loop, checks, metrics."""

    def __init__(self, workload: ScanWorkload, paths: List[str], seed: int,
                 seconds: float, trace: bool, calibration: measure.Calibration):
        self.workload = workload
        self.paths = paths
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.calibration = calibration
        self.tracer = Tracer(enabled=trace)
        self.reference: Dict[Tuple[int, str], str] = {}
        self.setup_s: List[float] = []
        self.latency: Dict[str, List[float]] = {name: [] for name in CONFIGS}
        self.peaks: Dict[str, List[float]] = {name: [] for name in CONFIGS}
        #: per-layer totals of each traced sample, per config
        self.layers: Dict[str, List[Dict]] = {name: [] for name in CONFIGS}
        self.overhead_ratios: List[float] = []
        #: host CPU shares (busy, steal) over the timed loop
        self.attempts: List[Dict] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.sessions: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    def _fail(self, what: str, detail: str = "") -> None:
        self.failures.append(f"{what}\n{detail}" if detail else what)

    def _check(self, file_index: int, config: str, result) -> None:
        """Compare one output with its reference digest (outside any clock)."""
        digest = measure.result_digest(result)
        if digest != self.reference[(file_index, config)]:
            self._fail(f"{config} output of file {file_index} differs from its reference")

    def setup(self) -> None:
        """One set-up per file: fresh sessions and thread pool, then one run
        in each config, whose digests become the references.

        The set-up clock stops while the digests are taken.
        """
        from repro.core.workerpool import shutdown_all

        for file_index, path in enumerate(self.paths):
            watch = measure.Stopwatch()
            with watch:
                shutdown_all()
                self.sessions = make_sessions(self.workload)
            for config in CONFIGS:
                self.attempted += 1
                try:
                    with watch:
                        run = self.sessions[config].run(path)
                except Exception:
                    self._fail(f"set-up {config} run of file {file_index}",
                               traceback.format_exc())
                    continue
                self.reference[(file_index, config)] = measure.result_digest(run.result)
                del run
            self.setup_s.append(watch.elapsed)
            serial, threads = (self.reference.get((file_index, c)) for c in CONFIGS)
            if serial is None or serial != threads:
                self._fail(f"serial and threads outputs of file {file_index} differ")

    # ------------------------------------------------------------------ #
    def _sample(self, file_index: int, config: str, traced: bool) -> Optional[float]:
        """One cold run; returns its latency, or ``None`` if it failed.

        Its peak RSS is taken from a fresh ``VmHWM`` after freed memory went
        back to the OS, so it is this sample's peak, not the run's history.
        """
        measure.release_freed_memory()
        self.calibration.sample()
        measure.reset_peak_rss()
        self.attempted += 1
        path = self.paths[file_index]
        request = f"{sum(map(len, self.layers.values()))}:{config}:{file_index}"
        try:
            start = time.perf_counter()
            if traced:
                result, report = traced_run(self.tracer, path,
                                            self.sessions[config].config, request)
            else:
                run = self.sessions[config].run(path)
                result, report = run.result, run.report
            latency = time.perf_counter() - start
        except Exception:
            self._fail(f"{config} run of file {file_index}", traceback.format_exc())
            return None
        self.peaks[config].append(measure.peak_rss_mb())
        self._check(file_index, config, result)
        if traced:
            layers = run_layers(self.tracer.request_spans(request), report, result)
            self.layers[config].append({**layers, "latency": latency})
        return latency

    def timed(self) -> None:
        """The timed closed loop (traced runs pair each sample with an untraced twin)."""
        n_pairs = n_pairs_for(self.workload, self.seconds / (2 if self.trace else 1),
                              len(self.paths))
        for step, (file_index, order) in enumerate(
                schedule(self.seed, len(self.paths), n_pairs)):
            for config in order:
                if not self.trace:
                    latency = self._sample(file_index, config, traced=False)
                    if latency is not None:
                        self.latency[config].append(latency)
                    continue
                twins = (True, False) if step % 2 == 0 else (False, True)
                times = {traced: self._sample(file_index, config, traced) for traced in twins}
                if None not in times.values():
                    self.latency[config].append(times[False])
                    self.overhead_ratios.append(times[True] / times[False])

    def run(self) -> None:
        from repro.core.workerpool import shutdown_all

        try:
            self.setup()
            if not self.failures:
                before = measure.cpu_times()
                self.timed()
                self.attempts.append(measure.host_share(before, measure.cpu_times()))
        finally:
            shutdown_all()

    # ------------------------------------------------------------------ #
    def samples(self) -> Dict[str, List[float]]:
        """Every timed latency, per config, in run order."""
        return dict(self.latency)

    def end_to_end(self) -> Dict[str, Dict]:
        """The gated metrics; times at the reference host speed (raw kept)."""
        serial, threads = self.latency["serial"], self.latency["threads"]
        speed = self.calibration.speed()
        return {
            "serial_or_hit_p50_s": measure.at_reference_speed(
                measure.median(serial), "s", speed, n=len(serial),
                iqr_share=measure.iqr_share(serial)),
            "threads_or_cold_p50_s": measure.at_reference_speed(
                measure.median(threads), "s", speed, n=len(threads),
                iqr_share=measure.iqr_share(threads)),
            # one serial plus one threads run per two median latencies: a
            # sum of latencies would let one stalled sample move the metric
            "jobs_per_s": measure.at_reference_speed(
                2.0 / (measure.median(serial) + measure.median(threads)), "1/s", speed,
                n=len(serial) + len(threads)),
            # the config with the larger typical per-sample peak
            "peak_rss_mb": measure.at_reference_speed(
                max(measure.median(self.peaks[c]) for c in CONFIGS), "MB", speed,
                n=len(serial) + len(threads)),
            "setup_s": measure.at_reference_speed(
                measure.median(self.setup_s), "s", speed, n=len(self.setup_s)),
        }

    def per_layer(self) -> Dict[str, float]:
        """Layer metrics: engine-side layers from serial samples, the
        executor's from threads samples (medians per sample)."""
        def med(config: str, key: str) -> float:
            values = [row[key] for row in self.layers[config]]
            return measure.median(values) if values else 0.0

        serial_s = med("serial", "latency")
        return {
            **engine_metrics(self.layers["serial"], measure.median),
            "backend.exec_s": med("threads", "backend"),
            "backend.dispatches": med("threads", "dispatches"),
            "backend.speedup": serial_s / med("threads", "latency"),
            "trace.overhead": measure.median(self.overhead_ratios) - 1.0,
            # record-only: the layer shares of a serial sample
            "_kernel_share": med("serial", "kernel") / serial_s,
            "_io_engine_share": (med("serial", "io_s") + med("serial", "engine_self")) / serial_s,
        }
