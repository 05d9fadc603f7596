"""The ``serve-readwrite`` workload: cache hits beside computations on a live daemon.

A real ``python -m repro.serve --workers 2 --port 0`` daemon runs in its
own process with a fresh cache root.  Set-up primes 8 (file, d_cutoff)
pairs; then two closed loops run side by side, one connection each:

* the reader resubmits the primed pairs round-robin -- every request is a
  cache-first hit (fingerprint, verified cache read, memoized analysis);
* the sweeper submits a fresh pair twice back-to-back -- one computation,
  one collapsed follower, one cache store.

Runs are sized by request count, with reader and sweeper counts in a fixed
ratio, because the daemon keeps every finished job record: a fixed-duration
run would let a faster program show a higher peak RSS.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from typing import Dict, List, Optional, Tuple

import corpus
import measure
from spans import Tracer, engine_metrics, run_layers, traced_run

#: d_cutoff values of the primed (hit) pairs.
PRIMED_CUTOFFS = (0.0, 0.5)
#: Reader requests per sweeper pair: keeps both loops busy for the whole run.
HITS_PER_SWEEP = 5
#: Sweeper pairs per second of ``--seconds`` (2-CPU host).
SWEEPS_PER_SECOND = 4.0
#: Think time after each reader / sweeper request.  It holds the two loops
#: to about half of the two CPUs: a saturated daemon turns a small loss of
#: host capacity into a large rise in latency.
READER_THINK_S = 0.030
SWEEPER_THINK_S = 0.130
#: Fixed status-poll interval; ``ServeClient.wait``'s back-off would
#: quantize latencies to its poll times.
POLL_S = 0.010
#: Daemon set-ups per run; ``setup_s`` is their median.
N_SETUPS = 3
#: Share of host CPU time the hypervisor may steal during the timed loops.
#: Hit and cold latencies roughly double at 15-20% steal (many thread
#: wake-ups per request), so a stolen attempt is repeated once.
STEAL_LIMIT = 0.05
MAX_ATTEMPTS = 2
#: Longest a job may stay unfinished before the request counts as failed.
JOB_TIMEOUT_S = 60.0
ANALYZE = ["peaks"]
TERMINAL = ("done", "failed", "cancelled")
JOB_COUNTERS = ("computed", "collapsed", "rejected")

Pair = Tuple[int, float]


def schedule(seed: int, n_files: int, seconds: float) -> Dict[str, List[Pair]]:
    """The reader's and the sweeper's request lists; a function of its arguments."""
    rng = random.Random(seed)
    primed = [(f, c) for f in range(n_files) for c in PRIMED_CUTOFFS]
    rng.shuffle(primed)
    n_sweeps = max(1, round(seconds * SWEEPS_PER_SECOND))
    offset = rng.randrange(n_files)
    return {
        "primed": primed,
        "hits": [primed[i % len(primed)] for i in range(HITS_PER_SWEEP * n_sweeps)],
        "sweeps": [((offset + k) % n_files, round(1.0 + 0.001 * k, 6))
                   for k in range(n_sweeps)],
    }


def config_for(cutoff: float):
    import repro

    lo, hi = corpus.DEPTH_RANGE
    return repro.session(grid=repro.DepthGrid.from_range(lo, hi, corpus.N_DEPTH_BINS),
                         intensity_cutoff=cutoff).config


class Daemon:
    """One ``repro-serve`` process with its own cache root and log file."""

    def __init__(self, root: str, work_dir: str, tag: str):
        self.cache_root = os.path.join(work_dir, f"cache-{tag}")
        self.log_path = os.path.join(work_dir, f"daemon-{tag}.log")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "--workers", "2", "--port", "0",
                 "--cache-root", self.cache_root],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=root,
            )
        self.port: Optional[int] = None

    def wait_ready(self, timeout_s: float = 60.0):
        """Block until the daemon logs its port and answers ``/healthz``."""
        from repro.serve import ServeClient

        deadline = time.monotonic() + timeout_s
        pattern = re.compile(rb"listening on http://127\.0\.0\.1:(\d+)")
        while self.port is None:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode} before listening")
            if time.monotonic() > deadline:
                raise TimeoutError("daemon did not report its port")
            with open(self.log_path, "rb") as fh:
                match = pattern.search(fh.read())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.005)
        while True:
            try:
                ServeClient(port=self.port).health()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)

    def client(self, name: str):
        from repro.serve import ServeClient

        return ServeClient(port=self.port, client_id=name, timeout_s=60.0)

    def stop(self) -> int:
        """SIGTERM, wait for the drain; kill only if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                return -9
        return self.proc.returncode


class ServeRun:
    """One run of ``serve-readwrite``: set-ups, timed loops, checks, metrics."""

    def __init__(self, root: str, work_dir: str, paths: List[str], seed: int,
                 seconds: float, trace: bool, calibration: measure.Calibration):
        self.root = root
        self.work_dir = work_dir
        self.paths = [os.path.abspath(p) for p in paths]
        self.plan = schedule(seed, len(paths), seconds)
        self.trace = trace
        self.calibration = calibration
        self.tracer = Tracer(enabled=trace)
        cutoffs = {c for _f, c in self.plan["primed"] + self.plan["sweeps"]}
        self.configs = {cutoff: config_for(cutoff) for cutoff in sorted(cutoffs)}
        self.reference: Dict[Pair, str] = {}
        self.primed: Dict[Pair, str] = {}
        self.setup_s: List[float] = []
        self.hits: List[Tuple[bool, float]] = []
        self.colds: List[float] = []
        self.cold_jobs: List[Dict] = []
        self.cold_digests: List[Tuple[Pair, str]] = []
        self.polls_per_cold: List[int] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.wall_s = 0.0
        self.peak_rss = 0.0
        self.counter_deltas: Dict[str, float] = {}
        self.cache_deltas: Dict[str, float] = {}
        self.inproc_rows: List[Dict] = []
        #: host CPU shares (busy, steal) of each timed attempt
        self.attempts: List[Dict] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _fail(self, what: str, detail: str = "") -> None:
        with self._lock:
            self.failures.append(f"{what}\n{detail}" if detail else what)

    def _reference(self, pair: Pair) -> str:
        """In-process digest of a cold run of *pair* (the expected output)."""
        import repro

        file_index, cutoff = pair
        run = repro.Session(config=self.configs[cutoff]).run(self.paths[file_index])
        return measure.result_digest(run.result)

    @staticmethod
    def _wait(client, job: Dict, request: Optional[str], tracer: Tracer) -> Tuple[Dict, int]:
        """Poll a job's status every ``POLL_S`` until it is terminal."""
        polls = 0
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while job["state"] not in TERMINAL:
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job['id']} still {job['state']}")
            time.sleep(POLL_S)
            with tracer.span("serve.poll", request):
                job = client.status(job["id"])
            polls += 1
        return job, polls

    def _finished(self, client, job: Dict, request: Optional[str],
                  tracer: Tracer) -> Tuple[Dict, Dict, int]:
        """Wait for *job*, then fetch its result record."""
        job, polls = self._wait(client, job, request, tracer)
        if job["state"] != "done":
            raise RuntimeError(f"job {job['id']} {job['state']}: {job.get('error')}")
        with tracer.span("serve.fetch", request):
            result = client.result(job["id"])
        return job, result, polls

    # ------------------------------------------------------------------ #
    def _prime(self, daemon: Daemon) -> None:
        """Submit every primed pair, then collect each (2 workers compute)."""
        client = daemon.client("perfbench-prime")
        accepted = []
        for pair in self.plan["primed"]:
            self.attempted += 1
            accepted.append(client.submit(self.paths[pair[0]], config=self.configs[pair[1]],
                                          analyze=ANALYZE))
        for pair, acceptance in zip(self.plan["primed"], accepted):
            _job, result, _polls = self._finished(client, acceptance["job"], None, _OFF)
            self.primed[pair] = (result.get("cache") or {}).get("digest")

    def _launch(self, tag: str) -> Daemon:
        """One set-up: a fresh daemon from launch until the hit set is primed."""
        start = time.perf_counter()
        daemon = Daemon(self.root, self.work_dir, tag)
        try:
            daemon.wait_ready()
            self._prime(daemon)
        except BaseException:
            self._stop(daemon)
            raise
        self.setup_s.append(time.perf_counter() - start)
        for pair, digest in self.primed.items():
            if digest != self.reference[pair]:
                self._fail(f"primed result of {pair} differs from the in-process run")
        return daemon

    def setup(self) -> Daemon:
        """``N_SETUPS`` set-ups; the last daemon stays up for the timed loops."""
        for pair in self.plan["primed"]:
            self.reference[pair] = self._reference(pair)
        daemon = self._launch("0")
        for tag in range(1, N_SETUPS):
            self._stop(daemon)
            daemon = self._launch(str(tag))
        return daemon

    def _stop(self, daemon: Daemon) -> None:
        code = daemon.stop()
        if code != 0:
            self._fail(f"daemon exited with code {code} after SIGTERM")
        shutil.rmtree(daemon.cache_root, ignore_errors=True)

    # ------------------------------------------------------------------ #
    def _hit(self, client, pair: Pair, request: Optional[str], tracer: Tracer) -> float:
        """One reader request; returns its latency after checking the result."""
        start = time.perf_counter()
        with tracer.span("serve.request", request):
            with tracer.span("serve.submit", request):
                accepted = client.submit(self.paths[pair[0]], config=self.configs[pair[1]],
                                         analyze=ANALYZE)
            job, result, _polls = self._finished(client, accepted["job"], request, tracer)
        latency = time.perf_counter() - start
        if accepted["dedup"] != "hit" or job["served"] != "cache":
            raise AssertionError(f"{pair} was not served from the cache")
        if (result.get("cache") or {}).get("digest") != self.primed[pair]:
            raise AssertionError(f"{pair} digest differs from the primed one")
        if not (result.get("analysis") or {}).get("results"):
            raise AssertionError(f"{pair} carries no analysis")
        return latency

    def _reader(self, daemon: Daemon) -> None:
        client = daemon.client("perfbench-reader")
        for index, pair in enumerate(self.plan["hits"]):
            # whole rotations alternate traced/untraced: trace.overhead compares them
            traced = self.trace and (index // len(self.plan["primed"])) % 2 == 0
            time.sleep(READER_THINK_S)
            try:
                latency = self._hit(client, pair, f"hit{index}" if traced else None,
                                    self.tracer if traced else _OFF)
            except Exception:
                self._fail(f"hit {index} {pair}", traceback.format_exc())
                continue
            with self._lock:
                self.hits.append((traced, latency))

    def _sweep(self, client, pair: Pair, request: Optional[str]) -> Tuple[float, Dict]:
        """One sweeper pair: the same fresh job submitted twice back-to-back."""
        path, config = self.paths[pair[0]], self.configs[pair[1]]
        start = time.perf_counter()
        with self.tracer.span("serve.request", request):
            with self.tracer.span("serve.submit", request):
                leader = client.submit(path, config=config, analyze=ANALYZE)
            with self.tracer.span("serve.submit", request):
                follower = client.submit(path, config=config, analyze=ANALYZE)
            job, result, polls = self._finished(client, leader["job"], request, self.tracer)
            _job, follower_result, more_polls = self._finished(client, follower["job"],
                                                               request, self.tracer)
        latency = time.perf_counter() - start
        digest = (result.get("cache") or {}).get("digest")
        if leader["dedup"] != "scheduled" or follower["dedup"] not in ("collapsed", "hit"):
            raise AssertionError(f"dedup {leader['dedup']}/{follower['dedup']}")
        if not digest or (follower_result.get("cache") or {}).get("digest") != digest:
            raise AssertionError("leader and follower results differ")
        return latency, {"polls": polls + more_polls, "timings": job["timings"],
                         "digest": digest}

    def _sweeper(self, daemon: Daemon) -> None:
        client = daemon.client("perfbench-sweeper")
        for index, pair in enumerate(self.plan["sweeps"]):
            # the calibration loop runs inside the think time, so it sees the
            # host as the two loops see it
            resume = time.perf_counter() + SWEEPER_THINK_S
            self.calibration.sample()
            time.sleep(max(0.0, resume - time.perf_counter()))
            try:
                latency, info = self._sweep(client, pair, f"cold{index}" if self.trace else None)
            except Exception:
                self._fail(f"sweep {index} {pair}", traceback.format_exc())
                continue
            with self._lock:
                self.colds.append(latency)
                self.polls_per_cold.append(info["polls"])
                self.cold_jobs.append(info["timings"])
                self.cold_digests.append((pair, info["digest"]))

    def timed(self, daemon: Daemon) -> None:
        """The two loops on *daemon*; replaces any earlier attempt's samples."""
        self.hits, self.colds, self.polls_per_cold = [], [], []
        self.cold_jobs, self.cold_digests = [], []
        self.calibration.samples.clear()
        metrics_client = daemon.client("perfbench-metrics")
        before = metrics_client.metrics()
        measure.reset_peak_rss(daemon.proc.pid)
        self.attempted += len(self.plan["hits"]) + 2 * len(self.plan["sweeps"])
        threads = [threading.Thread(target=self._reader, args=(daemon,), name="reader"),
                   threading.Thread(target=self._sweeper, args=(daemon,), name="sweeper")]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.wall_s = time.perf_counter() - start
        after = metrics_client.metrics()
        self.counter_deltas = {name: after["jobs"].get(name, 0) - before["jobs"].get(name, 0)
                               for name in JOB_COUNTERS}
        self.cache_deltas = {name: after["cache"].get(name, 0) - before["cache"].get(name, 0)
                             for name in ("hits", "misses", "stores")}
        self.peak_rss = measure.peak_rss_mb(daemon.proc.pid)

    def verify_sweeps(self, limit: int) -> None:
        """Recompute the first *limit* sweeps in-process; digests must match."""
        for pair, digest in self.cold_digests[:limit]:
            self.attempted += 1
            if self._reference(pair) != digest:
                self._fail(f"sweep {pair} differs from the in-process run")

    def run(self) -> None:
        """Set-ups, then the timed loops -- once more on a fresh daemon if the
        hypervisor stole more than ``STEAL_LIMIT`` of the host meanwhile."""
        os.makedirs(self.work_dir, exist_ok=True)
        daemon = None
        try:
            daemon = self.setup()
            for attempt in range(MAX_ATTEMPTS):
                if self.failures:
                    break
                if attempt:
                    self._stop(daemon)
                    daemon = None
                    daemon = self._launch(f"retry{attempt}")
                before = measure.cpu_times()
                self.timed(daemon)
                self.attempts.append(measure.host_share(before, measure.cpu_times()))
                if self.attempts[-1]["steal"] <= STEAL_LIMIT:
                    break
        finally:
            if daemon is not None:
                self._stop(daemon)
        self.verify_sweeps(len(self.paths))
        if self.trace:
            self.in_process_layers()

    # ------------------------------------------------------------------ #
    def samples(self) -> Dict[str, List[float]]:
        """Every timed latency, per request kind, in completion order."""
        return {"hit": [latency for _traced, latency in self.hits], "cold": list(self.colds)}

    def end_to_end(self) -> Dict[str, Dict]:
        """The gated metrics; times at the reference host speed (raw kept)."""
        hits = [latency for traced, latency in self.hits if not traced]
        completed = len(self.hits) + 2 * len(self.colds)
        speed = self.calibration.speed()
        return {
            "serial_or_hit_p50_s": measure.at_reference_speed(
                measure.median(hits), "s", speed, n=len(hits), iqr_share=measure.iqr_share(hits)),
            "threads_or_cold_p50_s": measure.at_reference_speed(
                measure.median(self.colds), "s", speed, n=len(self.colds),
                iqr_share=measure.iqr_share(self.colds)),
            "jobs_per_s": measure.at_reference_speed(completed / self.wall_s, "1/s", speed,
                                                     n=completed),
            "peak_rss_mb": measure.at_reference_speed(self.peak_rss, "MB", speed),
            "setup_s": measure.at_reference_speed(measure.median(self.setup_s), "s", speed,
                                                  n=len(self.setup_s)),
            # printed and recorded beside the gated metrics: the hit tail by
            # the >= 10 samples-beyond rule
            "_hit_tail_s": measure.tail_percentile(hits),
        }

    def in_process_layers(self) -> None:
        """Time fingerprint, cache get/put, analysis and a traced cold run
        in this process, on the sweeper's first pairs (daemon stopped)."""
        import repro
        from repro.core.cache import ResultCache, compute_cache_key
        from repro.core.source import FileSource

        cache = ResultCache(os.path.join(self.work_dir, "cache-inprocess"))
        pipeline = repro.analysis(*ANALYZE)
        for index, pair in enumerate(self.plan["sweeps"][: 2 * len(self.paths)]):
            path, config = self.paths[pair[0]], self.configs[pair[1]]
            request = f"inproc{index}"
            result, report = traced_run(self.tracer, path, config, request)
            run = repro.RunResult(result=result, report=report, config=config)
            source = FileSource(path)
            start = time.perf_counter()
            fingerprint = source.fingerprint()
            fingerprint_s = time.perf_counter() - start
            key = compute_cache_key(fingerprint, config)
            start = time.perf_counter()
            stats = cache.put(key, run)
            put_s = time.perf_counter() - start
            start = time.perf_counter()
            hit = cache.get(key)
            get_s = time.perf_counter() - start
            start = time.perf_counter()
            pipeline.apply(run)
            apply_s = time.perf_counter() - start
            if hit is None or stats is None or hit.cache_stats.digest != measure.result_digest(result):
                self._fail(f"in-process cache round trip of {pair} failed")
                continue
            self.inproc_rows.append({
                **run_layers(self.tracer.request_spans(request), report, result),
                "fingerprint": fingerprint_s, "put": put_s, "get": get_s, "apply": apply_s,
                "entry_mb": os.path.getsize(stats.path) / 1e6,
            })

    def per_layer(self) -> Dict[str, float]:
        """Engine-side layers from the in-process runs, serve layers from
        client spans, the daemon's job timings and ``/metrics`` deltas."""
        def med(values) -> float:
            values = list(values)
            return measure.median(values) if values else 0.0

        def span_med(prefix: str, name: str) -> float:
            return med(s.duration for s in self.tracer.spans
                       if s.name == name and s.request and s.request.startswith(prefix))

        rows = self.inproc_rows
        traced_hits = [latency for traced, latency in self.hits if traced]
        plain_hits = [latency for traced, latency in self.hits if not traced]
        probes = self.cache_deltas.get("hits", 0) + self.cache_deltas.get("misses", 0)
        return {
            **engine_metrics(rows, measure.median),
            "source.fingerprint_s": med(row["fingerprint"] for row in rows),
            "cache.get_s": med(row["get"] for row in rows),
            "cache.put_s": med(row["put"] for row in rows),
            "cache.entry_mb": med(row["entry_mb"] for row in rows),
            "cache.hit_ratio": self.cache_deltas.get("hits", 0) / probes if probes else 0.0,
            "ops.apply_s": med(row["apply"] for row in rows),
            "serve.http_rtt_s": span_med("", "serve.poll"),
            "serve.admit_s": span_med("hit", "serve.submit"),
            "serve.fetch_s": span_med("hit", "serve.fetch"),
            "serve.queue_wait_s": med(t["queue_wait_s"] for t in self.cold_jobs),
            "serve.run_s": med(t["run_s"] for t in self.cold_jobs),
            "serve.polls_per_cold": sum(self.polls_per_cold) / max(1, len(self.colds)),
            "serve.computed": self.counter_deltas.get("computed", 0),
            "serve.collapsed": self.counter_deltas.get("collapsed", 0),
            "serve.rejected": self.counter_deltas.get("rejected", 0),
            "trace.overhead": (med(traced_hits) / med(plain_hits) - 1.0
                               if traced_hits and plain_hits else 0.0),
        }


_OFF = Tracer(enabled=False)
