"""``repro-serve``: the asyncio HTTP daemon that serves reconstructions.

The library already owns every expensive piece — a persistent
:class:`~repro.core.workerpool.ThreadPool`, a content-addressed
:class:`~repro.core.cache.ResultCache` with bitwise-verified hits, full
provenance on every run.  This module is the thin long-lived shell that
turns them into a service:

* **stdlib-only networking** — ``asyncio.start_server`` plus a minimal
  HTTP/1.1 request parser.  No framework, no dependency, one connection per
  request (``Connection: close``), JSON in and out.
* **cache-first admission** — a submission whose
  ``(source fingerprint, config, version)`` key (exactly
  :meth:`Session.cache_key`) hits the cache completes at admission, never
  touching the queue or the pool; identical *in-flight* requests collapse
  onto one computation through a single-flight table keyed the same way.
* **bounded fair queue** — :class:`~repro.serve.queue.FairPriorityQueue`;
  at capacity submissions get ``429`` with a ``Retry-After`` estimated from
  the recent run-latency window.
* **never block the event loop** — admission probes (fingerprint + cache
  load) run on a small admission executor, computations on a compute
  executor sized to ``workers``; the loop only routes, queues and accounts.
* **graceful drain** — SIGTERM/SIGINT flip the daemon into draining mode
  (submissions get 503), in-flight and queued jobs finish inside
  ``drain_timeout_s``, stragglers are failed loudly, and
  :func:`~repro.core.workerpool.shutdown_all` tears down the shared thread
  pool idempotently (atexit runs it again, by design).

Endpoints
---------
=====================  ======================================================
``POST /v1/jobs``       submit (``202``; ``429`` full; ``503`` draining)
``GET /v1/jobs/<id>``   job status
``GET /v1/jobs/<id>/result``  result record (``202`` while pending)
``DELETE /v1/jobs/<id>``      cancel a queued job
``GET /metrics``        queue/cache/single-flight/latency/pool snapshot
``GET /healthz``        liveness (``{"ok": true, ...}``)
=====================  ======================================================
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import math
import os
import signal
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.cache import ResultCache, resolve_cache
from repro.core.session import RunResult, Session
from repro.core.workerpool import pools_snapshot, shutdown_all
from repro.serve.jobs import Job, JobState, parse_submission
from repro.serve.metrics import ServeMetrics
from repro.serve.queue import FairPriorityQueue, QueueFull
from repro.utils.logging import get_logger, request_context
from repro.utils.validation import ValidationError
from repro.utils.version import package_version

__all__ = ["ServeSettings", "ReproServer", "ServerHandle", "start_in_thread", "run_server"]

_LOG = get_logger(__name__)

#: Largest accepted request body (a submission is small JSON).
MAX_BODY_BYTES = 1 << 20

#: Terminal jobs remembered for status/result queries before eviction.
TERMINAL_JOBS_KEPT = 10_000


@dataclass
class ServeSettings:
    """Tuning knobs of one daemon instance (see README *Serving*)."""

    host: str = "127.0.0.1"
    port: int = 8750
    #: concurrent computations (compute-executor width)
    workers: int = 2
    #: bounded admission-queue depth (beyond it: 429 + Retry-After)
    queue_depth: int = 64
    #: default per-job wall-clock budget (a submission may override)
    job_timeout_s: float = 300.0
    #: budget for finishing queued + in-flight jobs on SIGTERM
    drain_timeout_s: float = 30.0
    #: Retry-After floor when the queue rejects (seconds)
    retry_after_s: float = 1.0
    #: ``cache=`` in :func:`~repro.core.cache.resolve_cache` form;
    #: ``True`` (default root) makes cache-first admission the default
    cache: object = True
    resolved_cache: Optional[ResultCache] = field(init=False, default=None)

    def __post_init__(self):
        if int(self.workers) < 1:
            raise ValidationError("workers must be >= 1")
        if int(self.queue_depth) < 1:
            raise ValidationError("queue_depth must be >= 1")
        if float(self.job_timeout_s) <= 0:
            raise ValidationError("job_timeout_s must be positive")
        self.resolved_cache = resolve_cache(self.cache)


class ReproServer:
    """One serving daemon: HTTP front end, queue, executors, metrics."""

    def __init__(self, settings: Optional[ServeSettings] = None):
        self.settings = settings or ServeSettings()
        self.cache = self.settings.resolved_cache
        self.metrics = ServeMetrics()
        self._queue = FairPriorityQueue(self.settings.queue_depth)
        #: single-flight table: cache key -> the in-flight leader job
        self._inflight: Dict[str, Job] = {}
        self._jobs: Dict[str, Job] = {}
        self._terminal_order: "deque[str]" = deque()
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker_tasks = []
        self._n_running = 0
        self._draining = False
        self._shutdown_event: Optional[asyncio.Event] = None
        # admission probes (fingerprint + cache load) must not wait behind
        # long computations, so they get their own tiny executor
        self._compute_executor = ThreadPoolExecutor(
            max_workers=self.settings.workers, thread_name_prefix="repro-serve-compute"
        )
        self._admission_executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-serve-admit"
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    @property
    def port(self) -> int:
        """The bound port (authoritative after :meth:`start` with port 0)."""
        if self._server is None or not self._server.sockets:
            return self.settings.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "ReproServer":
        """Bind the listening socket and start the worker tasks."""
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.settings.host, port=self.settings.port
        )
        for _ in range(self.settings.workers):
            self._worker_tasks.append(asyncio.create_task(self._worker_loop()))
        _LOG.info(
            "repro-serve listening on http://%s:%d (workers=%d queue=%d cache=%s)",
            self.settings.host, self.port, self.settings.workers,
            self.settings.queue_depth,
            self.cache.root if self.cache is not None else "off",
        )
        return self

    def request_shutdown(self) -> None:
        """Flip into draining mode (idempotent; safe from signal handlers)."""
        if self._shutdown_event is not None and not self._shutdown_event.is_set():
            _LOG.info("repro-serve: shutdown requested, draining")
            self._draining = True
            self._shutdown_event.set()

    async def run(self, install_signal_handlers: bool = True) -> None:
        """Serve until SIGTERM/SIGINT (or :meth:`request_shutdown`), then drain."""
        await self.start()
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-main thread / platform without loop signals
        await self._shutdown_event.wait()
        await self.drain()

    async def drain(self) -> None:
        """Finish queued + in-flight work, then tear everything down.

        Jobs still unfinished at ``drain_timeout_s`` are failed loudly
        ("server shutting down"), never silently dropped.  The final
        :func:`shutdown_all` is idempotent on purpose: the interpreter's
        atexit hooks run the same teardown again after SIGTERM-initiated
        exits, and both invocations must be safe.
        """
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.settings.drain_timeout_s
        while (len(self._queue) or self._n_running) and loop.time() < deadline:
            await asyncio.sleep(0.02)
        # past the deadline: fail whatever never got its turn
        while True:
            job = self._queue._pop_live()
            if job is None:
                break
            self._fail_job(job, "server shutting down before the job could run")
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._compute_executor.shutdown(wait=True, cancel_futures=True)
        self._admission_executor.shutdown(wait=True, cancel_futures=True)
        shutdown_all()
        _LOG.info("repro-serve: drained and shut down")

    # ------------------------------------------------------------------ #
    # HTTP front end (stdlib-only minimal HTTP/1.1)
    async def _handle_connection(self, reader, writer) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                status, payload, headers = 400, {"error": "malformed HTTP request"}, {}
            else:
                method, path, body = request
                status, payload, headers = await self._route(method, path, body)
        except _HttpError as exc:
            status, payload, headers = exc.status, {"error": exc.message}, {}
        except Exception as exc:  # a handler bug must not kill the daemon
            _LOG.exception("repro-serve: internal error handling request")
            status, payload, headers = 500, {"error": f"{type(exc).__name__}: {exc}"}, {}
        try:
            writer.write(_render_response(status, payload, headers))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):  # client went away mid-reply
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    @staticmethod
    async def _read_request(reader) -> Optional[Tuple[str, str, Optional[Dict]]]:
        """Parse request line + headers + JSON body; None on malformed framing."""
        try:
            request_line = await reader.readline()
        except (ValueError, ConnectionError):
            return None
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            return None
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1", "replace").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return None
        if content_length > MAX_BODY_BYTES:
            # drain (bounded) before rejecting: closing with unread bytes in
            # the socket makes the kernel RST the connection, and the peer —
            # still mid-send — sees EPIPE instead of this 413
            remaining = min(content_length, 8 * MAX_BODY_BYTES)
            while remaining > 0:
                chunk = await reader.read(min(remaining, 1 << 16))
                if not chunk:
                    break
                remaining -= len(chunk)
            raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body: Optional[Dict] = None
        if content_length:
            raw = await reader.readexactly(content_length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise _HttpError(400, f"request body is not valid JSON: {exc}") from None
        return method, path, body

    async def _route(self, method: str, path: str, body) -> Tuple[int, Dict, Dict]:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/v1/jobs":
            if method != "POST":
                raise _HttpError(405, "use POST to submit jobs")
            return await self._submit(body)
        if path.startswith("/v1/jobs/"):
            tail = path[len("/v1/jobs/"):]
            job_id, _, sub = tail.partition("/")
            job = self._jobs.get(job_id)
            if job is None:
                raise _HttpError(404, f"unknown job {job_id!r}")
            if sub == "" and method == "GET":
                return 200, {"job": job.status_dict()}, {}
            if sub == "" and method == "DELETE":
                return self._cancel(job)
            if sub == "result" and method == "GET":
                return self._result(job)
            raise _HttpError(405 if sub in ("", "result") else 404, "unsupported job operation")
        if path == "/metrics" and method == "GET":
            return 200, self._metrics_document(), {}
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True, "draining": self._draining,
                         "version": package_version()}, {}
        raise _HttpError(404, f"no route for {method} {path}")

    # ------------------------------------------------------------------ #
    # admission: cache first, then single-flight, then the queue
    async def _submit(self, body) -> Tuple[int, Dict, Dict]:
        if self._draining:
            raise _HttpError(503, "server is draining; resubmit elsewhere")
        try:
            job = parse_submission(body)
        except ValidationError as exc:
            raise _HttpError(400, str(exc)) from None

        loop = asyncio.get_running_loop()
        if self.cache is not None:
            session = Session(config=job.config)
            context = contextvars.copy_context()
            job.key = await loop.run_in_executor(
                self._admission_executor, context.run, session.cache_key, job.source_path
            )
        if job.key is not None:
            outcome = await loop.run_in_executor(
                self._admission_executor, self._probe_cache, job
            )
            if outcome is not None:
                self._register(job)
                job.finish_ok(outcome, served="cache")
                self.metrics.inc("submitted")
                self.metrics.inc("cache_hits")
                self.metrics.inc("completed")
                self.metrics.record_latency("total", job.total_s)
                self._remember_terminal(job)
                _LOG.info("admitted %s from cache (key %s)", job.id, job.key[:12])
                return 202, {"job": job.status_dict(), "dedup": "hit"}, {}
            # no awaits between this check and registration below: the
            # single-flight decision is atomic on the event loop
            leader = self._inflight.get(job.key)
            if leader is not None:
                job.leader = leader
                leader.followers.append(job)
                self._register(job)
                self.metrics.inc("submitted")
                self.metrics.inc("collapsed")
                _LOG.info("collapsed %s onto in-flight %s", job.id, leader.id)
                return 202, {"job": job.status_dict(), "dedup": "collapsed"}, {}
        try:
            self._queue.put_nowait(job)
        except QueueFull:
            self.metrics.inc("rejected")
            retry_after = self._retry_after_estimate()
            return (
                429,
                {"error": f"queue at capacity ({self.settings.queue_depth})",
                 "retry_after_s": retry_after},
                {"Retry-After": str(retry_after)},
            )
        if job.key is not None:
            self._inflight[job.key] = job
        self._register(job)
        self.metrics.inc("submitted")
        return 202, {"job": job.status_dict(), "dedup": "scheduled"}, {}

    def _probe_cache(self, job: Job) -> Optional[Dict]:
        """Cache-load *job*'s result (worker thread); None on miss."""
        with request_context(job_id=job.id, client_id=job.client):
            run = self.cache.get(job.key)
            if run is None:
                return None
            return self._outcome_record(run, job)

    def _retry_after_estimate(self) -> int:
        """Seconds until a queue slot plausibly frees up.

        Little's-law estimate from the recent run-latency window: a full
        queue of D jobs over W workers drains in roughly ``D * mean_run / W``
        seconds; floored at the configured minimum so clients never busy-spin.
        """
        run_stats = self.metrics.latency["run"].snapshot()
        estimate = self.settings.retry_after_s
        if run_stats["mean_s"]:
            estimate = max(
                estimate,
                len(self._queue) * run_stats["mean_s"] / self.settings.workers,
            )
        return int(math.ceil(estimate))

    # ------------------------------------------------------------------ #
    # execution
    async def _worker_loop(self) -> None:
        while True:
            job = await self._queue.get()
            # no await between get() and mark_running(): cancellation of a
            # popped-but-unstarted job cannot interleave
            job.mark_running()
            self._n_running += 1
            try:
                await self._execute(job)
            finally:
                self._n_running -= 1

    async def _execute(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        timeout = job.timeout_s or self.settings.job_timeout_s
        job.attempts += 1
        context = contextvars.copy_context()
        future = loop.run_in_executor(
            self._compute_executor, context.run, self._compute, job
        )
        # asyncio.wait, not wait_for: a thread cannot be preempted, and
        # wait_for would block on the uncancellable future until the
        # computation ended anyway.  On timeout the job fails now and the
        # orphaned computation finishes in the background (its cache
        # store still lands, so a resubmit becomes a hit).
        try:
            done, _pending = await asyncio.wait({future}, timeout=timeout)
        except asyncio.CancelledError:
            self._fail_job(job, "server shutting down mid-job")
            raise
        if not done:
            self.metrics.inc("timeouts")
            future.add_done_callback(_log_orphaned_outcome)
            self._fail_job(job, f"timed out after {timeout:.1f}s")
            return
        try:
            # the future is in asyncio.wait's done set: result() returns
            # immediately, it cannot block the loop here
            outcome = done.pop().result()  # repro-lint: ignore[async-purity]
        except asyncio.CancelledError:
            self._fail_job(job, "server shutting down mid-job")
            raise
        except Exception as exc:
            self._fail_job(job, f"{type(exc).__name__}: {exc}")
            return
        self.metrics.inc("computed")
        self._finish_job(job, outcome)

    def _compute(self, job: Job) -> Dict:
        """One cold reconstruction + optional analysis (compute thread)."""
        with request_context(job_id=job.id, client_id=job.client):
            _LOG.debug("computing %s (%s)", job.id, job.source_path)
            session = Session(config=job.config)
            # admission already established the miss; run cold and store
            # under the precomputed key (the run_many idiom)
            run = session.run(job.source_path, cache=False)
            if job.key is not None and self.cache is not None:
                self.cache.put(job.key, run)
            return self._outcome_record(run, job)

    def _outcome_record(self, run: RunResult, job: Job) -> Dict:
        """The JSON-safe result record served to the client."""
        analysis = None
        if job.pipeline is not None:
            analysis = run._apply_analysis(job.pipeline)  # memoized when cache-bound
        return {
            "provenance": run.provenance(),
            "cache": None if run.cache_stats is None else run.cache_stats.to_dict(),
            "analysis": None if analysis is None else analysis.to_dict(),
        }

    # ------------------------------------------------------------------ #
    # terminal accounting (leader + collapsed followers)
    def _finish_job(self, job: Job, outcome: Dict) -> None:
        job.finish_ok(outcome, served="computed")
        self.metrics.inc("completed")
        self.metrics.record_job_latencies(job)
        self._settle(job)
        for follower in job.followers:
            follower.finish_ok(outcome, served="collapsed")
            self.metrics.inc("completed")
            self.metrics.record_latency("total", follower.total_s)
            self._remember_terminal(follower)
        _LOG.info(
            "job %s done in %.3fs (%d collapsed request(s) served)",
            job.id, job.run_s or 0.0, len(job.followers),
        )

    def _fail_job(self, job: Job, error: str) -> None:
        job.finish_error(error)
        self.metrics.inc("failed")
        self.metrics.record_job_latencies(job)
        self._settle(job)
        for follower in job.followers:
            follower.finish_error(f"collapsed onto {job.id}, which failed: {error}")
            self.metrics.inc("failed")
            self._remember_terminal(follower)
        _LOG.warning("job %s failed: %s", job.id, error)

    def _settle(self, job: Job) -> None:
        """Pop the single-flight entry and remember the terminal job."""
        if job.key is not None and self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        self._remember_terminal(job)

    def _register(self, job: Job) -> None:
        self._jobs[job.id] = job

    def _remember_terminal(self, job: Job) -> None:
        """Bound the terminal-job memory of a long-lived daemon."""
        self._terminal_order.append(job.id)
        while len(self._terminal_order) > TERMINAL_JOBS_KEPT:
            evicted = self._terminal_order.popleft()
            old = self._jobs.get(evicted)
            if old is not None and old.state.is_terminal:
                del self._jobs[evicted]

    # ------------------------------------------------------------------ #
    # cancel / result / metrics
    def _cancel(self, job: Job) -> Tuple[int, Dict, Dict]:
        if job.state is JobState.QUEUED:
            if job.leader is not None:
                job.leader.followers.remove(job)
                job.cancel()
                self.metrics.inc("cancelled")
                self._remember_terminal(job)
                return 200, {"job": job.status_dict()}, {}
            if job.followers:
                raise _HttpError(
                    409, "other requests collapsed onto this computation; not cancellable"
                )
            job.cancel()
            self._queue.cancel(job)
            if job.key is not None and self._inflight.get(job.key) is job:
                del self._inflight[job.key]
            self.metrics.inc("cancelled")
            self._remember_terminal(job)
            return 200, {"job": job.status_dict()}, {}
        raise _HttpError(
            409,
            f"job is {job.state.value}; only queued jobs can be cancelled "
            "(running reconstructions are never preempted)",
        )

    @staticmethod
    def _result(job: Job) -> Tuple[int, Dict, Dict]:
        if job.state is JobState.DONE:
            return 200, {"job": job.status_dict(), "result": job.outcome}, {}
        if job.state.is_terminal:  # failed or cancelled
            raise _HttpError(409, f"job is {job.state.value}: {job.error or 'no result'}")
        return 202, {"job": job.status_dict()}, {}

    def _metrics_document(self) -> Dict:
        return self.metrics.to_dict(
            queue_snapshot=self._queue.snapshot(),
            inflight=self._n_running,
            cache_counters=self.cache.counters() if self.cache is not None else None,
            pools=pools_snapshot(),
            draining=self._draining,
            extra={
                "version": package_version(),
                "singleflight_keys": len(self._inflight),
                "cache_root": self.cache.root if self.cache is not None else None,
            },
        )


# --------------------------------------------------------------------------- #
# plumbing
def _log_orphaned_outcome(future) -> None:
    """Consume (and log) the eventual outcome of a timed-out computation."""
    exc = future.exception()
    if exc is not None:
        _LOG.warning("timed-out job's orphaned computation failed: %s", exc)
    else:
        _LOG.info("timed-out job's orphaned computation finished (result cached)")


class _HttpError(Exception):
    """Routed straight to an HTTP error response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


def _render_response(status: int, payload: Dict, headers: Dict) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Response')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


# --------------------------------------------------------------------------- #
# embedding helpers (tests, benchmarks, examples)
class ServerHandle:
    """A daemon running on a background thread, stoppable from the caller."""

    def __init__(self, server: ReproServer, loop, thread: threading.Thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def base_url(self) -> str:
        return f"http://{self.server.settings.host}:{self.port}"

    def stop(self, timeout: float = 30.0) -> None:
        """Request a graceful drain and join the server thread (idempotent)."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - drain wedged
            raise RuntimeError("repro-serve thread did not stop in time")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(settings: Optional[ServeSettings] = None, timeout: float = 15.0) -> ServerHandle:
    """Boot a daemon on a background thread; returns once it is listening.

    The embedded twin of :func:`run_server` — benchmarks, tests and
    examples drive a real HTTP daemon in-process (``port=0`` picks a free
    port; read it off ``handle.port``).  Signal handlers are not installed
    (they belong to the main thread); stop with :meth:`ServerHandle.stop`.
    """
    started = threading.Event()
    holder: Dict = {}

    def _runner() -> None:
        async def _main() -> None:
            server = ReproServer(settings)
            try:
                await server.start()
            except Exception as exc:
                holder["error"] = exc
                started.set()
                return
            holder["server"] = server
            holder["loop"] = asyncio.get_running_loop()
            started.set()
            await server._shutdown_event.wait()
            await server.drain()

        asyncio.run(_main())

    thread = threading.Thread(target=_runner, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout):
        raise RuntimeError("repro-serve did not start in time")
    if "error" in holder:
        thread.join(timeout=5.0)
        raise holder["error"]
    return ServerHandle(holder["server"], holder["loop"], thread)


def run_server(settings: Optional[ServeSettings] = None) -> int:
    """Blocking daemon entry point (the ``repro-serve`` CLI body)."""
    # the daemon's pools/arenas are cleaned both by drain() and by atexit;
    # both paths must be (and are) idempotent
    asyncio.run(ReproServer(settings).run())
    return 0


def default_workers() -> int:
    """Compute-executor width when the CLI names none: one per CPU, min 2."""
    return max(2, min(4, os.cpu_count() or 1))
