"""The persistent shared thread pool behind every host-parallel run.

A multi-file batch must not pay executor start-up once per file, so the
pool is created lazily and reused across runs and files:

:class:`ThreadPool`
    A lazily created, fork-safe, reusable wrapper around
    ``ThreadPoolExecutor``.  The pool object survives across runs; the
    underlying executor is (re)spawned on first use and after a ``fork()``
    (threads do not survive it: only the calling thread exists in the
    child).

:func:`shared_thread_pool` / :func:`shutdown_shared_thread_pool`
    The session-wide pool every ``threads``-executor run reuses.
    Requesting more workers than it has widens it in place; a resize never
    cancels or shuts down work another run still holds.

The fused numpy kernels spend their time inside GIL-releasing ufunc loops,
so threads parallelise them without fork, pickling or shared-memory
round-trips.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, Optional

from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError

__all__ = [
    "ThreadPool",
    "shared_thread_pool",
    "shutdown_shared_thread_pool",
    "pools_snapshot",
    "shutdown_all",
]

_LOG = get_logger(__name__)


class ThreadPool:
    """A lazily created, reusable thread pool.

    Backs the ``threads`` executor.
    Threads do not survive ``fork()`` (only the calling thread exists in the
    child), so the executor is respawned when it was created in another
    process.

    ``n_spawns`` counts how many executors were ever created — the pool
    reuse tests assert it stays at one across many runs.
    """

    def __init__(self, max_workers: int):
        if int(max_workers) < 1:
            raise ValidationError("max_workers must be >= 1")
        self.max_workers = int(max_workers)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._pid: Optional[int] = None
        self._lock = threading.Lock()
        #: number of ThreadPoolExecutor spawns over this pool's lifetime
        self.n_spawns = 0
        #: number of tasks ever submitted
        self.n_submitted = 0
        #: tasks submitted but not yet finished (utilization snapshots)
        self._n_active = 0

    @property
    def alive(self) -> bool:
        """True when the underlying executor exists and belongs to this process."""
        return self._executor is not None and self._pid == os.getpid()

    def _ensure(self) -> ThreadPoolExecutor:
        with self._lock:
            if not self.alive:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="repro-worker"
                )
                self._pid = os.getpid()
                self.n_spawns += 1
                _LOG.debug(
                    "workerpool: spawned thread executor #%d (%d threads, pid %d)",
                    self.n_spawns, self.max_workers, self._pid,
                )
            return self._executor

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Submit a task, respawning the executor if it was shut down."""
        with self._lock:
            self.n_submitted += 1
        executor = self._ensure()
        try:
            future = executor.submit(fn, *args, **kwargs)
        except RuntimeError:
            # shut down concurrently (a widen or a teardown): one respawn
            # attempt, then surface; a replacement another thread already
            # spawned is kept
            with self._lock:
                if self._executor is executor:
                    self._executor = None
            future = self._ensure().submit(fn, *args, **kwargs)
        with self._lock:
            self._n_active += 1
        future.add_done_callback(self._untrack)
        return future

    def _untrack(self, _future: Future) -> None:
        with self._lock:
            self._n_active -= 1

    def utilization(self) -> Dict:
        """JSON-safe snapshot of pool state and load.

        The structured attribute-free surface long-lived consumers (the
        ``repro-serve`` ``/metrics`` endpoint) poll: current busy fraction
        next to the lifetime spawn/submit counters.  ``busy`` counts tasks
        in flight (queued or executing), so ``utilization`` can exceed 1.0
        when the submit rate outruns the workers — exactly the saturation
        signal a serving layer wants to expose.
        """
        with self._lock:
            active = self._n_active
        return {
            "kind": "threads",
            "max_workers": self.max_workers,
            "alive": self.alive,
            "busy": active,
            "utilization": active / self.max_workers,
            "n_spawns": self.n_spawns,
            "n_submitted": self.n_submitted,
        }

    def _widen(self, max_workers: int) -> None:
        """Raise the worker count in place.

        The next submit spawns an executor of the new width.  The current
        one is retired without cancelling anything: the tasks already queued
        on it still run, on its own threads, which then exit.
        """
        with self._lock:
            retired = self._executor if self._pid == os.getpid() else None
            self.max_workers = int(max_workers)
            self._executor = None
            self._pid = None
        if retired is not None:
            retired.shutdown(wait=False)

    def shutdown(self, wait: bool = True) -> None:
        """Shut the underlying executor down (the wrapper stays reusable)."""
        with self._lock:
            executor = self._executor if self._pid == os.getpid() else None
            self._executor = None
            self._pid = None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.alive else "idle"
        return f"ThreadPool(max_workers={self.max_workers}, {state}, spawns={self.n_spawns})"


# --------------------------------------------------------------------------- #
# the session-wide shared thread pool
_shared_threads: Optional[ThreadPool] = None
_shared_threads_lock = threading.Lock()
#: guards the one-way atexit latch below
_atexit_lock = threading.Lock()
_atexit_registered = False


def _register_atexit() -> None:
    global _atexit_registered
    with _atexit_lock:
        if not _atexit_registered:
            atexit.register(shutdown_shared_thread_pool)
            _atexit_registered = True


def shared_thread_pool(n_workers: int) -> ThreadPool:
    """The thread pool every ``threads``-executor run reuses.

    Created lazily, kept alive across runs and files, and shut down at
    interpreter exit.  It only grows: a request for more workers than it
    has widens it in place, and a request for fewer reuses it as is.  Runs
    of different widths may share it concurrently; each run's own bound on
    bands in flight (twice its width) still caps its concurrency.
    """
    global _shared_threads
    if int(n_workers) < 1:
        raise ValidationError("n_workers must be >= 1")
    _register_atexit()
    with _shared_threads_lock:
        if _shared_threads is None:
            _shared_threads = ThreadPool(int(n_workers))
        elif _shared_threads.max_workers < int(n_workers):
            _shared_threads._widen(int(n_workers))
        return _shared_threads


def shutdown_shared_thread_pool() -> None:
    """Tear down the shared thread pool."""
    global _shared_threads
    with _shared_threads_lock:
        if _shared_threads is not None:
            _shared_threads.shutdown(wait=True)
            _shared_threads = None


def pools_snapshot() -> Dict:
    """Utilization of the shared thread pool (``None`` when never spawned).

    One structured read for monitoring surfaces — the ``repro-serve``
    ``/metrics`` endpoint polls this instead of reaching into module
    globals.
    """
    with _shared_threads_lock:
        thread_pool = _shared_threads
    return {"thread_pool": None if thread_pool is None else thread_pool.utilization()}


def shutdown_all() -> None:
    """Tear down every shared resource: the shared thread pool.

    Idempotent by construction, because long-lived processes genuinely run
    it twice: the ``repro-serve`` daemon calls it at the end of a SIGTERM
    drain, and the atexit hook (registered the moment the pool existed)
    runs the same teardown again at interpreter exit.
    """
    shutdown_shared_thread_pool()
