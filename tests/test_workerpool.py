"""Tests for the persistent shared thread pool.

The lifecycle guarantees the host-parallel layer rests on:

* one ``ThreadPoolExecutor`` spawn serves many submissions (pool reuse);
* a pool inherited through ``fork()`` or shut down underneath is lazily
  re-initialised, never reused;
* the shared pool is reused across runs and only grows: widening it keeps
  the work already queued on it (runs of two widths sharing it concurrently
  are hammered in ``test_threaded_executor.py``);
* the structured utilization views the ``repro-serve`` ``/metrics``
  endpoint polls.
"""

import threading

import pytest

from repro.core.workerpool import (
    ThreadPool,
    pools_snapshot,
    shared_thread_pool,
    shutdown_all,
)
from repro.utils.validation import ValidationError


def _square(x):
    return x * x


@pytest.fixture(autouse=True)
def _clean_shared_pool():
    """Each test starts and ends without a lingering shared pool."""
    shutdown_all()
    yield
    shutdown_all()


# --------------------------------------------------------------------------- #
class TestWorkerPool:
    def test_lazy_spawn_and_reuse(self):
        pool = ThreadPool(2)
        assert not pool.alive and pool.n_spawns == 0
        futures = [pool.submit(_square, n) for n in range(5)]
        assert [f.result() for f in futures] == [0, 1, 4, 9, 16]
        assert pool.alive
        assert pool.n_spawns == 1  # one executor served every submit
        pool.shutdown()
        assert not pool.alive

    def test_invalid_worker_count(self):
        with pytest.raises(ValidationError):
            ThreadPool(0)
        with pytest.raises(ValidationError):
            shared_thread_pool(0)

    def test_fork_safe_lazy_reinit(self):
        """A pool whose executor belongs to another process is respawned."""
        pool = ThreadPool(2)
        assert pool.submit(_square, 3).result() == 9
        pool._pid = pool._pid + 1  # simulate: this object crossed a fork()
        assert not pool.alive
        assert pool.submit(_square, 4).result() == 16
        assert pool.n_spawns == 2
        pool.shutdown()

    def test_broken_pool_respawns_on_next_use(self):
        """An executor shut down underneath the pool is replaced on submit."""
        pool = ThreadPool(2)
        assert pool.submit(_square, 2).result() == 4
        pool._executor.shutdown(wait=True)
        assert pool.submit(_square, 5).result() == 25
        assert pool.n_spawns == 2
        pool.shutdown()


class TestSharedPool:
    def test_shared_pool_is_reused(self):
        a = shared_thread_pool(2)
        b = shared_thread_pool(2)
        assert a is b

    def test_widening_keeps_queued_work(self):
        """A wider request grows the pool in place; a task already queued on
        it still runs instead of being cancelled."""
        pool = shared_thread_pool(2)
        gate = threading.Event()
        parked = [pool.submit(gate.wait, 30) for _ in range(2)]
        queued = pool.submit(_square, 7)
        widened = []
        resizer = threading.Thread(target=lambda: widened.append(shared_thread_pool(3)))
        resizer.start()
        resizer.join(timeout=1.0)  # the resize reaches the pool while the queue is held
        gate.set()
        resizer.join(timeout=30)
        assert not resizer.is_alive()
        assert queued.result(timeout=30) == 49
        assert all(future.result(timeout=30) for future in parked)
        assert widened == [pool] and pool.max_workers == 3
        assert shared_thread_pool(2) is pool  # a narrower request reuses it


# --------------------------------------------------------------------------- #
class TestUtilizationSnapshots:
    """The structured monitoring views the serve /metrics endpoint polls."""

    def test_worker_pool_utilization_shape_and_counts(self):
        pool = ThreadPool(2)
        snap = pool.utilization()
        assert snap == {"kind": "threads", "max_workers": 2, "alive": False,
                        "busy": 0, "utilization": 0.0, "n_spawns": 0,
                        "n_submitted": 0}
        assert [pool.submit(_square, n).result() for n in range(3)] == [0, 1, 4]
        snap = pool.utilization()
        assert snap["alive"] and snap["n_spawns"] == 1 and snap["n_submitted"] == 3
        pool.shutdown()

    def test_thread_pool_tracks_busy_jobs(self):
        pool = ThreadPool(2)
        gate = threading.Event()
        futures = [pool.submit(gate.wait, 30) for _ in range(2)]
        for _ in range(200):  # both workers must report busy while parked
            if pool.utilization()["busy"] == 2:
                break
            threading.Event().wait(0.01)
        snap = pool.utilization()
        assert snap["kind"] == "threads"
        assert snap["busy"] == 2 and snap["utilization"] == 1.0
        gate.set()
        assert all(f.result() for f in futures)
        for _ in range(200):  # and idle again once the gate opens
            if pool.utilization()["busy"] == 0:
                break
            threading.Event().wait(0.01)
        assert pool.utilization()["busy"] == 0
        pool.shutdown()

    def test_pools_snapshot_reflects_shared_pools(self):
        assert pools_snapshot() == {"thread_pool": None}
        shared_thread_pool(2).submit(_square, 4).result()
        snapshot = pools_snapshot()
        assert snapshot["thread_pool"]["kind"] == "threads"
        assert snapshot["thread_pool"]["max_workers"] == 2
        assert snapshot["thread_pool"]["n_submitted"] == 1
        shutdown_all()
        assert pools_snapshot() == {"thread_pool": None}

    def test_utilization_counts_failures_too(self):
        pool = ThreadPool(1)
        future = pool.submit(_square, "not-a-number")
        with pytest.raises(TypeError):
            future.result()
        snap = pool.utilization()
        assert snap["n_submitted"] == 1 and snap["busy"] == 0  # untracked on error
        pool.shutdown()
