"""Bounded, fair, prioritized admission queue for the serve daemon.

Three properties the raw ``asyncio.PriorityQueue`` does not give:

**Bounded depth with loud rejection.**
    A serving process must shed load it cannot absorb; an unbounded queue
    converts overload into unbounded latency and memory.  :meth:`put_nowait`
    raises :class:`QueueFull` when the live depth is at capacity, and the
    HTTP layer turns that into ``429 Retry-After`` — backpressure the client
    can act on.

**Per-client fairness.**
    Jobs are ordered by ``(priority, client_rank, seq)`` where
    ``client_rank`` is the number of jobs the submitting client already had
    queued at submit time.  A client that dumps 50 jobs occupies ranks
    0–49; a second client's first job enters at rank 0 and is served ahead
    of the backlog — round-robin-ish interleaving without a scheduler
    thread, the classic fair-queueing trick of ranking by per-flow backlog.

**Cheap cancellation.**
    Cancelling a queued job just flips its state; the heap entry is lazily
    skipped at pop time (the standard heapq tombstone idiom), so cancel is
    O(1) and never reshuffles the heap.

Single event loop only: every method must be called from the loop thread
(the daemon's handlers and workers all live there), so no locks are needed —
the async mutual exclusion is the loop itself.
"""

from __future__ import annotations

import asyncio
import heapq
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.serve.jobs import Job, JobState

__all__ = ["QueueFull", "FairPriorityQueue"]


class QueueFull(Exception):
    """Raised by :meth:`FairPriorityQueue.put_nowait` at capacity."""


class FairPriorityQueue:
    """The bounded fair priority queue described in the module docstring.

    Lower ``priority`` values are served first (``0`` is the default;
    negative values jump the line, positive values yield it — ``nice``
    semantics).
    """

    def __init__(self, depth: int):
        if int(depth) < 1:
            raise ValueError("queue depth must be >= 1")
        self.depth = int(depth)
        self._heap: List[Tuple[Tuple[int, int, int], Job]] = []
        self._pending_per_client: Dict[str, int] = defaultdict(int)
        self._live = 0
        # created lazily on the loop: on 3.9 an Event binds its loop at
        # construction, and the queue is built before the daemon's loop runs;
        # the annotation is honest about that window — only _wakeup() may
        # touch this attribute, and it narrows the Optional away
        self._not_empty: Optional[asyncio.Event] = None
        #: lifetime counters (metrics)
        self.n_enqueued = 0
        self.n_rejected = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Live (non-cancelled) queued jobs."""
        return self._live

    def put_nowait(self, job: Job) -> None:
        """Enqueue *job* or raise :class:`QueueFull` (the 429 path)."""
        if self._live >= self.depth:
            self.n_rejected += 1
            raise QueueFull(f"queue at capacity ({self.depth} jobs)")
        rank = self._pending_per_client[job.client]
        heapq.heappush(self._heap, ((job.priority, rank, job.seq), job))
        self._pending_per_client[job.client] += 1
        self._live += 1
        self.n_enqueued += 1
        self._wakeup().set()

    def _wakeup(self) -> asyncio.Event:
        event = self._not_empty
        if event is None:
            # loop-confined: every queue method runs on the event loop
            # thread (start_in_thread's worker *is* that thread), so the
            # lazy Event creation can never race another writer
            # repro-lint: ignore[thread-escape]
            event = self._not_empty = asyncio.Event()
        return event

    async def get(self) -> Job:
        """The next live job in ``(priority, fairness rank, seq)`` order."""
        while True:
            job = self._pop_live()
            if job is not None:
                return job
            event = self._wakeup()
            event.clear()
            await event.wait()

    def _pop_live(self):
        while self._heap:
            _key, job = heapq.heappop(self._heap)
            if job.state is not JobState.QUEUED:
                continue  # tombstone: cancelled while queued, already uncounted
            self._account_removed(job)
            return job
        return None

    def cancel(self, job: Job) -> None:
        """Tombstone a queued *job* (caller flips the job state)."""
        self._account_removed(job)

    def _account_removed(self, job: Job) -> None:
        # loop-confined (see _wakeup): get()/cancel() callers all run on
        # the event loop thread, never on pool workers
        # repro-lint: ignore[thread-escape]
        self._live -= 1
        remaining = self._pending_per_client[job.client] - 1
        if remaining > 0:
            # repro-lint: ignore[thread-escape]
            self._pending_per_client[job.client] = remaining
        else:
            # drop exhausted clients so the dict cannot grow with client churn
            self._pending_per_client.pop(job.client, None)

    def snapshot(self) -> Dict:
        """JSON-safe queue state for the ``/metrics`` endpoint."""
        return {
            "depth": self._live,
            "capacity": self.depth,
            "clients_waiting": len(self._pending_per_client),
            "n_enqueued": self.n_enqueued,
            "n_rejected": self.n_rejected,
        }
