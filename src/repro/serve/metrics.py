"""Serving metrics: counters, gauges, and per-stage latency percentiles.

One :class:`ServeMetrics` object per daemon; the ``/metrics`` endpoint
renders :meth:`ServeMetrics.to_dict` as JSON.  Latency series keep a
bounded reservoir of the most recent samples per stage (``queue_wait``,
``run``, ``total``) and compute percentiles on demand — recent-window
percentiles are what an operator tuning queue depth and worker count
actually needs, and the bound keeps a month-long daemon's memory flat.

Locks guard both the series and the counters because samples and counter
bumps can land from executor callbacks while ``/metrics`` snapshots from
the loop thread — ``+=`` on a dict entry is a read-modify-write, not an
atomic step.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, Iterable, List, Optional

__all__ = ["LatencySeries", "ServeMetrics", "percentile", "merge_counter_deltas"]

#: Samples kept per latency stage (recent-window percentiles).
DEFAULT_WINDOW = 2048


def percentile(sorted_values: List[float], q: float) -> float:
    """The *q*-quantile (0..1) of an already-sorted non-empty list.

    Nearest-rank definition (the one monitoring systems use): no
    interpolation, every reported value is a latency that actually
    happened.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty series")
    rank = max(1, min(len(sorted_values), int(round(q * len(sorted_values) + 0.5))))
    return sorted_values[rank - 1]


class LatencySeries:
    """A bounded reservoir of seconds with on-demand percentile snapshots."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        self._samples: "deque[float]" = deque(maxlen=int(window))
        self._count = 0
        self._total = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(float(seconds))
            self._count += 1
            self._total += float(seconds)

    def snapshot(self) -> Dict:
        """JSON-safe stats: lifetime count/mean plus windowed percentiles."""
        with self._lock:
            window = sorted(self._samples)
            count, total = self._count, self._total
        if not window:
            return {"count": 0, "mean_s": None, "p50_s": None, "p90_s": None,
                    "p99_s": None, "max_s": None}
        return {
            "count": count,
            "mean_s": total / count,
            "p50_s": percentile(window, 0.50),
            "p90_s": percentile(window, 0.90),
            "p99_s": percentile(window, 0.99),
            "max_s": window[-1],
        }


class ServeMetrics:
    """Everything the ``/metrics`` endpoint exposes, in one place.

    Counter semantics (each counts *jobs*, not HTTP requests):

    ``submitted``
        accepted submissions (every path: scheduled, cache hit, collapsed);
    ``rejected``
        submissions refused with 429 (queue at capacity);
    ``computed``
        jobs that actually executed on the pool — the number the
        collapse/cache tests pin down: N identical concurrent submissions
        must move ``submitted`` by N and ``computed`` by exactly 1;
    ``cache_hits``
        jobs completed at admission from the result cache;
    ``collapsed``
        jobs completed by attaching to an identical in-flight computation;
    ``completed`` / ``failed`` / ``cancelled`` / ``timeouts``
        terminal accounting; ``completed`` includes hits and collapses.
    """

    COUNTERS = (
        "submitted", "rejected", "computed", "cache_hits", "collapsed",
        "completed", "failed", "cancelled", "timeouts",
    )

    def __init__(self, window: int = DEFAULT_WINDOW):
        self.started_unix = time.time()
        # guards ``counts`` — bumps arrive from pool-side done-callbacks
        # while the loop thread snapshots, and `+=` is not atomic
        self._lock = threading.Lock()
        self.counts: Dict[str, int] = {name: 0 for name in self.COUNTERS}
        self.latency = {
            "queue_wait": LatencySeries(window),
            "run": LatencySeries(window),
            "total": LatencySeries(window),
        }

    # ------------------------------------------------------------------ #
    def inc(self, name: str, by: int = 1) -> None:
        with self._lock:
            self.counts[name] += by

    def record_latency(self, stage: str, seconds: Optional[float]) -> None:
        if seconds is not None:
            self.latency[stage].record(seconds)

    def record_job_latencies(self, job) -> None:
        """Record every stage a terminal job measured (None stages skipped)."""
        self.record_latency("queue_wait", job.queue_wait_s)
        self.record_latency("run", job.run_s)
        self.record_latency("total", job.total_s)

    # ------------------------------------------------------------------ #
    def to_dict(
        self,
        queue_snapshot: Optional[Dict] = None,
        inflight: int = 0,
        cache_counters: Optional[Dict] = None,
        pools: Optional[Dict] = None,
        draining: bool = False,
        extra: Optional[Dict] = None,
    ) -> Dict:
        """The full ``/metrics`` JSON document."""
        with self._lock:
            jobs = dict(self.counts)  # one coherent snapshot of every counter
        submitted = jobs["submitted"]
        served_fast = jobs["cache_hits"] + jobs["collapsed"]
        out = {
            "uptime_s": time.time() - self.started_unix,
            "draining": draining,
            "jobs": jobs,
            "inflight": inflight,
            "queue": queue_snapshot or {},
            "cache": cache_counters or {},
            "singleflight": {
                "collapsed": jobs["collapsed"],
                "admission_hits": jobs["cache_hits"],
                #: fraction of accepted jobs that never touched the pool
                "fast_path_rate": (served_fast / submitted) if submitted else None,
            },
            "latency": {name: series.snapshot() for name, series in self.latency.items()},
            "pools": pools or {},
        }
        if extra:
            out.update(extra)
        return out


def merge_counter_deltas(before: Dict, after: Dict, names: Iterable[str]) -> Dict:
    """``after - before`` for the named counters (benchmark/test helper)."""
    return {name: after[name] - before[name] for name in names}
