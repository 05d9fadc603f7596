"""Unit tests for the serve building blocks: queue, metrics, job parsing.

The e2e daemon tests live in ``test_serve_http.py``; here every component
is exercised in isolation — the fair-queueing order, the bounded-depth 429
path, tombstone cancellation, nearest-rank percentiles, the /metrics
document shape, and submission validation.
"""

import asyncio
import json

import pytest

import repro
from repro.core.config import ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.io.image_stack import save_wire_scan
from repro.serve.jobs import Job, JobState, parse_submission
from repro.serve.metrics import LatencySeries, ServeMetrics, percentile
from repro.serve.queue import FairPriorityQueue, QueueFull
from repro.utils.validation import ValidationError

from tests.helpers import make_tiny_stack


def _job(client="c", priority=0):
    return Job(client=client, source_path="/dev/null", config=None, priority=priority)


def _drain(queue, n):
    async def _pop_all():
        return [await queue.get() for _ in range(n)]

    return asyncio.run(_pop_all())


# --------------------------------------------------------------------------- #
class TestFairPriorityQueue:
    def test_fifo_within_one_client(self):
        queue = FairPriorityQueue(depth=8)
        jobs = [_job() for _ in range(4)]
        for job in jobs:
            queue.put_nowait(job)
        assert _drain(queue, 4) == jobs

    def test_priority_orders_before_fairness(self):
        queue = FairPriorityQueue(depth=8)
        late_but_urgent = _job(priority=-1)
        first = _job()
        queue.put_nowait(first)
        queue.put_nowait(late_but_urgent)
        assert _drain(queue, 2) == [late_but_urgent, first]

    def test_new_client_jumps_a_backlog(self):
        """A second client's first job is served ahead of a 5-deep backlog."""
        queue = FairPriorityQueue(depth=16)
        hog_jobs = [_job(client="hog") for _ in range(5)]
        for job in hog_jobs:
            queue.put_nowait(job)
        newcomer = _job(client="newcomer")
        queue.put_nowait(newcomer)
        order = _drain(queue, 6)
        # newcomer entered at rank 0, so only hog's rank-0 job precedes it
        assert order.index(newcomer) == 1
        assert order[0] is hog_jobs[0]

    def test_interleaves_two_equal_backlogs(self):
        queue = FairPriorityQueue(depth=16)
        a_jobs = [_job(client="a") for _ in range(3)]
        b_jobs = [_job(client="b") for _ in range(3)]
        for job in a_jobs:  # a's whole backlog submitted first
            queue.put_nowait(job)
        for job in b_jobs:
            queue.put_nowait(job)
        clients = [job.client for job in _drain(queue, 6)]
        assert clients == ["a", "b", "a", "b", "a", "b"]

    def test_bounded_depth_raises_queue_full(self):
        queue = FairPriorityQueue(depth=2)
        queue.put_nowait(_job())
        queue.put_nowait(_job())
        with pytest.raises(QueueFull):
            queue.put_nowait(_job())
        assert queue.n_rejected == 1
        assert queue.full

    def test_cancel_frees_a_slot_without_popping(self):
        queue = FairPriorityQueue(depth=2)
        doomed = _job()
        kept = _job()
        queue.put_nowait(doomed)
        queue.put_nowait(kept)
        doomed.cancel()
        queue.cancel(doomed)
        assert len(queue) == 1 and not queue.full
        queue.put_nowait(_job(client="late"))
        # the tombstone is skipped at pop time
        popped = _drain(queue, 2)
        assert doomed not in popped and kept in popped

    def test_client_accounting_does_not_leak(self):
        queue = FairPriorityQueue(depth=8)
        for index in range(6):
            queue.put_nowait(_job(client=f"client-{index}"))
        _drain(queue, 6)
        assert queue.snapshot()["clients_waiting"] == 0

    def test_get_waits_for_a_put(self):
        queue = FairPriorityQueue(depth=2)

        async def _scenario():
            waiter = asyncio.ensure_future(queue.get())
            await asyncio.sleep(0.01)
            assert not waiter.done()
            job = _job()
            queue.put_nowait(job)
            assert await asyncio.wait_for(waiter, timeout=1.0) is job

        asyncio.run(_scenario())

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            FairPriorityQueue(depth=0)


# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.50) == 2.0
        assert percentile(values, 0.99) == 4.0
        assert percentile([7.0], 0.50) == 7.0
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_latency_series_window_and_lifetime(self):
        series = LatencySeries(window=4)
        for value in (1.0, 2.0, 3.0, 4.0, 100.0):
            series.record(value)
        snap = series.snapshot()
        assert snap["count"] == 5  # lifetime count survives the window
        assert snap["max_s"] == 100.0  # percentiles come from the window
        assert snap["p50_s"] == 3.0

    def test_empty_series_snapshot_is_none_shaped(self):
        snap = LatencySeries().snapshot()
        assert snap == {"count": 0, "mean_s": None, "p50_s": None,
                        "p90_s": None, "p99_s": None, "max_s": None}

    def test_to_dict_shape_and_fast_path_rate(self):
        metrics = ServeMetrics()
        for _ in range(4):
            metrics.inc("submitted")
        metrics.inc("cache_hits")
        metrics.inc("collapsed")
        document = metrics.to_dict(inflight=2, draining=False, extra={"version": "x"})
        assert document["singleflight"]["fast_path_rate"] == 0.5
        assert document["inflight"] == 2
        assert document["version"] == "x"
        assert set(document["latency"]) == {"queue_wait", "run", "total"}
        json.dumps(document)  # the whole document must be JSON-safe

    def test_fast_path_rate_none_before_traffic(self):
        assert ServeMetrics().to_dict()["singleflight"]["fast_path_rate"] is None


# --------------------------------------------------------------------------- #
class TestParseSubmission:
    @pytest.fixture()
    def source_file(self, tmp_path):
        path = tmp_path / "scan.h5lite"
        save_wire_scan(str(path), make_tiny_stack())
        return str(path)

    @pytest.fixture()
    def config_dict(self):
        return ReconstructionConfig(grid=DepthGrid.from_range(0, 100, 10)).to_dict()

    def test_minimal_valid_submission(self, source_file, config_dict):
        job = parse_submission({"source": {"path": source_file}, "config": config_dict})
        assert job.state is JobState.QUEUED
        assert job.client == "anonymous"
        assert job.priority == 0
        assert job.config.grid.n_bins == 10

    def test_full_submission(self, source_file, config_dict):
        job = parse_submission({
            "source": {"path": source_file},
            "config": config_dict,
            "analyze": ["peaks", ["fwhm", {}]],
            "priority": -2,
            "client": "  beamline-34  ",
            "timeout_s": 12.5,
        })
        assert job.client == "beamline-34"
        assert job.priority == -2
        assert job.timeout_s == 12.5
        assert job.pipeline is not None

    @pytest.mark.parametrize("body", [
        None,
        [],
        {},
        {"source": {}},
        {"source": {"path": "/no/such/file.h5lite"}},
    ])
    def test_bad_source_rejected(self, body, config_dict):
        if isinstance(body, dict) and body.get("source", {}).get("path"):
            body["config"] = config_dict
        with pytest.raises(ValidationError):
            parse_submission(body)

    def test_missing_or_bad_config_rejected(self, source_file):
        with pytest.raises(ValidationError):
            parse_submission({"source": {"path": source_file}})
        with pytest.raises(ValidationError):
            parse_submission({"source": {"path": source_file}, "config": {"backend": "nope"}})

    def test_unknown_analysis_op_rejected_at_admission(self, source_file, config_dict):
        with pytest.raises(ValidationError):
            parse_submission({
                "source": {"path": source_file},
                "config": config_dict,
                "analyze": ["definitely-not-an-op"],
            })

    def test_graph_key_rejected_at_admission(self, source_file, config_dict):
        with pytest.raises(ValidationError) as info:
            parse_submission({
                "source": {"path": source_file},
                "config": config_dict,
                "graph": [{"name": "peaks", "op": "peaks"}],
            })
        message = str(info.value)
        assert "\n" not in message
        assert "'graph'" in message and "'analyze'" in message

    def test_bool_priority_rejected(self, source_file, config_dict):
        with pytest.raises(ValidationError):
            parse_submission({
                "source": {"path": source_file},
                "config": config_dict,
                "priority": True,
            })

    def test_nonpositive_timeout_rejected(self, source_file, config_dict):
        with pytest.raises(ValidationError):
            parse_submission({
                "source": {"path": source_file},
                "config": config_dict,
                "timeout_s": 0,
            })

    def test_client_id_is_capped(self, source_file, config_dict):
        job = parse_submission({
            "source": {"path": source_file},
            "config": config_dict,
            "client": "x" * 500,
        })
        assert len(job.client) == 64

    def test_status_dict_is_json_safe(self, source_file, config_dict):
        job = parse_submission({"source": {"path": source_file}, "config": config_dict})
        job.mark_running()
        job.finish_ok({"provenance": {}}, served="computed")
        document = job.status_dict()
        json.dumps(document)
        assert document["state"] == "done"
        assert document["timings"]["total_s"] >= 0


# --------------------------------------------------------------------------- #
class TestSessionCacheKey:
    def test_cache_key_matches_run_key(self, tmp_path):
        """The admission probe computes exactly the key a real run uses."""
        path = tmp_path / "scan.h5lite"
        save_wire_scan(str(path), make_tiny_stack())
        session = repro.session(grid=repro.DepthGrid.from_range(0, 100, 10))
        key = session.cache_key(str(path))
        assert key is not None
        run = session.run(str(path), cache=str(tmp_path / "cache"))
        assert run.cache_stats.key == key

    def test_cache_key_rejects_batch_sources(self, tmp_path):
        for name in ("a.h5lite", "b.h5lite"):
            save_wire_scan(str(tmp_path / name), make_tiny_stack())
        session = repro.session(grid=repro.DepthGrid.from_range(0, 100, 10))
        with pytest.raises(ValidationError):
            session.cache_key(str(tmp_path / "*.h5lite"))

    def test_cache_key_for_in_memory_stack_is_stable(self):
        session = repro.session(grid=repro.DepthGrid.from_range(0, 100, 10))
        stack = make_tiny_stack()
        key = session.cache_key(stack)
        assert key is not None and key == session.cache_key(stack)

    def test_cache_key_none_for_unfingerprintable(self, tmp_path):
        """A non-h5lite file cannot promise identity: the probe returns None."""
        bogus = tmp_path / "not-a-scan.h5lite"
        bogus.write_bytes(b"definitely not an h5lite header")
        session = repro.session(grid=repro.DepthGrid.from_range(0, 100, 10))
        assert session.cache_key(str(bogus)) is None
