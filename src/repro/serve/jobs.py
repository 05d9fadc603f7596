"""The job model of the ``repro-serve`` daemon.

A job is one client request for a reconstruction (plus optional analysis
pipeline) of one source file.  The daemon's whole lifecycle hangs off the
:class:`Job` object: admission stamps it with the content-addressed cache
key, the queue orders it, the executor drives it through the state machine,
and the HTTP layer serializes :meth:`Job.status_dict` back to the client.

States
------
``queued → running → done | failed`` with two short-circuits:

* admission may complete a job as ``done`` immediately (cache hit, or
  collapsed onto an identical in-flight computation — ``job.served`` records
  which path it took);
* a queued job may be ``cancelled`` before it starts (running jobs cannot be
  preempted: reconstructions execute on worker threads and are left to
  finish; see the README's serving section).

Everything a client can see is JSON-safe; the heavyweight objects
(:class:`~repro.core.config.ReconstructionConfig`, the analysis pipeline)
stay server-side on the job.
"""

from __future__ import annotations

import enum
import itertools
import os
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import ReconstructionConfig
from repro.utils.validation import ValidationError

__all__ = ["JobState", "Job", "parse_submission"]

#: Cap on the ``client`` identifier length (it lands in logs and metrics).
MAX_CLIENT_ID_LEN = 64

#: Client id used when a submission names none.
DEFAULT_CLIENT_ID = "anonymous"

_SEQ = itertools.count()


class JobState(str, enum.Enum):
    """Lifecycle states (``str`` subclass so JSON serialization is direct)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def is_terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass
class Job:
    """One submitted reconstruction request and its full lifecycle record."""

    client: str
    source_path: str
    config: ReconstructionConfig
    priority: int = 0
    #: analysis pipeline to apply to the finished run (server-side object)
    pipeline: Optional[object] = None
    #: the op specs as submitted (JSON-safe provenance of ``pipeline``)
    analyze_specs: Optional[List] = None
    timeout_s: Optional[float] = None
    id: str = field(default_factory=lambda: uuid.uuid4().hex[:16])
    #: monotonic admission sequence (queue tie-breaker, stable ordering)
    seq: int = field(default_factory=lambda: next(_SEQ))
    state: JobState = JobState.QUEUED
    #: content-addressed cache key (None: source not fingerprintable)
    key: Optional[str] = None
    #: how the job completed: "computed" | "cache" | "collapsed" | None
    served: Optional[str] = None
    error: Optional[str] = None
    #: JSON-safe result record (provenance + analysis), set on DONE
    outcome: Optional[Dict] = None
    attempts: int = 0
    submitted_unix: float = field(default_factory=time.time)
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    #: identical queued requests collapsed onto this computation
    followers: List["Job"] = field(default_factory=list)
    #: the in-flight job this one collapsed onto (None for leaders)
    leader: Optional["Job"] = None

    # ------------------------------------------------------------------ #
    def mark_running(self) -> None:
        self.state = JobState.RUNNING
        self.started_unix = time.time()

    def finish_ok(self, outcome: Dict, served: str) -> None:
        self.outcome = outcome
        self.served = served
        self.state = JobState.DONE
        self.finished_unix = time.time()

    def finish_error(self, error: str) -> None:
        self.error = error
        self.state = JobState.FAILED
        self.finished_unix = time.time()

    def cancel(self) -> None:
        self.state = JobState.CANCELLED
        self.finished_unix = time.time()

    # ------------------------------------------------------------------ #
    @property
    def queue_wait_s(self) -> Optional[float]:
        """Seconds from submission to execution start (None until started)."""
        if self.started_unix is None:
            return None
        return self.started_unix - self.submitted_unix

    @property
    def run_s(self) -> Optional[float]:
        """Seconds the computation itself took (None until finished)."""
        if self.started_unix is None or self.finished_unix is None:
            return None
        return self.finished_unix - self.started_unix

    @property
    def total_s(self) -> Optional[float]:
        """Seconds from submission to terminal state (None until terminal)."""
        if self.finished_unix is None:
            return None
        return self.finished_unix - self.submitted_unix

    # ------------------------------------------------------------------ #
    def status_dict(self) -> Dict:
        """The JSON-safe view ``GET /v1/jobs/<id>`` returns."""
        return {
            "id": self.id,
            "state": self.state.value,
            "client": self.client,
            "priority": self.priority,
            "source": {"path": self.source_path},
            "key": self.key,
            "served": self.served,
            "error": self.error,
            "attempts": self.attempts,
            "analyze": self.analyze_specs,
            "timings": {
                "submitted_unix": self.submitted_unix,
                "started_unix": self.started_unix,
                "finished_unix": self.finished_unix,
                "queue_wait_s": self.queue_wait_s,
                "run_s": self.run_s,
                "total_s": self.total_s,
            },
        }


def parse_submission(body: Dict) -> Job:
    """Validate a ``POST /v1/jobs`` body and build the :class:`Job`.

    Raises :class:`~repro.utils.validation.ValidationError` (mapped to a 400
    response) for anything malformed — fail-fast at admission, the same
    idiom as :class:`~repro.core.config.ReconstructionConfig` itself.  The
    config dict goes through :meth:`ReconstructionConfig.from_dict`, so
    every field the library validates is validated here too, and the job's
    cache key is computed from exactly the config a library user would run.
    """
    if not isinstance(body, dict):
        raise ValidationError("submission body must be a JSON object")
    source = body.get("source")
    if not isinstance(source, dict) or not source.get("path"):
        raise ValidationError('submission requires a source: {"path": "<file>"}')
    path = str(source["path"])
    if not os.path.isfile(path):
        raise ValidationError(f"source path does not exist on the server: {path!r}")
    config_dict = body.get("config")
    if not isinstance(config_dict, dict):
        raise ValidationError("submission requires a config object (ReconstructionConfig.to_dict form)")
    config = ReconstructionConfig.from_dict(config_dict)

    if "graph" in body:
        # rejected, not ignored: ignoring it would run the job without the
        # analysis the client asked for
        raise ValidationError(
            "submission key 'graph' is no longer supported; send linear op "
            "specs under 'analyze' instead"
        )
    pipeline = None
    analyze_specs = body.get("analyze")
    if analyze_specs is not None:
        if not isinstance(analyze_specs, list) or not analyze_specs:
            raise ValidationError("analyze must be a non-empty list of op specs")
        from repro.core.ops import analysis

        # fail on unknown ops/params now (400), not mid-computation
        pipeline = analysis(*[
            tuple(spec) if isinstance(spec, list) else spec for spec in analyze_specs
        ])

    priority = body.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ValidationError(f"priority must be an integer, got {priority!r}")

    client = body.get("client") or DEFAULT_CLIENT_ID
    if not isinstance(client, str):
        raise ValidationError("client must be a string")
    client = client.strip()[:MAX_CLIENT_ID_LEN] or DEFAULT_CLIENT_ID

    timeout_s = body.get("timeout_s")
    if timeout_s is not None:
        timeout_s = float(timeout_s)
        if timeout_s <= 0:
            raise ValidationError("timeout_s must be positive when given")

    return Job(
        client=client,
        source_path=path,
        config=config,
        priority=priority,
        pipeline=pipeline,
        analyze_specs=analyze_specs,
        timeout_s=timeout_s,
    )
