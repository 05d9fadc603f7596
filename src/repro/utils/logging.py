"""Logging helpers.

A thin wrapper around :mod:`logging` so that library code gets namespaced
loggers without configuring handlers (library best practice), while scripts
and the CLI can call :func:`configure` once to get readable console output.

Request-scoped context
----------------------
Long-lived processes (the ``repro-serve`` daemon) interleave many clients'
work on one event loop and one worker pool, so a bare message line cannot be
attributed to the request that produced it.  :func:`request_context` binds a
job id and client id to the *current execution context* (:mod:`contextvars`,
so asyncio tasks and ``contextvars.copy_context()``-wrapped executor calls
each see their own binding), and :class:`RequestContextFilter` stamps both
onto every :class:`logging.LogRecord` as ``job_id`` / ``client_id`` plus a
pre-rendered ``request`` suffix — every record emitted while serving a job
carries the job, with zero changes to the call sites.
"""

from __future__ import annotations

import contextvars
import logging
import sys
from contextlib import contextmanager
from typing import Optional

__all__ = [
    "get_logger",
    "configure",
    "request_context",
    "current_request",
    "RequestContextFilter",
]

_ROOT_NAME = "repro"

#: The ids of the request being served in this execution context (``None``
#: outside any :func:`request_context` block, e.g. plain CLI runs).
_JOB_ID: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repro_job_id", default=None
)
_CLIENT_ID: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repro_client_id", default=None
)


def get_logger(name: str | None = None) -> logging.Logger:
    """Return a logger under the ``repro`` namespace."""
    if name is None or name == _ROOT_NAME:
        return logging.getLogger(_ROOT_NAME)
    if name.startswith(_ROOT_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")


@contextmanager
def request_context(job_id: Optional[str] = None, client_id: Optional[str] = None):
    """Bind a job/client id to every log record emitted in this context.

    Context-local (not thread-global): concurrent asyncio tasks each keep
    their own binding, and a worker-thread call wrapped in
    ``contextvars.copy_context().run`` inherits the binding of the task that
    dispatched it.  Nested contexts restore the outer binding on exit.
    """
    job_token = _JOB_ID.set(job_id)
    client_token = _CLIENT_ID.set(client_id)
    try:
        yield
    finally:
        _JOB_ID.reset(job_token)
        _CLIENT_ID.reset(client_token)


def current_request() -> dict:
    """The request ids bound in this context (values ``None`` when unbound)."""
    return {"job_id": _JOB_ID.get(), "client_id": _CLIENT_ID.get()}


class RequestContextFilter(logging.Filter):
    """Stamp the context-bound job/client ids onto every record.

    Always passes the record through; it only *annotates*.  ``record.request``
    is a pre-rendered `` [job=... client=...]`` suffix (empty string outside a
    request), so any formatter can include ``%(request)s`` unconditionally.
    """

    def filter(self, record: logging.LogRecord) -> bool:
        record.job_id = _JOB_ID.get()
        record.client_id = _CLIENT_ID.get()
        parts = []
        if record.job_id is not None:
            parts.append(f"job={record.job_id}")
        if record.client_id is not None:
            parts.append(f"client={record.client_id}")
        record.request = f" [{' '.join(parts)}]" if parts else ""
        return True


class _StderrHandler(logging.StreamHandler):
    """A stream handler writing to ``sys.stderr`` as it is when a record is
    emitted, not as it was when the handler was made (logging's own
    last-resort handler works the same way).

    A process that swaps ``sys.stderr`` after :func:`configure` (a test
    capturing output, then closing its stream) would otherwise leave the
    handler writing to a closed stream, and every later record, such as a
    serve job's log line from a worker thread, would be lost to a
    logging-error report.
    """

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def configure(level: int = logging.INFO, stream=None) -> logging.Logger:
    """Configure console logging for scripts/CLI (idempotent).

    Records go to *stream*, or, without one, to whatever ``sys.stderr`` is
    when each record is emitted.  The handler carries a
    :class:`RequestContextFilter`, so daemon log lines emitted while
    serving a job automatically carry ``[job=... client=...]``.
    """
    logger = logging.getLogger(_ROOT_NAME)
    logger.setLevel(level)
    if not logger.handlers:
        handler = _StderrHandler() if stream is None else logging.StreamHandler(stream)
        handler.addFilter(RequestContextFilter())
        handler.setFormatter(
            logging.Formatter(
                "%(asctime)s %(name)s %(levelname)s%(request)s: %(message)s", "%H:%M:%S"
            )
        )
        logger.addHandler(handler)
    return logger
