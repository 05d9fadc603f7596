"""Request-scoped structured logging (the serve layer's attribution story).

Every log record emitted while serving a job must carry that job's id and
client id — across asyncio task switches and into executor threads — with
no changes at the emitting call sites.
"""

import asyncio
import contextvars
import io
import logging
import sys
import threading

from repro.utils.logging import (
    RequestContextFilter,
    configure,
    get_logger,
    request_context,
)


class _RecordCollector(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = []
        self.addFilter(RequestContextFilter())

    def emit(self, record):
        self.records.append(record)


def _bound_ids():
    """The ids RequestContextFilter stamps on a record emitted here."""
    record = logging.makeLogRecord({})
    RequestContextFilter().filter(record)
    return {"job_id": record.job_id, "client_id": record.client_id}


def _collecting_logger(name):
    logger = get_logger(name)
    logger.setLevel(logging.DEBUG)
    logger.propagate = False
    collector = _RecordCollector()
    logger.addHandler(collector)
    return logger, collector


# --------------------------------------------------------------------------- #
class TestRequestContext:
    def test_binds_and_restores(self):
        assert _bound_ids() == {"job_id": None, "client_id": None}
        with request_context(job_id="j1", client_id="alice"):
            assert _bound_ids() == {"job_id": "j1", "client_id": "alice"}
        assert _bound_ids() == {"job_id": None, "client_id": None}

    def test_nesting_restores_the_outer_binding(self):
        with request_context(job_id="outer"):
            with request_context(job_id="inner", client_id="c"):
                assert _bound_ids()["job_id"] == "inner"
            assert _bound_ids() == {"job_id": "outer", "client_id": None}

    def test_restores_on_exception(self):
        try:
            with request_context(job_id="doomed"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert _bound_ids()["job_id"] is None


class TestRequestContextFilter:
    def test_records_are_annotated_inside_a_request(self):
        logger, collector = _collecting_logger("test.ctx.annotate")
        with request_context(job_id="j42", client_id="beamline"):
            logger.info("inside")
        logger.info("outside")
        inside, outside = collector.records
        assert inside.job_id == "j42" and inside.client_id == "beamline"
        assert inside.request == " [job=j42 client=beamline]"
        assert outside.job_id is None and outside.request == ""

    def test_partial_binding_renders_what_it_has(self):
        logger, collector = _collecting_logger("test.ctx.partial")
        with request_context(job_id="only-job"):
            logger.info("x")
        assert collector.records[0].request == " [job=only-job]"

    def test_formatter_can_use_the_request_field(self):
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.addFilter(RequestContextFilter())
        handler.setFormatter(logging.Formatter("%(levelname)s%(request)s: %(message)s"))
        logger = get_logger("test.ctx.format")
        logger.setLevel(logging.INFO)
        logger.propagate = False
        logger.addHandler(handler)
        with request_context(job_id="jf", client_id="cf"):
            logger.info("served")
        assert stream.getvalue() == "INFO [job=jf client=cf]: served\n"


class TestContextPropagation:
    def test_concurrent_asyncio_tasks_keep_their_own_binding(self):
        logger, collector = _collecting_logger("test.ctx.tasks")

        async def serve_one(job_id):
            with request_context(job_id=job_id):
                await asyncio.sleep(0.01)  # force interleaving
                logger.info("working")
                await asyncio.sleep(0.01)
                logger.info("done")

        async def main():
            await asyncio.gather(*(serve_one(f"job-{i}") for i in range(4)))

        asyncio.run(main())
        by_job = {}
        for record in collector.records:
            by_job.setdefault(record.job_id, []).append(record.getMessage())
        assert set(by_job) == {f"job-{i}" for i in range(4)}
        assert all(messages == ["working", "done"] for messages in by_job.values())

    def test_copy_context_carries_binding_into_a_thread(self):
        """The daemon's run_in_executor idiom: the worker thread inherits ids."""
        logger, collector = _collecting_logger("test.ctx.thread")

        def compute():
            logger.info("computing")
            return _bound_ids()

        with request_context(job_id="jt", client_id="ct"):
            context = contextvars.copy_context()
        seen = {}
        thread = threading.Thread(target=lambda: seen.update(context.run(compute)))
        thread.start()
        thread.join()
        assert seen == {"job_id": "jt", "client_id": "ct"}
        assert collector.records[0].job_id == "jt"

    def test_plain_thread_does_not_inherit(self):
        """Without copy_context the binding stays with the creating thread."""
        seen = {}
        with request_context(job_id="leaky?"):
            thread = threading.Thread(target=lambda: seen.update(_bound_ids()))
            thread.start()
            thread.join()
        assert seen == {"job_id": None, "client_id": None}


class TestConfigure:
    def test_idempotent_and_filtered(self):
        logger = logging.getLogger("repro")
        existing = list(logger.handlers)
        try:
            logger.handlers = []
            configured = configure(level=logging.WARNING, stream=io.StringIO())
            again = configure(level=logging.WARNING, stream=io.StringIO())
            assert configured is again
            assert len(configured.handlers) == 1
            handler = configured.handlers[0]
            assert any(isinstance(f, RequestContextFilter) for f in handler.filters)
        finally:
            logger.handlers = existing

    def test_default_handler_writes_to_the_current_stderr(self, monkeypatch):
        """Configured under one ``sys.stderr`` that is then closed and
        replaced, the handler must write a later record, logged from a
        thread as a serve job's is, to the new stream: a handler bound to
        the closed one reports a logging error there instead."""
        logger = logging.getLogger("repro")
        existing, level = list(logger.handlers), logger.level
        first, second = io.StringIO(), io.StringIO()
        try:
            logger.handlers = []
            monkeypatch.setattr(sys, "stderr", first)
            configure(level=logging.INFO)
            first.close()
            monkeypatch.setattr(sys, "stderr", second)
            thread = threading.Thread(
                target=get_logger("test.ctx.stderr").info, args=("job %s done", "j9")
            )
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            logger.handlers = existing
            logger.setLevel(level)
        written = second.getvalue()
        assert "job j9 done" in written and "Logging error" not in written
