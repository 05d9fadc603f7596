"""Unit tests for repro.utils.arrays and repro.utils.logging."""

import logging

from repro.utils.arrays import bytes_to_human
from repro.utils.logging import configure, get_logger


class TestConversions:
    def test_bytes_to_human_gb(self):
        assert bytes_to_human(2.1 * 1024**3).endswith("GB")

    def test_bytes_to_human_small(self):
        assert bytes_to_human(12) == "12 B"


class TestLogging:
    def test_get_logger_namespaced(self):
        logger = get_logger("core.reconstruction")
        assert logger.name == "repro.core.reconstruction"

    def test_get_logger_idempotent_prefix(self):
        assert get_logger("repro.io").name == "repro.io"

    def test_configure_adds_single_handler(self):
        # restore the logger afterwards: a handler left at DEBUG would make
        # every later test format and write the debug records
        logger = logging.getLogger("repro")
        existing, level = list(logger.handlers), logger.level
        try:
            logger.handlers = []
            root = configure(level=logging.DEBUG)
            configure(level=logging.DEBUG)
            assert root is logger
            assert len(root.handlers) == 1
        finally:
            logger.handlers = existing
            logger.setLevel(level)
