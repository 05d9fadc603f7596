"""Unit tests for repro.utils.arrays and repro.utils.logging."""

import logging

import numpy as np
import pytest

from repro.utils.arrays import (
    as_contiguous,
    as_float64,
    bytes_to_human,
    chunk_ranges,
    ravel_index_3d,
    unravel_index_3d,
)
from repro.utils.logging import configure, get_logger


class TestIndexMapping:
    def test_matches_paper_formula(self):
        # gsl_offset = idx + idy*DATAXSIZE + DATAYSIZE*DATAXSIZE*idz
        nx, ny = 9, 2
        assert ravel_index_3d(3, 1, 2, nx, ny) == 3 + 1 * 9 + 2 * 18

    def test_roundtrip_scalar(self):
        nx, ny = 7, 5
        offset = ravel_index_3d(4, 3, 2, nx, ny)
        ix, iy, iz = unravel_index_3d(offset, nx, ny)
        assert (ix, iy, iz) == (4, 3, 2)

    def test_roundtrip_arrays(self):
        nx, ny, nz = 6, 4, 3
        ix, iy, iz = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
        offsets = ravel_index_3d(ix, iy, iz, nx, ny)
        rx, ry, rz = unravel_index_3d(offsets, nx, ny)
        np.testing.assert_array_equal(rx, ix)
        np.testing.assert_array_equal(ry, iy)
        np.testing.assert_array_equal(rz, iz)

    def test_offsets_are_unique_and_dense(self):
        nx, ny, nz = 5, 4, 3
        ix, iy, iz = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
        offsets = np.sort(ravel_index_3d(ix, iy, iz, nx, ny).ravel())
        np.testing.assert_array_equal(offsets, np.arange(nx * ny * nz))


class TestChunkRanges:
    def test_exact_division(self):
        assert list(chunk_ranges(6, 2)) == [(0, 2), (2, 4), (4, 6)]

    def test_remainder(self):
        assert list(chunk_ranges(7, 3)) == [(0, 3), (3, 6), (6, 7)]

    def test_single_chunk(self):
        assert list(chunk_ranges(3, 10)) == [(0, 3)]

    def test_zero_total(self):
        assert list(chunk_ranges(0, 4)) == []

    def test_invalid_chunk(self):
        with pytest.raises(ValueError):
            list(chunk_ranges(5, 0))

    def test_covers_everything_without_overlap(self):
        covered = []
        for start, stop in chunk_ranges(23, 5):
            covered.extend(range(start, stop))
        assert covered == list(range(23))


class TestConversions:
    def test_as_float64_casts(self):
        out = as_float64(np.arange(3, dtype=np.int32))
        assert out.dtype == np.float64

    def test_as_contiguous_on_strided(self):
        arr = np.zeros((4, 4))[::2]
        out = as_contiguous(arr)
        assert out.flags["C_CONTIGUOUS"]

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
