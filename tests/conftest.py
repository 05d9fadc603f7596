"""Shared fixtures for the test-suite.

Fixtures are deliberately small (a handful of detector rows, tens of wire
positions) so that even the scalar reference backend runs in milliseconds;
the accuracy-oriented integration tests use slightly larger session-scoped
stacks that are generated once.
"""

from __future__ import annotations

import logging
import sys

import numpy as np
import pytest

from repro.core.config import ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.geometry.beam import Beam
from repro.geometry.detector import Detector
from repro.geometry.wire import Wire
from repro.synthetic.forward_model import design_scan_for_depth_range, simulate_wire_scan
from repro.synthetic.sample import DepthSourceField
from repro.synthetic.workloads import make_benchmark_workload, make_point_source_stack


#: the logging errors handlers reported during the session
_LOGGING_ERRORS = pytest.StashKey[list]()


def pytest_configure(config):
    """Record every logging error a handler reports during the session.

    ``logging.Handler.handleError`` prints a report and carries on, so a
    record lost to, say, a closed stream would leave every test green;
    :func:`pytest_sessionfinish` fails the run instead.
    """
    errors = config.stash[_LOGGING_ERRORS] = []
    handle_error = logging.Handler.handleError

    def recording_handle_error(handler, record):
        errors.append(
            f"{type(handler).__name__} lost {record.msg!r} % {record.args!r} "
            f"({record.pathname}:{record.lineno}): {sys.exc_info()[1]!r}"
        )
        handle_error(handler, record)

    logging.Handler.handleError = recording_handle_error
    config.add_cleanup(lambda: setattr(logging.Handler, "handleError", handle_error))


def pytest_sessionfinish(session):
    """Fail the run when a handler reported a logging error."""
    if session.config.stash.get(_LOGGING_ERRORS, None):
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    """List the logging errors that failed the run."""
    errors = config.stash.get(_LOGGING_ERRORS, None)
    if errors:
        terminalreporter.write_sep("=", f"{len(errors)} logging error(s)", red=True)
        for error in errors:
            terminalreporter.write_line(error)


@pytest.fixture(autouse=True)
def _race_sanitizer_gate():
    """Fail any test during which an unsynchronized cross-thread write landed.

    No-op unless ``REPRO_RACE_SANITIZER=1`` (the CI sanitizer lane).  The
    pre-test drain clears writes recorded during collection/imports so a
    violation is attributed to the test that actually produced it.
    """
    from repro.staticcheck import sanitizer

    if not sanitizer.enabled():
        yield
        return
    sanitizer.drain()
    yield
    violations = sanitizer.drain()
    assert not violations, "race sanitizer: " + "; ".join(
        v.render() for v in violations
    )


@pytest.fixture()
def pool_bands(monkeypatch):
    """Give every ``threads`` executor built during the test an element floor
    of 1, so each chunk of two or more rows splits into row bands on the
    shared pool.

    At the default floor every chunk of these small test stacks is one band,
    which runs in the calling thread on the serial path, so an identity test
    of the ``threads`` executor would compare the serial path with itself.
    Returns the list of executors built, for
    :func:`tests.helpers.sent_bands_to_the_pool`.
    """
    from repro.core.backends.threaded import ThreadedExecutor

    built = []
    init = ThreadedExecutor.__init__

    def init_at_floor_one(self, min_elements_per_dispatch=1):
        init(self, min_elements_per_dispatch)
        built.append(self)

    monkeypatch.setattr(ThreadedExecutor, "__init__", init_at_floor_one)
    return built


@pytest.fixture()
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture()
def small_detector() -> Detector:
    """A tiny canonical detector (6 rows x 5 cols)."""
    return Detector(n_rows=6, n_cols=5, pixel_size=200.0, distance=510_000.0, center=(0.0, 0.0))


@pytest.fixture()
def default_wire() -> Wire:
    """The default 26 um radius wire."""
    return Wire()


@pytest.fixture()
def depth_grid() -> DepthGrid:
    """Depth grid covering 0-100 um with 25 bins."""
    return DepthGrid.from_range(0.0, 100.0, 25)


@pytest.fixture()
def small_scan(small_detector):
    """A scan designed to depth-resolve 0-100 um on the small detector."""
    return design_scan_for_depth_range(small_detector, (0.0, 100.0), n_points=61)


@pytest.fixture()
def point_source_stack(small_detector, small_scan):
    """A stack with a single emitter at 40 um illuminating every pixel."""
    depth_samples = np.linspace(0.0, 100.0, 64, endpoint=False) + 100.0 / 128.0
    source = DepthSourceField.point_source(small_detector, 40.0, depth_samples, intensity=500.0)
    stack = simulate_wire_scan(source, small_scan, small_detector, Beam())
    return stack, source


@pytest.fixture()
def default_config(depth_grid) -> ReconstructionConfig:
    """Default vectorised-backend configuration on the shared grid."""
    return ReconstructionConfig(grid=depth_grid, backend="vectorized")


# --------------------------------------------------------------------------- #
# session-scoped, more expensive fixtures
@pytest.fixture(scope="session")
def session_point_stack():
    """Medium point-source stack shared by accuracy tests."""
    stack, source = make_point_source_stack(depth=40.0, n_rows=8, n_cols=8, n_positions=81)
    return stack, source


@pytest.fixture(scope="session")
def session_workload():
    """A small benchmark workload shared by backend-equivalence tests."""
    return make_benchmark_workload("2.1G", scale=1.0 / 32768.0, seed=3)

