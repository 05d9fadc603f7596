"""The package version must be single-sourced.

Cache keys (:mod:`repro.core.cache`) and run/analysis provenance records
all stamp the package version; if two definitions drifted apart, stale
cache entries could silently be served as hits.  These tests pin every
consumer to the one definition in ``src/repro/_version.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro
from repro._version import __version__ as version_definition
from repro.utils.version import package_version

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_package_dunder_version_matches_definition():
    assert repro.__version__ == version_definition


def test_package_version_helper_matches_definition():
    assert package_version() == version_definition


def test_setup_py_reports_the_same_version():
    """``python setup.py --version`` must agree without importing repro."""
    out = subprocess.run(
        [sys.executable, "setup.py", "--version"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == version_definition


def test_provenance_records_stamp_the_same_version(point_source_stack, depth_grid):
    """Run + analysis provenance and batch records all carry the one version."""
    stack, _source = point_source_stack
    run = repro.session(grid=depth_grid).run(stack)
    assert run.provenance()["repro_version"] == version_definition
    outcome = run.analyze("total_intensity")
    assert outcome.provenance()["repro_version"] == version_definition
    batch = repro.session(grid=depth_grid).run_many([stack])
    assert batch.to_dict()["repro_version"] == version_definition
