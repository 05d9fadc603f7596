"""Setuptools shim.

The offline environment has setuptools but not the ``wheel`` package, so
PEP 660 editable installs (``pip install -e .`` with build isolation) cannot
build an editable wheel.  This file enables the legacy development install
path (``python setup.py develop`` / ``pip install -e . --no-build-isolation``).

The version is parsed textually from ``src/repro/_version.py`` — the single
definition the package itself exports — so packaging metadata can never
drift from ``repro.__version__`` (cache keys depend on the stamped version,
making silent drift a correctness bug, not a cosmetic one).
"""

import os
import re

from setuptools import find_packages, setup

_VERSION_FILE = os.path.join(os.path.dirname(__file__), "src", "repro", "_version.py")


def read_version() -> str:
    """The package version, read without importing the package."""
    with open(_VERSION_FILE, "r", encoding="utf-8") as fh:
        match = re.search(r'^__version__\s*=\s*"([^"]+)"', fh.read(), re.MULTILINE)
    if not match:
        raise RuntimeError(f"no __version__ definition found in {_VERSION_FILE}")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={
        "console_scripts": [
            "repro-generate = repro.cli:main_generate",
            "repro-reconstruct = repro.cli:main_reconstruct",
            "repro-batch = repro.cli:main_batch",
            "repro-backends = repro.cli:main_backends",
            "repro-analyze = repro.cli:main_analyze",
            "repro-cache = repro.cli:main_cache",
            "repro-benchmark = repro.cli:main_benchmark",
            "repro-serve = repro.cli:main_serve",
            "repro-lint = repro.staticcheck.cli:main",
        ]
    },
)
