"""The single source of truth for the package version.

Everything that stamps or compares a version reads this module:
``repro.__version__``, :func:`repro.utils.version.package_version` (run,
batch and analysis provenance records) and ``setup.py`` (which parses this
file textually so building metadata never imports the package).  Cache
keys in :mod:`repro.core.cache` incorporate the version, so any drift
between definitions would silently poison cache hits — keep exactly one
definition, here.
"""

from __future__ import annotations

__all__ = ["__version__"]

__version__ = "1.2.0"
