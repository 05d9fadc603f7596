"""Package-version lookup for provenance records."""

from __future__ import annotations

__all__ = ["package_version"]


def package_version() -> str:
    """The repro package version, resolved lazily to avoid an import cycle.

    Run and analysis provenance records stamp this value, and
    :mod:`repro.core.cache` folds it into every cache key; reading the one
    definition in :mod:`repro._version` (the same file ``setup.py`` parses)
    guarantees they can never diverge.
    """
    try:
        from repro._version import __version__

        return __version__
    except Exception:  # pragma: no cover - only during partial imports
        return "unknown"
