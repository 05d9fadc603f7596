"""Shared utilities: argument validation, logging, byte formatting and the
package version."""

from repro.utils.validation import ensure_positive, ValidationError
from repro.utils.version import package_version

__all__ = [
    "ensure_positive",
    "ValidationError",
    "package_version",
]
