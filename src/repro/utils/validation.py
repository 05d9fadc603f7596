"""Validation helpers used at public API boundaries.

The library validates shapes, dtypes and value ranges at the edges of the
public API (constructors, top-level functions) and then assumes clean data in
inner loops.  This keeps the vectorised hot paths free of per-element checks
while still giving users actionable error messages.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ValidationError",
    "ensure_positive",
    "ensure_non_negative",
]


class ValidationError(ValueError):
    """Raised when an argument fails validation at an API boundary."""


def ensure_positive(value: float, name: str = "value") -> float:
    """Return *value* if it is strictly positive, else raise.

    Parameters
    ----------
    value:
        Scalar to check.
    name:
        Name used in the error message.
    """
    if not np.isfinite(value) or value <= 0:
        raise ValidationError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def ensure_non_negative(value: float, name: str = "value") -> float:
    """Return *value* if it is >= 0, else raise."""
    if not np.isfinite(value) or value < 0:
        raise ValidationError(f"{name} must be a finite non-negative number, got {value!r}")
    return float(value)
