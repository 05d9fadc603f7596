"""Validation helpers used at public API boundaries.

The library validates shapes, dtypes and value ranges at the edges of the
public API (constructors, top-level functions) and then assumes clean data in
inner loops.  This keeps the vectorised hot paths free of per-element checks
while still giving users actionable error messages.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "ValidationError",
    "ensure_positive",
    "ensure_non_negative",
]


class ValidationError(ValueError):
    """Raised when an argument fails validation at an API boundary."""


def _is_real(value) -> bool:
    """True for a real number, NumPy scalars included; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_count(value) -> bool:
    """True for an integer >= 1, NumPy integers included; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def ensure_positive(value: float, name: str = "value") -> float:
    """Return *value* as a float if it is a finite, strictly positive real
    number (not a bool, not a string), else raise.

    Parameters
    ----------
    value:
        Scalar to check.
    name:
        Name used in the error message.
    """
    if not _is_real(value) or not np.isfinite(value) or value <= 0:
        raise ValidationError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def ensure_non_negative(value: float, name: str = "value") -> float:
    """Return *value* as a float if it is a finite real number >= 0, else raise."""
    if not _is_real(value) or not np.isfinite(value) or value < 0:
        raise ValidationError(f"{name} must be a finite non-negative number, got {value!r}")
    return float(value)
