"""Array helpers shared across the library.

The paper's 3-D <-> 1-D index mapping (Fig. 4, the "1-D array vs 3-D array"
layout discussion) is modelled by :mod:`repro.core.layouts`, not here.
"""

from __future__ import annotations

__all__ = ["bytes_to_human"]


def bytes_to_human(n_bytes: float) -> str:
    """Format a byte count as a human readable string (e.g. ``'2.1 GB'``)."""
    n = float(n_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(n) < 1024.0 or unit == "TB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    return f"{n:.1f} TB"
