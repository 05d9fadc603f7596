"""Summary metrics for the benchmark reports."""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

__all__ = ["time_ratio", "summarize_ratio_range"]


def time_ratio(candidate_time: float, baseline_time: float) -> float:
    """Candidate time as a fraction of the baseline (the paper's 25 %–30 %)."""
    if baseline_time <= 0:
        raise ValueError("baseline_time must be positive")
    return candidate_time / baseline_time


def summarize_ratio_range(pairs: Iterable[Tuple[float, float]]) -> Dict[str, float]:
    """Summarise candidate/baseline time ratios over several measurements.

    Parameters
    ----------
    pairs:
        Iterable of ``(candidate_time, baseline_time)`` tuples.

    Returns
    -------
    dict with ``min``, ``max`` and ``mean`` ratios — the form in which the
    paper states its headline result ("25 % to 30 % of the prior CPU
    design").
    """
    ratios = [time_ratio(candidate, baseline) for candidate, baseline in pairs]
    if not ratios:
        raise ValueError("at least one measurement pair is required")
    return {
        "min": min(ratios),
        "max": max(ratios),
        "mean": sum(ratios) / len(ratios),
        "count": len(ratios),
    }
