"""Small statistics shared by ``run.py`` and ``compare.py``."""

from __future__ import annotations

import statistics


def median_iqr(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range (0 with fewer than two values)."""
    if len(values) < 2:
        return (values[0] if values else 0.0), 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return statistics.median(values), third - first


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest of p90/p95/p99/p99.9 with at least ten samples beyond it.

    Returns ``(percentile, value)``, or ``None`` when even p90 has fewer
    than ten samples beyond it.
    """
    ordered = sorted(values)
    best = None
    for percentile in (90.0, 95.0, 99.0, 99.9):
        beyond = int(len(ordered) * (1 - percentile / 100))
        if beyond >= 10:
            best = (percentile, ordered[len(ordered) - beyond - 1])
    return best
