"""Summary statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (50, 90, 99, 99.9)
MIN_BEYOND = 10


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, pct):
    """The pct-th percentile by the nearest-rank rule; 0.0 for no values."""
    xs = sorted(values)
    if not xs:
        return 0.0
    return xs[max(1, math.ceil(pct * len(xs) / 100)) - 1]


def tail(values):
    """(percentile, value, sample count) for the highest percentile in
    TAIL_PERCENTILES that has at least MIN_BEYOND samples beyond it.

    With fewer than 2 * MIN_BEYOND samples no percentile qualifies; the
    median is given then, and the count shows how thin it is. No samples
    give (0, 0.0, 0).
    """
    n = len(values)
    if n == 0:
        return 0, 0.0, 0
    best = 50
    for pct in TAIL_PERCENTILES:
        if n - math.ceil(pct * n / 100) >= MIN_BEYOND:
            best = pct
    return best, percentile(values, best), n
