"""Order statistics shared by the harness and ``compare.py``."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only when at least this many samples lie
#: beyond it, so a tail is never one or two outliers.
TAIL_SUPPORT = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0 <= p <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> float | None:
    """The highest of p99.9/p99/p90 with ``TAIL_SUPPORT`` samples beyond it."""
    for p, beyond in ((99.9, 1000), (99.0, 100), (90.0, 10)):
        if n >= TAIL_SUPPORT * beyond:
            return p
    return None


def summary(values) -> dict:
    """``{"n", "p50", "tail_p", "tail"}``; the tail is None if unsupported."""
    values = list(values)
    tail_p = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": statistics.median(values),
        "tail_p": tail_p,
        "tail": percentile(values, tail_p) if tail_p is not None else None,
    }


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 when median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0
