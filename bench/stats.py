"""Order statistics for timings."""

from __future__ import annotations

import math
import statistics

#: candidate percentiles in hundredths of a percent, so the rule stays exact
LADDER = (5000, 9000, 9900, 9990, 9999)
MIN_BEYOND = 10


def _rank(n: int, p: int) -> int:
    """1-based nearest rank of percentile p (hundredths of a percent) among n."""
    return max(1, -(-p * n // 10000))


def percentile(values, p: int) -> float:
    """Nearest-rank percentile; p is in hundredths of a percent (9900 = p99)."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND):
    """Highest percentile of LADDER with at least min_beyond of n samples above it.

    Returns None when even the median has fewer samples beyond it.
    """
    best = None
    for p in LADDER:
        if n - _rank(n, p) >= min_beyond:
            best = p
    return best


def percentile_name(p: int) -> str:
    return "p" + f"{p / 100:g}"


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf
