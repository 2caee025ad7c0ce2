"""Statistics of the benchmark: the tail latency rule, and the figure a run
reports for a timing it repeated."""

from __future__ import annotations

import math
import statistics

BEYOND = 10


def tail(values: list[float]) -> tuple[str, float]:
    """The highest whole percentile, p50 or above, with at least BEYOND values
    ranked above it (nearest rank), as (label, value).  With fewer than
    2 * BEYOND values none qualifies and the tail is the maximum, "max"."""
    s = sorted(values)
    n = len(s)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= BEYOND:
            return f"p{q}", s[rank - 1]
    return "max", s[-1]


def fast(values: list[float]) -> float:
    """The first quartile of one timing's repetitions in a run; the minimum
    when there are fewer than three.

    The host's speed drifts.  When it is mostly fast, the quartile ignores
    the slow repetitions, as the minimum would; when it is mostly slow, the
    quartile also ignores a single rare fast one, which the minimum would
    report."""
    if len(values) < 3:
        return min(values)
    return statistics.quantiles(values, n=4)[0]
