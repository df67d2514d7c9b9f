"""Summary statistics shared by the runner and its tests."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def tail(times: list[float]) -> tuple[float, float, int]:
    """The time at the highest percentile that has at least TAIL_BEYOND
    samples beyond it, as (time, percentile, sample count).  With too few
    samples for that, the maximum, reported as the 100th percentile."""
    xs = sorted(times)
    k = len(xs)
    if k <= TAIL_BEYOND:
        return xs[-1], 100.0, k
    return xs[k - TAIL_BEYOND - 1], 100.0 * (k - TAIL_BEYOND) / k, k


def geomean(times: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(t) for t in times))

