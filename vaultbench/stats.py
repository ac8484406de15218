"""Summary arithmetic for the benchmark: medians, the interquartile mean,
the trimmed mean, the tail percentile and the failed-operation ratio.
Pure functions, so the tests can pin them."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

# A tail percentile is only reported with at least this many samples beyond it.
TAIL_BEYOND = 10
TAIL_PERCENT = 90
TRIM = 0.05  # share of samples the trimmed mean drops at each end


def tail_rank(n: int) -> int:
    """Index into n sorted samples of the reported tail value.

    The tail is p90 (nearest rank) once a run has enough samples to leave
    TAIL_BEYOND of them above it, which is from 100 samples on.  With
    fewer samples it is the highest nearest-rank percentile that still
    leaves TAIL_BEYOND samples above it, and never below the (upper) median.
    """
    if n < 1:
        raise ValueError("no samples")
    p90 = math.ceil(TAIL_PERCENT * n / 100) - 1
    upper_median = n // 2
    return max(upper_median, min(p90, n - 1 - TAIL_BEYOND))


@dataclass(frozen=True)
class Summary:
    n: int
    p50: float
    tail: float
    tail_pct: float  # which nearest-rank percentile `tail` is
    iqm: float  # interquartile mean: mean of the middle half of the samples
    tmean: float  # mean without the lowest and the highest TRIM of the samples
    total: float


def summarize(samples: Sequence[float]) -> Summary:
    ordered = sorted(samples)
    n = len(ordered)
    k = tail_rank(n)
    return Summary(
        n=n,
        p50=statistics.median(ordered),
        tail=ordered[k],
        tail_pct=100.0 * (k + 1) / n,
        iqm=statistics.fmean(ordered[n // 4 : n - n // 4]),
        tmean=statistics.fmean(ordered[int(n * TRIM) : n - int(n * TRIM)]),
        total=math.fsum(ordered),
    )


def failed_ratio(failed: int, attempted: int) -> float:
    """failed_ops: operations that failed a check over operations attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted
