"""Order statistics for reported timings."""

from __future__ import annotations

import math

MIN_BEYOND = 10


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile, refused unless MIN_BEYOND samples lie beyond it.

    The value is the k-th smallest sample with k = ceil(pct/100 * n), so
    n - k samples are above it; a tail with fewer than ten samples beyond
    it is not reported.
    """
    n = len(samples)
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} of {n} samples leaves {n - rank} beyond it; {MIN_BEYOND} are required"
        )
    return sorted(samples)[rank - 1]


def min_samples(pct: float) -> int:
    """Smallest sample count for which percentile(samples, pct) is reported."""
    n = MIN_BEYOND
    while n - max(1, math.ceil(pct / 100.0 * n)) < MIN_BEYOND:
        n += 1
    return n
